// Package msm implements Markov State Model construction and analysis: the
// kinetic clustering, transition-matrix estimation, ergodic trimming,
// stationary analysis, implied-timescale validation and adaptive-sampling
// weighting described in §3.2 of the paper.
//
// The pipeline is: cluster conformations into microstates (k-centers),
// discretise trajectories, count transitions at a lag time, estimate a
// row-stochastic transition matrix, restrict it to the largest strongly
// connected (ergodic) subset, and analyse — stationary distribution for the
// blind native-state prediction, Chapman–Kolmogorov propagation for the
// Fig 4 population evolution, and per-state uncertainty weights for
// adaptive spawning.
package msm

import (
	"fmt"
	"math"
	"slices"

	"copernicus/internal/rng"
)

// Clustering is a set of cluster centers in feature space with a Euclidean
// assignment rule. Centers are immutable once built.
type Clustering struct {
	Centers [][]float64
	// CenterSource[i] identifies where center i came from as an index into
	// the point set passed to KCenters — the control plane uses it to map a
	// cluster back to a restartable conformation.
	CenterSource []int

	// The three below are filled in by KCenters only. Assignments[i] is the
	// center nearest to input point i (the first on a tie) — what
	// AssignAll(points) would compute. Radius is the largest distance from an
	// input point to its center, the k-centers objective. DistEvals counts the
	// squared distances KCenters evaluated, its unit of work.
	Assignments []int
	Radius      float64
	DistEvals   int

	// flat is a lazily packed row-major copy of Centers: the assignment hot
	// loop walks one contiguous buffer instead of chasing a slice header per
	// center. Built on first Assign; Centers are immutable once built, so it
	// never goes stale. Not safe to build from concurrent first Assigns —
	// callers that share a Clustering across goroutines call Pack() first.
	flat []float64
	dim  int
}

// Pack eagerly builds the contiguous center buffer the assignment loop
// uses. Assign does this lazily; concurrent users call Pack once up front.
func (c *Clustering) Pack() {
	if c.flat != nil || len(c.Centers) == 0 {
		return
	}
	c.dim = len(c.Centers[0])
	flat := make([]float64, 0, len(c.Centers)*c.dim)
	for _, ctr := range c.Centers {
		flat = append(flat, ctr...)
	}
	c.flat = flat
}

// nearestFlat returns the index of the row of flat (k rows × dim) closest
// to p, with the same first-wins tie-breaking as the slice-walking loop.
func nearestFlat(flat []float64, dim int, p []float64) int {
	best, bestD := 0, math.Inf(1)
	for i, base := 0, 0; base < len(flat); i, base = i+1, base+dim {
		d := 0.0
		row := flat[base : base+dim : base+dim]
		for k, pk := range p {
			dk := pk - row[k]
			d += dk * dk
		}
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// PointSet is an append-only set of equal-dimension points in one contiguous
// buffer (stride dim), together with the work arrays of KCenters. A caller
// that clusters a growing set again and again — the controller at every
// generation barrier — appends only the new points and reuses the buffers,
// so a barrier allocates nothing that scales with the set. The zero value
// is an empty set; it takes its dimension from the first point.
type PointSet struct {
	n, dim int
	data   []float64

	// KCenters work arrays, kept between calls.
	dist2   []float64 // squared distance to the nearest center so far
	assign  []int     // which center that is
	members [][]int32 // members[a]: the points assigned to center a
	rad2    []float64 // rad2[a]: the largest dist2 among members[a]
	far     []int     // far[a]: the lowest-indexed member at that distance
	moved   []int32   // scratch: a new cluster's members, until their number is known
}

// Len returns the number of points in the set.
func (s *PointSet) Len() int { return s.n }

// Append copies the points onto the end of the set. It appends all of them
// or, if one has the wrong dimension, none.
func (s *PointSet) Append(points ...[]float64) error {
	if len(points) == 0 {
		return nil
	}
	dim := s.dim
	if s.n == 0 {
		dim = len(points[0])
	}
	for i, p := range points {
		if len(p) != dim {
			return fmt.Errorf("msm: point %d has dimension %d, want %d", s.n+i, len(p), dim)
		}
	}
	s.dim = dim
	s.data = slices.Grow(s.data, len(points)*dim)
	for _, p := range points {
		s.data = append(s.data, p...)
	}
	s.n += len(points)
	return nil
}

// pruneFactor is Elkan's bound with a margin: a point at squared distance d
// from its center a cannot be nearer to a new center c than to a when
// d²(a, c) ≥ 4·d, because then |pc| ≥ |ac| − |pa| ≥ |pa|. The margin (1e-9
// against a rounding error of some 1e-15 in each squared distance) keeps a
// skipped point strictly farther from c in floating point too, so skipping
// it can never change a result.
const pruneFactor = 4 * (1 + 1e-9)

// KCenters builds k cluster centers from points with the greedy k-centers
// algorithm: start from a seed point, then repeatedly promote the point
// farthest from all existing centers. This is the standard MSM geometric
// clustering (Bowman et al.); it bounds the cluster radius within a factor
// of two of optimal and is deterministic given the seed.
//
// If k >= len(points), every distinct point becomes its own center.
func KCenters(points [][]float64, k int, seed uint64) (*Clustering, error) {
	var s PointSet
	if err := s.Append(points...); err != nil {
		return nil, err
	}
	return s.KCenters(k, seed)
}

// KCenters is the package-level KCenters over the set's points. The
// algorithm already knows every point's nearest center, so it returns the
// assignment with the centers instead of leaving the caller to recompute
// N × k distances; and it keeps a member list and a radius for each
// cluster, so promoting a center visits only the clusters — and measures
// within them only the points — that the triangle inequality (pruneFactor)
// does not rule out. Both are exact: centers, sources and
// assignments are those of the unpruned algorithm followed by AssignAll.
//
// The returned Assignments alias the set's work buffer: they are valid until
// the next KCenters call on the same set.
func (s *PointSet) KCenters(k int, seed uint64) (*Clustering, error) {
	n, dim := s.n, s.dim
	if n == 0 {
		return nil, fmt.Errorf("msm: cannot cluster zero points")
	}
	if k <= 0 {
		return nil, fmt.Errorf("msm: cluster count must be positive, got %d", k)
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("msm: cannot cluster %d points", n)
	}
	if k > n {
		k = n
	}
	s.dist2 = slices.Grow(s.dist2[:0], n)[:n]
	s.assign = slices.Grow(s.assign[:0], n)[:n]
	s.rad2, s.far = s.rad2[:0], s.far[:0]
	dist2, assign := s.dist2, s.assign
	point := func(i int) []float64 { return s.data[i*dim : (i+1)*dim : (i+1)*dim] }

	c := &Clustering{Assignments: assign, dim: dim, flat: make([]float64, 0, k*dim)}
	// promote makes point i the next center and returns its coordinates.
	promote := func(i int) []float64 {
		j := len(c.Centers)
		c.flat = append(c.flat, point(i)...)
		ctr := c.flat[j*dim : (j+1)*dim : (j+1)*dim]
		c.Centers = append(c.Centers, ctr)
		c.CenterSource = append(c.CenterSource, i)
		if j == len(s.members) {
			s.members = append(s.members, nil)
		}
		return ctr
	}

	// The first center takes every point.
	ctr := promote(rng.New(seed).Intn(n))
	list := slices.Grow(s.members[0][:0], n)
	maxD, arg := -1.0, -1
	for i := 0; i < n; i++ {
		d := sqDist(point(i), ctr)
		dist2[i], assign[i] = d, 0
		list = append(list, int32(i))
		if d > maxD {
			maxD, arg = d, i
		}
	}
	s.members[0] = list
	s.rad2, s.far = append(s.rad2, maxD), append(s.far, arg)
	evals := n

	for {
		// The farthest point from all current centers is the farthest member
		// of the widest cluster (the lowest index on a tie, as a scan over
		// the points in order would find).
		best, bestD := -1, -1.0
		for a, d := range s.rad2 {
			if d > bestD || (d == bestD && s.far[a] < best) {
				best, bestD = s.far[a], d
			}
		}
		if len(c.Centers) == k || bestD == 0 { // bestD == 0: every remaining point duplicates a center
			c.Radius, c.DistEvals = math.Sqrt(bestD), evals
			return c, nil
		}
		j := len(c.Centers)
		ctr = promote(best)
		evals += j
		moved := s.moved[:0]
		newD, newArg := -1.0, -1
		for a := 0; a < j; a++ {
			// Only members farther than reach from center a can be nearer
			// to the new one; a cluster that has none is not visited.
			reach := sqDist(c.Centers[a], ctr) / pruneFactor
			if s.rad2[a] <= reach {
				continue
			}
			// One pass over the members: measure those beyond reach, move
			// the captured ones out, close the gaps they leave, and find
			// the farthest of those that stay.
			list, w := s.members[a], 0
			maxD, arg = -1.0, -1
			for _, i32 := range list {
				i := int(i32)
				d0 := dist2[i]
				if d0 > reach {
					evals++
					if d := sqDist(point(i), ctr); d < d0 {
						dist2[i], assign[i] = d, j
						moved = append(moved, i32)
						if d > newD || (d == newD && i < newArg) {
							newD, newArg = d, i
						}
						continue
					}
				}
				list[w] = i32
				w++
				if d0 > maxD || (d0 == maxD && i < arg) {
					maxD, arg = d0, i
				}
			}
			s.members[a], s.rad2[a], s.far[a] = list[:w], maxD, arg
		}
		s.members[j], s.moved = append(s.members[j][:0], moved...), moved
		s.rad2, s.far = append(s.rad2, newD), append(s.far, newArg)
	}
}

// K returns the number of clusters.
func (c *Clustering) K() int { return len(c.Centers) }

// Assign returns the index of the nearest center to p.
func (c *Clustering) Assign(p []float64) int {
	c.Pack()
	if c.flat != nil && len(p) == c.dim {
		return nearestFlat(c.flat, c.dim, p)
	}
	best, bestD := 0, math.Inf(1)
	for i, ctr := range c.Centers {
		if d := sqDist(p, ctr); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// AssignAll discretises a trajectory of conformations into state indices.
func (c *Clustering) AssignAll(points [][]float64) []int {
	return c.AssignAllInto(nil, points)
}

// AssignAllInto is AssignAll with a reusable output buffer: dst is grown
// only when its capacity is short, so a caller discretising the same
// trajectories every round allocates nothing in steady state. Returns the
// filled slice (which aliases dst when it fit).
func (c *Clustering) AssignAllInto(dst []int, points [][]float64) []int {
	if cap(dst) < len(points) {
		dst = make([]int, len(points))
	}
	dst = dst[:len(points)]
	c.Pack()
	for i, p := range points {
		if c.flat != nil && len(p) == c.dim {
			dst[i] = nearestFlat(c.flat, c.dim, p)
		} else {
			dst[i] = c.Assign(p)
		}
	}
	return dst
}

// MaxRadius returns the largest distance from any of the given points to its
// assigned center — the k-centers quality metric.
func (c *Clustering) MaxRadius(points [][]float64) float64 {
	worst := 0.0
	for _, p := range points {
		d := math.Inf(1)
		for _, ctr := range c.Centers {
			if d2 := sqDist(p, ctr); d2 < d {
				d = d2
			}
		}
		if d > worst {
			worst = d
		}
	}
	return math.Sqrt(worst)
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
