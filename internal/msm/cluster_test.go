package msm

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"copernicus/internal/rng"
)

// referenceKCenters is the unpruned greedy k-centers the package shipped
// before the assignment was fused in and the triangle-inequality pruning
// added: every point against every new center, then (in the tests) a full
// AssignAll. It is the oracle the pruned KCenters must match bit for bit.
func referenceKCenters(points [][]float64, k int, seed uint64) (centerSource []int, dist2 []float64) {
	n := len(points)
	if k > n {
		k = n
	}
	first := rng.New(seed).Intn(n)
	centerSource = []int{first}
	dist2 = make([]float64, n)
	for i := range dist2 {
		dist2[i] = sqDist(points[i], points[first])
	}
	for len(centerSource) < k {
		best, bestD := -1, -1.0
		for i, d := range dist2 {
			if d > bestD {
				best, bestD = i, d
			}
		}
		if bestD == 0 {
			break
		}
		centerSource = append(centerSource, best)
		for i := range dist2 {
			if d := sqDist(points[i], points[best]); d < dist2[i] {
				dist2[i] = d
			}
		}
	}
	return centerSource, dist2
}

// checkAgainstReference asserts everything the fused, pruned KCenters
// promises: the reference's centers, AssignAll's assignments, and the
// retained radius.
func checkAgainstReference(t *testing.T, name string, points [][]float64, k int, seed uint64) {
	t.Helper()
	clu, err := KCenters(points, k, seed)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	wantSrc, wantDist2 := referenceKCenters(points, k, seed)
	if !slices.Equal(clu.CenterSource, wantSrc) {
		t.Fatalf("%s: CenterSource = %v, reference %v", name, clu.CenterSource, wantSrc)
	}
	for j, src := range clu.CenterSource {
		if !slices.Equal(clu.Centers[j], points[src]) {
			t.Fatalf("%s: center %d = %v, its source point %d is %v", name, j, clu.Centers[j], src, points[src])
		}
	}
	// AssignAll on a clustering that never saw KCenters' bookkeeping.
	plain := &Clustering{Centers: clu.Centers}
	if want := plain.AssignAll(points); !slices.Equal(clu.Assignments, want) {
		for i := range want {
			if clu.Assignments[i] != want[i] {
				t.Fatalf("%s: Assignments[%d] = %d, AssignAll gives %d (of %d points, k=%d)",
					name, i, clu.Assignments[i], want[i], len(points), k)
			}
		}
		t.Fatalf("%s: Assignments has %d entries, want %d", name, len(clu.Assignments), len(want))
	}
	if want := math.Sqrt(slices.Max(wantDist2)); clu.Radius != want || clu.MaxRadius(points) != want {
		t.Fatalf("%s: Radius = %v, MaxRadius = %v, sqrt of the largest retained dist2 = %v",
			name, clu.Radius, clu.MaxRadius(points), want)
	}
	if unpruned := len(points) * clu.K(); clu.DistEvals > unpruned+clu.K()*clu.K() {
		t.Fatalf("%s: %d distance evaluations, the unpruned algorithm makes %d", name, clu.DistEvals, unpruned)
	}
}

// TestKCentersMatchesUnprunedReference is the exactness property: over
// random point sets of every awkward shape — low and higher dimension,
// duplicated points, k at and beyond n, a single repeated point, lattices
// full of exact distance ties — pruning and fusing change nothing.
func TestKCentersMatchesUnprunedReference(t *testing.T) {
	r := rng.New(20260926)
	for trial := 0; trial < 300; trial++ {
		dim := 2 + r.Intn(7)
		n := 1 + r.Intn(400)
		k := 1 + r.Intn(60)
		seed := r.Uint64()
		points := make([][]float64, n)
		shape := trial % 5
		for i := range points {
			p := make([]float64, dim)
			switch shape {
			case 0: // a Gaussian cloud
				for d := range p {
					p[d] = r.Norm()
				}
			case 1: // clustered blobs, like basin-hopping trajectories
				for d := range p {
					p[d] = 6*float64((i+d)%3) + 0.3*r.Norm()
				}
			case 2: // a small integer lattice: exact ties everywhere
				for d := range p {
					p[d] = float64(r.Intn(3))
				}
			case 3: // heavy duplication: a few distinct points, many copies
				if i >= 5 {
					copy(p, points[r.Intn(5)])
				} else {
					for d := range p {
						p[d] = r.Norm()
					}
				}
			case 4: // all identical
				for d := range p {
					p[d] = 1.5
				}
			}
			points[i] = p
		}
		if trial%7 == 0 {
			k = n + r.Intn(3) // k at and beyond n
		}
		checkAgainstReference(t, fmt.Sprintf("trial %d (shape %d, n=%d, dim=%d, k=%d)", trial, shape, n, dim, k), points, k, seed)
	}
}

// TestKCentersMatchesReferenceAtScale runs the same oracle once on a set the
// size of a campaign's, where cluster-level pruning does most of the work.
func TestKCentersMatchesReferenceAtScale(t *testing.T) {
	points := walkEnsemble(40, 500, 3, 11)
	for _, k := range []int{80, 400} {
		checkAgainstReference(t, fmt.Sprintf("k=%d", k), points, k, 3)
	}
}

// TestPointSetGrowsAcrossCalls is the controller's usage: cluster, append,
// cluster again on the same set. Reused work buffers must not leak one
// call's state into the next.
func TestPointSetGrowsAcrossCalls(t *testing.T) {
	points := walkEnsemble(12, 200, 3, 5)
	var set PointSet
	for _, upto := range []int{300, 301, 1200, len(points)} {
		if err := set.Append(points[set.Len():upto]...); err != nil {
			t.Fatal(err)
		}
		got, err := set.KCenters(50, uint64(upto))
		if err != nil {
			t.Fatal(err)
		}
		want, err := KCenters(points[:upto], 50, uint64(upto))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.CenterSource, want.CenterSource) || !slices.Equal(got.Assignments, want.Assignments) || got.Radius != want.Radius {
			t.Fatalf("at %d points the reused set disagrees with a fresh one", upto)
		}
	}
	if err := set.Append([]float64{1, 2}); err == nil {
		t.Error("a 2-d point was appended to a 3-d set")
	}
	if set.Len() != len(points) {
		t.Errorf("a rejected Append changed the set: %d points, want %d", set.Len(), len(points))
	}
}

// walkEnsemble is a deterministic ensemble of random walks in a soft box:
// trajectories × frames points, trajectory after trajectory, correlated in
// time like real frames.
func walkEnsemble(trajs, frames, dim int, seed uint64) [][]float64 {
	r := rng.New(seed)
	points := make([][]float64, 0, trajs*frames)
	for t := 0; t < trajs; t++ {
		pos := make([]float64, dim)
		for d := range pos {
			pos[d] = 4 * r.Norm()
		}
		for f := 0; f < frames; f++ {
			for d := range pos {
				pos[d] += 0.5*r.Norm() - 0.01*pos[d]
			}
			points = append(points, append([]float64(nil), pos...))
		}
	}
	return points
}

// BenchmarkKCenters is the generation barrier at the size the benchmark
// campaign ends at (160 000 frames in 3-d), with the benchmark's cluster
// budget and the controller's default, on a set whose work buffers an
// earlier barrier has sized. evals/point is the number of squared distances
// per input point; the unpruned algorithm's is k.
func BenchmarkKCenters(b *testing.B) {
	points := walkEnsemble(160, 1000, 3, 1)
	var set PointSet
	if err := set.Append(points...); err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{80, 1000} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			if _, err := set.KCenters(k, 0); err != nil { // size the work buffers: the barrier's steady state
				b.Fatal(err)
			}
			b.ResetTimer()
			evals := 0
			for i := 0; i < b.N; i++ {
				clu, err := set.KCenters(k, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				evals += clu.DistEvals
			}
			b.ReportMetric(float64(evals)/float64(b.N)/float64(len(points)), "evals/point")
		})
	}
}
