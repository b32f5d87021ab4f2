// Streaming, incremental MSM construction: an online counterpart to
// KCenters + AssignAll + CountTransitions that digests frames as they
// arrive, so an adaptive controller's per-round analysis cost is O(new
// frames) instead of O(all frames sampled so far).
//
// The clusterer follows the mini-batch k-means family used by streaming
// MSM pipelines (HTMD's MiniBatchKMeans, the DeepDriveMD analysis loop):
// while fewer than K centers exist, a sufficiently novel frame founds a new
// center; afterwards each frame nudges its nearest center toward itself
// with a 1/n learning rate. Transition counting keeps only a lag-length
// ring of assignments per trajectory, so memory is bounded by
// K·dim + trajectories·lag regardless of campaign length.
package msm

import (
	"fmt"
	"sort"
)

// StreamConfig configures a StreamClusterer.
type StreamConfig struct {
	// K is the maximum number of centers (the microstate budget).
	K int
	// Lag is the transition-counting lag in frames.
	Lag int
	// MinDist is the minimum Euclidean distance from every existing center
	// at which a frame founds a new center while the budget lasts. 0 admits
	// any distinct frame, which front-loads the budget onto the first
	// basin explored; set it near the expected cluster radius.
	MinDist float64
}

func (c *StreamConfig) validate() error {
	if c.K < 2 {
		return fmt.Errorf("msm: stream clusterer needs at least two centers, got %d", c.K)
	}
	if c.Lag < 1 {
		return fmt.Errorf("msm: stream lag must be >= 1 frame, got %d", c.Lag)
	}
	if c.MinDist < 0 {
		return fmt.Errorf("msm: negative stream MinDist %g", c.MinDist)
	}
	return nil
}

// trajStream is one trajectory's bounded assignment memory: the ring holds
// the last Lag assignments so transitions at the lag can be counted without
// retaining the trajectory itself. n is the trajectory's frame watermark —
// how many frames it has contributed.
type trajStream struct {
	ring []int
	n    int
}

// StreamClusterer ingests frames one at a time, maintaining cluster
// centers, per-trajectory assignment watermarks and a lag-time transition
// count matrix incrementally. It is not safe for concurrent use; the MSM
// controller drives it under the project lock.
type StreamClusterer struct {
	cfg    StreamConfig
	dim    int       // feature dimension, fixed by the first frame
	flat   []float64 // packed centers, row-major (len = k*dim)
	weight []float64 // frames absorbed per center (mini-batch learning rate)
	frozen bool
	counts *Counts
	trajs  map[string]*trajStream
	frames int // total frames observed
}

// NewStreamClusterer returns an empty incremental clusterer.
func NewStreamClusterer(cfg StreamConfig) (*StreamClusterer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &StreamClusterer{
		cfg:    cfg,
		counts: NewCounts(cfg.K),
		trajs:  make(map[string]*trajStream),
	}, nil
}

// FrozenStream returns a clusterer pre-seeded with the given centers and
// frozen: it never founds or moves a center, so its assignments match
// Clustering{Centers: centers}.Assign frame for frame. The equivalence
// property tests and A/B harnesses are built on it.
func FrozenStream(centers [][]float64, lag int) (*StreamClusterer, error) {
	if len(centers) == 0 {
		return nil, fmt.Errorf("msm: frozen stream needs at least one center")
	}
	k := len(centers)
	if k < 2 {
		k = 2 // satisfy the config floor; the extra state stays unvisited
	}
	s, err := NewStreamClusterer(StreamConfig{K: k, Lag: lag})
	if err != nil {
		return nil, err
	}
	s.dim = len(centers[0])
	for _, ctr := range centers {
		if len(ctr) != s.dim {
			return nil, fmt.Errorf("msm: frozen stream centers have mixed dimensions")
		}
		s.flat = append(s.flat, ctr...)
		s.weight = append(s.weight, 1)
	}
	s.frozen = true
	return s, nil
}

// K returns the number of centers allocated so far (grows toward cfg.K).
func (s *StreamClusterer) K() int {
	if s.dim == 0 {
		return 0
	}
	return len(s.flat) / s.dim
}

// Frames returns the total number of frames observed.
func (s *StreamClusterer) Frames() int { return s.frames }

// Counts returns the live transition-count matrix over the full K-state
// budget (unallocated states have empty rows). The caller must treat it as
// read-only; TransitionMatrix and StateUncertainty never mutate it.
func (s *StreamClusterer) Counts() *Counts { return s.counts }

// Centers returns a copy of the current centers. With mini-batch updates
// enabled these are running means, not sampled conformations — but each
// starts at a real frame and moves toward its cluster's centroid, so they
// remain valid restart coordinates for adaptive respawning.
func (s *StreamClusterer) Centers() [][]float64 {
	k := s.K()
	out := make([][]float64, k)
	for i := 0; i < k; i++ {
		out[i] = append([]float64(nil), s.flat[i*s.dim:(i+1)*s.dim]...)
	}
	return out
}

// Observe ingests one frame of the named trajectory, in trajectory frame
// order, and returns its state assignment. Frames of different trajectories
// may interleave arbitrarily — transition counting is per trajectory.
func (s *StreamClusterer) Observe(traj string, p []float64) (int, error) {
	if s.dim == 0 {
		if len(p) == 0 {
			return 0, fmt.Errorf("msm: stream frame with zero dimensions")
		}
		s.dim = len(p)
	}
	if len(p) != s.dim {
		return 0, fmt.Errorf("msm: stream frame has dimension %d, want %d", len(p), s.dim)
	}
	a := s.assignAndUpdate(p)
	s.frames++

	ts := s.trajs[traj]
	if ts == nil {
		ts = &trajStream{ring: make([]int, s.cfg.Lag)}
		s.trajs[traj] = ts
	}
	slot := ts.n % s.cfg.Lag
	if ts.n >= s.cfg.Lag {
		s.counts.Add(ts.ring[slot], a, 1)
	}
	ts.ring[slot] = a
	ts.n++
	return a, nil
}

// assignAndUpdate finds the nearest center (first-wins tie-breaking, same
// as Clustering.Assign), founding a new one or applying the mini-batch
// update as the mode dictates.
func (s *StreamClusterer) assignAndUpdate(p []float64) int {
	k := s.K()
	if k == 0 {
		return s.addCenter(p)
	}
	best, bestD := 0, -1.0
	for i, base := 0, 0; base < len(s.flat); i, base = i+1, base+s.dim {
		d := 0.0
		row := s.flat[base : base+s.dim : base+s.dim]
		for j, pj := range p {
			dj := pj - row[j]
			d += dj * dj
		}
		if bestD < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	if s.frozen {
		return best
	}
	if k < s.cfg.K && bestD > s.cfg.MinDist*s.cfg.MinDist {
		return s.addCenter(p)
	}
	// Mini-batch k-means step: the center absorbs the frame with learning
	// rate 1/n(center), converging on its cluster's running mean.
	s.weight[best]++
	eta := 1 / s.weight[best]
	row := s.flat[best*s.dim : (best+1)*s.dim]
	for j, pj := range p {
		row[j] += eta * (pj - row[j])
	}
	return best
}

func (s *StreamClusterer) addCenter(p []float64) int {
	s.flat = append(s.flat, p...)
	s.weight = append(s.weight, 1)
	return len(s.weight) - 1
}

// DropTrajectory releases a terminated trajectory's assignment ring. Its
// counted transitions remain; only the bounded per-trajectory memory is
// reclaimed, keeping the live footprint proportional to active
// trajectories.
func (s *StreamClusterer) DropTrajectory(traj string) { delete(s.trajs, traj) }

// --- serialization (for controller.Durable snapshots) ---

// streamTrajState mirrors trajStream for gob.
type streamTrajState struct {
	ID   string
	Ring []int
	N    int
}

// StreamState is the gob-portable image of a StreamClusterer, embedded in
// the MSM controller's durable snapshot so a restarted or promoted server
// resumes the stream exactly where the WAL left it.
type StreamState struct {
	Cfg    StreamConfig
	Dim    int
	Flat   []float64
	Weight []float64
	Frozen bool
	Frames int
	// Counts as (i, j, weight) triplets, sorted for stable encodings.
	CountI []int
	CountJ []int
	CountW []float64
	Trajs  []streamTrajState
}

// State captures the clusterer for serialization.
func (s *StreamClusterer) State() StreamState {
	st := StreamState{
		Cfg:    s.cfg,
		Dim:    s.dim,
		Flat:   append([]float64(nil), s.flat...),
		Weight: append([]float64(nil), s.weight...),
		Frozen: s.frozen,
		Frames: s.frames,
	}
	for i := 0; i < s.counts.N(); i++ {
		row := s.counts.rows[i]
		cols := make([]int, 0, len(row))
		for j := range row {
			cols = append(cols, j)
		}
		sort.Ints(cols)
		for _, j := range cols {
			st.CountI = append(st.CountI, i)
			st.CountJ = append(st.CountJ, j)
			st.CountW = append(st.CountW, row[j])
		}
	}
	ids := make([]string, 0, len(s.trajs))
	for id := range s.trajs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		ts := s.trajs[id]
		st.Trajs = append(st.Trajs, streamTrajState{
			ID: id, Ring: append([]int(nil), ts.ring...), N: ts.n,
		})
	}
	return st
}

// RestoreStream rebuilds a clusterer from a captured state.
func RestoreStream(st StreamState) (*StreamClusterer, error) {
	s, err := NewStreamClusterer(st.Cfg)
	if err != nil {
		return nil, err
	}
	s.dim = st.Dim
	s.flat = append([]float64(nil), st.Flat...)
	s.weight = append([]float64(nil), st.Weight...)
	s.frozen = st.Frozen
	s.frames = st.Frames
	if len(st.CountI) != len(st.CountJ) || len(st.CountI) != len(st.CountW) {
		return nil, fmt.Errorf("msm: stream state has ragged count triplets")
	}
	for n, i := range st.CountI {
		s.counts.Add(i, st.CountJ[n], st.CountW[n])
	}
	for _, ts := range st.Trajs {
		ring := append([]int(nil), ts.Ring...)
		if len(ring) != st.Cfg.Lag {
			return nil, fmt.Errorf("msm: stream state trajectory %q has ring length %d, want lag %d",
				ts.ID, len(ring), st.Cfg.Lag)
		}
		s.trajs[ts.ID] = &trajStream{ring: ring, n: ts.N}
	}
	return s, nil
}
