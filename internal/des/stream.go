// Streaming-analysis scenario: a discrete-event comparison of the two ways
// the MSM controller can rebuild its model as an adaptive campaign grows.
// The batch path reclusters every frame ever produced at each analysis
// round (one pruned k-centers pass, which yields the assignment as well, +
// transition recounting), so its cost grows with campaign length; the
// incremental path feeds only the round's new frames through the mini-batch
// StreamClusterer, so its cost is flat. Both paths here run the REAL
// internal/msm code on the same deterministic trajectories — the scenario
// measures what the controller would actually pay at each generation
// barrier, in both distance evaluations (deterministic, what the tests
// assert on) and measured wall time (reported, asserted with generous
// factors).
package des

import (
	"fmt"
	"time"

	"copernicus/internal/msm"
	"copernicus/internal/rng"
)

// StreamAnalysisParams configures the streaming-analysis scenario.
type StreamAnalysisParams struct {
	Trajectories   int    // parallel trajectories in the ensemble
	FramesPerRound int    // frames each trajectory produces per round
	Rounds         int    // analysis rounds (generation barriers)
	Clusters       int    // microstate budget K
	Lag            int    // transition-counting lag, in frames
	Dim            int    // conformation dimensionality
	Seed           uint64 // drives the synthetic random-walk ensemble
}

// DefaultStreamAnalysisParams sizes the scenario like a long adaptive
// campaign: by the final round the batch path is reclustering ~58k frames
// while the incremental path still touches only ~3k.
func DefaultStreamAnalysisParams() StreamAnalysisParams {
	return StreamAnalysisParams{
		Trajectories:   48,
		FramesPerRound: 60,
		Rounds:         20,
		Clusters:       120,
		Lag:            4,
		Dim:            3,
		Seed:           1,
	}
}

func (p *StreamAnalysisParams) validate() error {
	if p.Trajectories < 1 || p.FramesPerRound < 1 || p.Rounds < 1 {
		return fmt.Errorf("des: trajectory/frame/round counts must be positive")
	}
	if p.Clusters < 1 || p.Lag < 1 || p.Dim < 1 {
		return fmt.Errorf("des: cluster/lag/dim must be positive")
	}
	return nil
}

// StreamRound reports one analysis round of the scenario.
type StreamRound struct {
	Round       int // 1-based
	NewFrames   int // frames produced this round (all trajectories)
	TotalFrames int // frames accumulated so far

	// Analysis cost in center-distance evaluations — the unit both pipelines
	// are built from. Batch is what k-centers actually evaluated over every
	// accumulated frame (triangle-inequality pruning leaves a fraction of
	// frames × centers; the assignment costs nothing more); incremental
	// pays one assignment-and-nudge pass over only the new frames.
	BatchUnits       float64
	IncrementalUnits float64

	// Measured wall time of the real internal/msm code for this round.
	BatchSeconds       float64
	IncrementalSeconds float64
}

// StreamAnalysisResult is the full scenario outcome.
type StreamAnalysisResult struct {
	Rounds                  []StreamRound
	BatchTotalSeconds       float64
	IncrementalTotalSeconds float64
	BatchTotalUnits         float64
	IncrementalTotalUnits   float64
}

// UnitSpeedup returns the modelled batch/incremental cost ratio at the
// given 1-based round.
func (r *StreamAnalysisResult) UnitSpeedup(round int) float64 {
	sr := r.Rounds[round-1]
	if sr.IncrementalUnits <= 0 {
		return 0
	}
	return sr.BatchUnits / sr.IncrementalUnits
}

// MeasuredSpeedup returns the measured batch/incremental wall-time ratio at
// the given 1-based round.
func (r *StreamAnalysisResult) MeasuredSpeedup(round int) float64 {
	sr := r.Rounds[round-1]
	if sr.IncrementalSeconds <= 0 {
		return 0
	}
	return sr.BatchSeconds / sr.IncrementalSeconds
}

// SimulateStreamAnalysis grows a deterministic random-walk ensemble round
// by round and, at every round boundary, runs both analysis paths on the
// real internal/msm code: a full batch recluster of everything so far, and
// an incremental mini-batch update over only the new frames.
func SimulateStreamAnalysis(p StreamAnalysisParams) (*StreamAnalysisResult, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	stream, err := msm.NewStreamClusterer(msm.StreamConfig{K: p.Clusters, Lag: p.Lag})
	if err != nil {
		return nil, err
	}
	r := rng.New(p.Seed)
	// Walker positions persist across rounds so each trajectory is one
	// continuous pseudo-Brownian path, like a real extended trajectory.
	pos := make([][]float64, p.Trajectories)
	ids := make([]string, p.Trajectories)
	for i := range pos {
		pos[i] = make([]float64, p.Dim)
		for d := range pos[i] {
			pos[i][d] = 4 * r.Norm()
		}
		ids[i] = fmt.Sprintf("t%03d", i)
	}
	trajs := make([][][]float64, p.Trajectories) // full history for the batch path

	res := &StreamAnalysisResult{}
	for round := 1; round <= p.Rounds; round++ {
		// Produce this round's frames.
		fresh := make([][][]float64, p.Trajectories)
		for i := range pos {
			for f := 0; f < p.FramesPerRound; f++ {
				for d := range pos[i] {
					pos[i][d] += 0.5 * r.Norm()
				}
				frame := append([]float64(nil), pos[i]...)
				fresh[i] = append(fresh[i], frame)
				trajs[i] = append(trajs[i], frame)
			}
		}
		newFrames := p.Trajectories * p.FramesPerRound
		totalFrames := newFrames * round

		// Incremental path: only the new frames pass through the stream.
		t0 := time.Now()
		for i := range fresh {
			for _, frame := range fresh[i] {
				if _, err := stream.Observe(ids[i], frame); err != nil {
					return nil, err
				}
			}
		}
		incSeconds := time.Since(t0).Seconds()

		// Batch path: recluster and recount everything accumulated so far,
		// exactly what the fixed-cadence controller does at each barrier.
		t0 = time.Now()
		var all [][]float64
		for i := range trajs {
			all = append(all, trajs[i]...)
		}
		clu, err := msm.KCenters(all, p.Clusters, p.Seed)
		if err != nil {
			return nil, err
		}
		dtrajs, rest := make([][]int, p.Trajectories), clu.Assignments
		for i := range trajs {
			dtrajs[i], rest = rest[:len(trajs[i])], rest[len(trajs[i]):]
		}
		if _, err := msm.CountTransitions(dtrajs, clu.K(), p.Lag); err != nil {
			return nil, err
		}
		batchSeconds := time.Since(t0).Seconds()

		sr := StreamRound{
			Round:       round,
			NewFrames:   newFrames,
			TotalFrames: totalFrames,
			// The distances k-centers evaluated over every frame vs one
			// assignment-and-nudge pass over the new frames.
			BatchUnits:         float64(clu.DistEvals),
			IncrementalUnits:   float64(newFrames) * float64(stream.K()),
			BatchSeconds:       batchSeconds,
			IncrementalSeconds: incSeconds,
		}
		res.Rounds = append(res.Rounds, sr)
		res.BatchTotalSeconds += batchSeconds
		res.IncrementalTotalSeconds += incSeconds
		res.BatchTotalUnits += sr.BatchUnits
		res.IncrementalTotalUnits += sr.IncrementalUnits
	}
	return res, nil
}
