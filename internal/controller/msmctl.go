package controller

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"copernicus/internal/engines"
	"copernicus/internal/landscape"
	"copernicus/internal/msm"
	"copernicus/internal/obs"
	"copernicus/internal/stats"
	"copernicus/internal/wire"
)

// MSMControllerName is the registry name of the MSM plugin.
const MSMControllerName = "msm"

// MSMParams configures an adaptive Markov-State-Model sampling project —
// the §3 protocol: N starting conformations × tasks each, 50-ns segments,
// periodic clustering, and adaptive respawning from under-sampled states.
type MSMParams struct {
	Landscape landscape.Params

	NStarts       int     // distinct unfolded starting conformations (paper: 9)
	TasksPerStart int     // trajectories per start (paper: 25)
	SegmentNs     float64 // command length between reports (paper: 50 ns)
	FrameNs       float64 // snapshot separation for clustering (paper: 1.5 ns)
	// SegmentsPerGen is how many 50-ns segments must finish before the
	// controller clusters and respawns; 0 defaults to two rounds of the
	// full trajectory set, reflecting the extend-on-finish behaviour.
	SegmentsPerGen int
	Generations    int // clustering rounds (paper: 8–9)

	Clusters int     // microstate count (paper: 10,000; scale to taste)
	LagNs    float64 // MSM lag time (paper: 25 ns)

	Weighting msm.Weighting

	// PropagateNs is the Fig 4 horizon for the final population curve
	// (paper: 2 µs).
	PropagateNs float64

	// NearNativeRMSD is the strict Fig 3 success criterion in Å (the paper
	// celebrates 0.6–0.7 Å structures); 0 defaults to 0.7.
	NearNativeRMSD float64

	MinCores, MaxCores int
	Seed               uint64

	// Stream enables the incremental analysis pipeline: the controller
	// feeds each finished segment's frames, from its result, to a
	// mini-batch clusterer, and a generation triggers when the model's
	// state populations converge instead of after a fixed segment count
	// (SegmentsPerGen stays as the hard cap). Off by default so the batch
	// pipeline remains the A/B reference. All stream fields decode as zero
	// values from pre-streaming parameter blobs.
	Stream bool
	// StreamEveryNs is the interval at which workers flush frame chunks to
	// the project server while a segment runs (0 defaults to 5×FrameNs).
	// The server answers each chunk "ignored" and the controller takes the
	// frames from the result; the flush stays only while the benchmark
	// harness counts the chunks.
	StreamEveryNs float64
	// StreamMinDist is the mini-batch clusterer's novelty threshold for
	// founding new centers (0 admits any distinct frame).
	StreamMinDist float64
	// ConvergeTol is the total-variation distance between consecutive
	// state-population estimates below which a convergence check passes
	// (0 defaults to 0.02).
	ConvergeTol float64
	// ConvergeChecks is how many consecutive passing checks trigger the
	// generation step (0 defaults to 3).
	ConvergeChecks int
}

// DefaultMSMParams returns the paper's villin protocol scaled to reproduce
// on one machine: same trajectory counts and segment structure, fewer
// microstates (the 3-d surrogate needs far fewer than 10,000 clusters to
// resolve its basins).
func DefaultMSMParams() MSMParams {
	return MSMParams{
		Landscape:      landscape.DefaultParams(),
		NStarts:        9,
		TasksPerStart:  25,
		SegmentNs:      50,
		FrameNs:        1.5,
		SegmentsPerGen: 0, // default: 2 × NStarts × TasksPerStart
		Generations:    8,
		Clusters:       1000,
		LagNs:          25,
		Weighting:      msm.AdaptiveWeighting,
		PropagateNs:    2000,
		MinCores:       1,
		MaxCores:       1,
		Seed:           1,
	}
}

func (p *MSMParams) validate() error {
	if p.NStarts < 1 || p.TasksPerStart < 1 {
		return fmt.Errorf("msm controller: need at least one start and one task")
	}
	if p.SegmentNs <= 0 || p.FrameNs <= 0 || p.SegmentNs < p.FrameNs {
		return fmt.Errorf("msm controller: invalid segment/frame lengths (%g, %g)", p.SegmentNs, p.FrameNs)
	}
	if p.Generations < 1 {
		return fmt.Errorf("msm controller: need at least one generation")
	}
	if p.Clusters < 2 {
		return fmt.Errorf("msm controller: need at least two clusters")
	}
	if p.LagNs < p.FrameNs {
		return fmt.Errorf("msm controller: lag %g ns below frame interval %g ns", p.LagNs, p.FrameNs)
	}
	if p.SegmentsPerGen == 0 {
		p.SegmentsPerGen = 2 * p.NStarts * p.TasksPerStart
	}
	if p.MinCores == 0 {
		p.MinCores = 1
	}
	if p.MaxCores < p.MinCores {
		p.MaxCores = p.MinCores
	}
	if p.PropagateNs <= 0 {
		p.PropagateNs = 2000
	}
	if p.NearNativeRMSD <= 0 {
		p.NearNativeRMSD = 0.7
	}
	if p.Stream {
		if p.StreamEveryNs <= 0 {
			p.StreamEveryNs = 5 * p.FrameNs
		}
		if p.ConvergeTol <= 0 {
			p.ConvergeTol = 0.02
		}
		if p.ConvergeChecks <= 0 {
			p.ConvergeChecks = 3
		}
	}
	return nil
}

// GenerationStats summarises one clustering round — the rows behind
// Figs 2 and 3 and the generation log of §4.
type GenerationStats struct {
	Generation    int
	SegmentsDone  int
	FramesTotal   int
	SimulatedNs   float64 // cumulative trajectory-ns
	MinRMSD       float64 // best RMSD to native seen so far (Å)
	States        int     // clusters in the ergodic (largest connected) set
	TopStateRMSD  float64 // RMSD of the equilibrium-top cluster center (blind prediction)
	TopStatePi    float64 // its stationary probability
	FoldedPiFrac  float64 // stationary probability of the folded set
	SpawnedStates int     // distinct states new trajectories started from
	// AnalysisSeconds is the wall time of this generation's model-building
	// step alone (clustering + counting + stationary analysis) — the
	// quantity the streaming pipeline flattens. Decodes as 0 from
	// pre-streaming result blobs.
	AnalysisSeconds float64
	// Streamed marks generations built by the incremental pipeline.
	Streamed bool
}

// TrajRecord tracks one trajectory's per-generation progress for Fig 2.
type TrajRecord struct {
	ID         string
	BornGen    int
	GenMinRMSD []float64 // min RMSD within each generation it was alive
}

// MSMResult is the encoded project result.
type MSMResult struct {
	Params      MSMParams
	Generations []GenerationStats
	Trajs       []TrajRecord

	// Final-model analysis (Fig 4): fraction folded under Chapman–
	// Kolmogorov propagation from the unfolded start distribution.
	PopTimesNs []float64
	PopFolded  []float64
	THalfNs    float64
	THalfOK    bool

	// Ensemble RMSD vs trajectory time (Fig 5).
	RMSDTimesNs []float64
	RMSDMean    []float64
	RMSDStd     []float64

	// Markovianity sensitivity analysis (§3.2: "the system became
	// Markovian for lag times of 20 ns or greater"): slowest implied
	// timescale at each probe lag, plus a Chapman–Kolmogorov error at the
	// working lag.
	ProbeLagsNs       []float64
	ImpliedTimescales []float64
	CKError           float64

	// Blind native-state prediction (§3.2).
	FinalTopStateRMSD  float64
	FirstFoldedGen     int // generation at which min RMSD first ≤ folded cutoff (-1 if never)
	FirstNearNativeGen int // generation of the first ≤ NearNativeRMSD structure (-1 if never)
}

// msmTraj is one trajectory.
type msmTraj struct {
	ID      string
	BornGen int
	Times   []float64   // cumulative ns, frame-aligned
	Frames  [][]float64 // conformations at those times
	RMSD    []float64
	Current []float64 // latest conformation (segment end)
	Alive   bool
	GenMin  []float64 // min RMSD per generation alive
}

// msmState is the MSM controller's resumable state, saved as it is.
type msmState struct {
	P                  MSMParams // as submitted (validate's defaults filled in)
	Gen                int
	SegDone            int        // segments finished this generation
	Trajs              []*msmTraj // in creation order
	NextTraj           int        // == len(Trajs); numbers the trajectory IDs
	MinRMSD            float64
	FirstFoldedGen     int
	FirstNearNativeGen int
	Stats              []GenerationStats
	// SegTarget is how many segments the current generation still expects in
	// all: P.SegmentsPerGen at its start, one fewer for every command that
	// fails terminally.
	SegTarget int

	// Streaming-mode state (all zero when P.Stream is false, and when decoded
	// from a pre-streaming snapshot).
	Stream *msm.StreamState // the clusterer's image; set only inside SaveState and RestoreState
	// CmdStreamed and CmdBase are only ever read from a snapshot written
	// while frames still streamed in mid-command: a command's frame
	// watermark (one past the last frame already folded into its
	// trajectory) and its trajectory's time at submission. fold honours
	// them, so such a command's frames are folded once.
	CmdStreamed map[string]int
	CmdBase     map[string]float64
	// LastPops is the previous convergence check's normalized state
	// population vector; ConvOK counts consecutive passing checks;
	// Converged latches the generation trigger while stragglers drain.
	LastPops  []float64
	ConvOK    int
	Converged bool
}

// MSMController implements the adaptive-sampling plugin: a campaign whose
// slots are trajectory IDs and whose round is a generation.
type MSMController struct {
	campaign[string]
	st    msmState
	model *landscape.Model
	trajs map[string]*msmTraj // st.Trajs by ID
	// genStart marks when the current generation's cohort was launched, so
	// the generation step can report the generation's wall time.
	genStart time.Time
	// points is what the batch barrier clusters: the frames of the first
	// gathered trajectories of st.Trajs, trajectory after trajectory. Every
	// trajectory is terminated at its barrier and never grows again, so the
	// set is append-only and a barrier adds only its own cohort. Derived
	// state: it is not saved, and refills from the trajectories' frames at
	// the first barrier after a restore.
	points   msm.PointSet
	gathered int
	// stream is the live incremental model (nil when P.Stream is false).
	stream *msm.StreamClusterer
}

// NewMSMController returns an uninitialised MSM controller; Start must run
// before any other handler.
func NewMSMController() *MSMController {
	c := &MSMController{trajs: make(map[string]*msmTraj)}
	c.st.MinRMSD = math.Inf(1)
	c.st.FirstFoldedGen = -1
	c.st.FirstNearNativeGen = -1
	c.campaign = newCampaign[string](MSMControllerName, c, &c.st)
	return c
}

// lagFrames is the MSM lag time in frames (validate keeps it at least 1).
func (c *MSMController) lagFrames() int { return int(c.st.P.LagNs/c.st.P.FrameNs + 0.5) }

// Start implements Controller: decode parameters and launch the first
// generation from the unfolded starting conformations.
func (c *MSMController) Start(ctx Context, params []byte) error {
	p := &c.st.P
	if err := wire.Unmarshal(params, p); err != nil {
		return fmt.Errorf("msm controller: params: %w", err)
	}
	if err := p.validate(); err != nil {
		return err
	}
	var err error
	c.model, err = landscape.New(p.Landscape)
	if err != nil {
		return err
	}
	c.seed(p.Seed ^ ctx.Seed())
	c.st.SegTarget = p.SegmentsPerGen
	if p.Stream {
		c.stream, err = msm.NewStreamClusterer(msm.StreamConfig{
			K:       p.Clusters,
			Lag:     c.lagFrames(),
			MinDist: p.StreamMinDist,
		})
		if err != nil {
			return err
		}
	}

	for s := 0; s < p.NStarts; s++ {
		start := c.model.UnfoldedStart(s, p.Seed)
		for k := 0; k < p.TasksPerStart; k++ {
			if err := c.spawnTrajectory(ctx, start); err != nil {
				return err
			}
		}
	}
	c.genStart = time.Now()
	ctx.SetStatus(0, fmt.Sprintf("generation 0: %d trajectories launched", len(c.st.Trajs)))
	return nil
}

// SaveState implements Durable: the campaign's codec, after the live stream
// clusterer's image is taken into the state.
func (c *MSMController) SaveState() ([]byte, error) {
	if c.stream != nil {
		ss := c.stream.State()
		c.st.Stream = &ss
		defer func() { c.st.Stream = nil }() // a copy: do not keep it alive between snapshots
	}
	return c.campaign.SaveState()
}

// RestoreState implements Durable: the campaign's codec, then what the state
// does not carry — the landscape model, the live stream clusterer and the
// trajectory index — is rebuilt from it. The frame set stays empty and
// refills at the next barrier.
func (c *MSMController) RestoreState(data []byte) error {
	if err := c.campaign.RestoreState(data); err != nil {
		return err
	}
	st := &c.st
	if st.SegTarget > st.P.SegmentsPerGen {
		// A snapshot from before the live target moved out of the parameters
		// holds the two the other way round.
		st.SegTarget, st.P.SegmentsPerGen = st.P.SegmentsPerGen, st.SegTarget
	}
	var err error
	if c.model, err = landscape.New(st.P.Landscape); err != nil {
		return fmt.Errorf("msm controller: rebuilding landscape: %w", err)
	}
	if st.Stream != nil {
		if c.stream, err = msm.RestoreStream(*st.Stream); err != nil {
			return fmt.Errorf("msm controller: stream state: %w", err)
		}
		st.Stream = nil
	}
	for _, tr := range st.Trajs {
		c.trajs[tr.ID] = tr
	}
	c.genStart = time.Now() // wall-clock restarts; durations exclude downtime
	return nil
}

// spawnTrajectory creates a trajectory starting at x and submits its first
// segment.
func (c *MSMController) spawnTrajectory(ctx Context, x []float64) error {
	tr := &msmTraj{
		ID:      fmt.Sprintf("traj-%04d", c.st.NextTraj),
		BornGen: c.st.Gen,
		Current: append([]float64(nil), x...),
		Alive:   true,
	}
	c.st.NextTraj++
	c.trajs[tr.ID] = tr
	c.st.Trajs = append(c.st.Trajs, tr)
	// Frame 0 is the start conformation: the batch pipeline discretises it
	// with the rest, so the incremental model must see it too.
	if err := c.addFrame(tr, 0, append([]float64(nil), x...), c.model.RMSD(x)); err != nil {
		return err
	}
	return c.submitSegment(ctx, tr)
}

// submitSegment queues the next 50-ns command for a trajectory.
func (c *MSMController) submitSegment(ctx Context, tr *msmTraj) error {
	p := &c.st.P
	cmd := wire.CommandSpec{
		ID:       fmt.Sprintf("%s-seg%04d", tr.ID, c.led.NextCmd),
		Type:     engines.LandscapeName,
		MinCores: p.MinCores,
		MaxCores: p.MaxCores,
	}
	return c.submit(ctx, tr.ID, &cmd, &engines.LandscapePayload{
		Params:        p.Landscape,
		Start:         tr.Current,
		DurationNs:    p.SegmentNs,
		FrameNs:       p.FrameNs,
		Seed:          c.rand.Uint64(),
		StreamEveryNs: p.StreamEveryNs,
	})
}

// addFrame appends one frame to tr, updating the RMSD minima and the
// incremental model.
func (c *MSMController) addFrame(tr *msmTraj, t float64, frame []float64, rmsd float64) error {
	tr.Times = append(tr.Times, t)
	tr.Frames = append(tr.Frames, frame)
	tr.RMSD = append(tr.RMSD, rmsd)
	c.noteRMSD(tr, rmsd)
	if c.stream == nil {
		return nil
	}
	_, err := c.stream.Observe(tr.ID, frame)
	return err
}

// noteRMSD updates global and per-generation minima.
func (c *MSMController) noteRMSD(tr *msmTraj, r float64) {
	st := &c.st
	if r < st.MinRMSD {
		st.MinRMSD = r
	}
	if st.FirstFoldedGen < 0 && r <= st.P.Landscape.FoldedRMSD {
		st.FirstFoldedGen = st.Gen
	}
	if st.FirstNearNativeGen < 0 && r <= st.P.NearNativeRMSD {
		st.FirstNearNativeGen = st.Gen
	}
	for len(tr.GenMin) <= st.Gen-tr.BornGen {
		tr.GenMin = append(tr.GenMin, math.Inf(1))
	}
	if idx := st.Gen - tr.BornGen; idx >= 0 && r < tr.GenMin[idx] {
		tr.GenMin[idx] = r
	}
}

// fold implements plugin: fold the segment into its trajectory and extend
// the trajectory if the generation still needs segments.
func (c *MSMController) fold(ctx Context, trajID string, res *wire.CommandResult) error {
	st := &c.st
	tr := c.trajs[trajID]
	var out engines.LandscapeOutput
	if err := wire.Unmarshal(res.Output, &out); err != nil {
		return fmt.Errorf("msm controller: segment output: %w", err)
	}
	if len(out.Frames) < 2 {
		return fmt.Errorf("msm controller: segment for %s returned %d frames", trajID, len(out.Frames))
	}
	if len(out.Times) != len(out.Frames) || len(out.RMSD) != len(out.Frames) {
		return fmt.Errorf("msm controller: ragged segment output for %s", res.CommandID)
	}
	// Frame 0 duplicates the previous segment end; skip it when appending.
	// A restored watermark sits further in: the frames below it are in the
	// trajectory already, and the result's copy of them is bitwise the same
	// (deterministic engine), so skipping is lossless.
	w, base := 1, tr.Times[len(tr.Times)-1]
	if s, ok := st.CmdStreamed[res.CommandID]; ok {
		w, base = s, st.CmdBase[res.CommandID]
		delete(st.CmdStreamed, res.CommandID)
	}
	delete(st.CmdBase, res.CommandID)
	for i := w; i < len(out.Frames); i++ {
		if err := c.addFrame(tr, base+out.Times[i], out.Frames[i], out.RMSD[i]); err != nil {
			return err
		}
	}
	tr.Current = append(tr.Current[:0], out.Frames[len(out.Frames)-1]...)
	st.SegDone++

	if c.stream != nil {
		c.checkConvergence(ctx)
	}
	// Extend this trajectory if the generation still needs segments beyond
	// what is already running ("as soon as one trajectory finishes, the
	// controller extends the run by another 50 ns"). Once the target is met
	// or the populations converged, only stragglers drain.
	if !st.Converged && tr.Alive && st.SegDone+len(c.led.InFlight) < st.SegTarget {
		return c.submitSegment(ctx, tr)
	}
	return nil
}

// checkConvergence runs one population-convergence check: the normalized
// state-population vector (transition-count row sums) is compared to the
// previous check's by total-variation distance, and ConvergeChecks
// consecutive distances under ConvergeTol latch the generation trigger.
// Checks start only after a full cohort round of segments, so a generation
// can never fire off nearly-empty counts.
func (c *MSMController) checkConvergence(ctx Context) {
	st := &c.st
	if st.Converged {
		return
	}
	minSegs := st.P.NStarts * st.P.TasksPerStart
	if minSegs > st.SegTarget {
		minSegs = st.SegTarget
	}
	if st.SegDone < minSegs {
		return
	}
	counts := c.stream.Counts()
	total := counts.Total()
	if total <= 0 {
		return
	}
	pops := make([]float64, counts.N())
	for i := range pops {
		pops[i] = counts.RowSum(i) / total
	}
	if st.LastPops != nil {
		delta := 0.0
		for i, p := range pops {
			delta += math.Abs(p - st.LastPops[i])
		}
		delta /= 2
		if delta < st.P.ConvergeTol {
			st.ConvOK++
		} else {
			st.ConvOK = 0
		}
		if st.ConvOK >= st.P.ConvergeChecks {
			st.Converged = true
			ctx.Logf("msm: state populations converged (TV %.4g < %g for %d checks) after %d segments",
				delta, st.P.ConvergeTol, st.ConvOK, st.SegDone)
		}
	}
	st.LastPops = pops
}

// lost implements plugin: resubmission is handled by the server's
// retry/requeue machinery, so a terminal failure here aborts the trajectory
// but not the project (the generation target shrinks with it).
func (c *MSMController) lost(ctx Context, trajID string, cmd wire.CommandSpec, reason string) error {
	c.trajs[trajID].Alive = false
	delete(c.st.CmdStreamed, cmd.ID)
	delete(c.st.CmdBase, cmd.ID)
	ctx.Logf("msm: command %s failed terminally (%s); trajectory %s abandoned", cmd.ID, reason, trajID)
	c.st.SegTarget-- // one fewer segment can ever arrive this generation
	return nil
}

// round implements plugin: the §3.2 generation step. Build the transition
// matrix over everything sampled so far, record statistics, and either spawn
// the next generation or finish the project.
//
// In streaming mode the live mini-batch model already folded in every frame
// as it arrived, so the step works on the accumulated counts and centers
// directly — no reclustering, no rediscretisation — and its cost is O(K²) in
// the state budget, flat in campaign age, instead of the batch path's O(all
// frames). The final generation always clusters, even in streaming mode:
// finish() builds the publication figures from a full clustering of the
// retained trajectories, so the end-of-project analysis is identical in both
// modes.
func (c *MSMController) round(ctx Context) error {
	st, p := &c.st, &c.st.P
	if st.SegDone < st.SegTarget && !st.Converged {
		return nil // the cohort died short of its target: nothing more can arrive
	}
	analysisStart := time.Now()
	lastGen := st.Gen == p.Generations-1
	streamed := c.stream != nil && !lastGen
	var (
		counts  *msm.Counts
		centers [][]float64
		frames  int
		clu     *msm.Clustering
		dtrajs  [][]int
		err     error
	)
	if streamed {
		counts, centers, frames = c.stream.Counts(), c.stream.Centers(), c.stream.Frames()
	} else {
		if clu, dtrajs, err = c.cluster(); err != nil {
			return fmt.Errorf("msm controller: clustering: %w", err)
		}
		if counts, err = msm.CountTransitions(dtrajs, clu.K(), c.lagFrames()); err != nil {
			return fmt.Errorf("msm controller: counting: %w", err)
		}
		centers, frames = clu.Centers, c.points.Len()
	}
	// A streamed state budget may hold states no frame has visited yet: they
	// have no center, are never folded, and nothing restarts from them.
	rmsd := func(state int) float64 {
		if state >= len(centers) {
			return math.Inf(1)
		}
		return c.model.RMSD(centers[state])
	}
	// Row-normalised MLE (not symmetrised): each row is estimated
	// conditional on the state, so the stationary distribution approximates
	// equilibrium even though adaptive sampling deliberately distributes
	// trajectory starts non-Boltzmann. Symmetrising would make the
	// stationary vector mirror the sampling distribution instead.
	tm := counts.TransitionMatrix(0)
	tm.Lag = p.LagNs
	lcs := tm.LargestConnectedSet()
	rt, mapping := tm.Restrict(lcs)
	rt.Lag = p.LagNs

	// Stationary analysis on the ergodic subset.
	topLocal, topPi := rt.EquilibriumTopState()
	pi := rt.StationaryDistribution(1e-12, 10000)
	foldedPi := 0.0
	for local, orig := range mapping {
		if rmsd(orig) <= p.Landscape.FoldedRMSD {
			foldedPi += pi[local]
		}
	}
	gs := GenerationStats{
		Generation:      st.Gen,
		SegmentsDone:    st.SegDone,
		FramesTotal:     frames,
		SimulatedNs:     c.totalNs(),
		MinRMSD:         st.MinRMSD,
		States:          len(lcs),
		TopStateRMSD:    rmsd(mapping[topLocal]),
		TopStatePi:      topPi,
		FoldedPiFrac:    foldedPi,
		AnalysisSeconds: time.Since(analysisStart).Seconds(),
		Streamed:        streamed,
	}
	// Adaptive (or even) respawn counts for the next generation, if any.
	total := p.NStarts * p.TasksPerStart
	var spawn map[int]int
	if !lastGen {
		spawn, err = msm.SpawnCounts(p.Weighting, lcs, msm.StateUncertainty(counts), total, p.Seed^uint64(st.Gen+1)*0x9E37)
		if err != nil {
			return fmt.Errorf("msm controller: spawning: %w", err)
		}
	}
	gs.SpawnedStates = len(spawn)
	st.Stats = append(st.Stats, gs)
	c.observeGeneration(ctx, gs)
	if lastGen {
		ctx.SetStatus(st.Gen, "final analysis")
		return c.finish(ctx, clu, dtrajs, rt, mapping)
	}

	// Terminate old trajectories ("simulations in well-explored regions
	// terminated"), releasing their bounded assignment rings in the stream,
	// and start the new cohort from cluster representatives.
	for _, tr := range st.Trajs {
		tr.Alive = false
		if c.stream != nil {
			c.stream.DropTrajectory(tr.ID)
		}
	}
	st.Gen++
	st.SegDone = 0
	st.SegTarget = p.SegmentsPerGen
	st.Converged, st.ConvOK, st.LastPops = false, 0, nil
	states := make([]int, 0, len(spawn))
	for s := range spawn {
		if s < len(centers) {
			states = append(states, s)
		}
	}
	sort.Ints(states)
	for _, s := range states {
		for k := 0; k < spawn[s]; k++ {
			if err := c.spawnTrajectory(ctx, centers[s]); err != nil {
				return err
			}
		}
	}
	note := ""
	if streamed {
		note = " (streamed)"
	}
	ctx.SetStatus(st.Gen, fmt.Sprintf("generation %d%s: spawned %d trajectories from %d states (min RMSD %.2f Å)",
		st.Gen, note, total, len(spawn), st.MinRMSD))
	return nil
}

// observeGeneration publishes the finished generation's duration, state
// count and spawn fan-out to the server's metrics registry and trace, then
// restarts the generation clock for the next cohort.
func (c *MSMController) observeGeneration(ctx Context, gs GenerationStats) {
	o := ctx.Obs()
	dur := time.Since(c.genStart)
	l := obs.L("project", ctx.ProjectName(), "controller", MSMControllerName)
	o.Metrics.Histogram("copernicus_generation_seconds",
		"Wall time of each adaptive-sampling generation.",
		obs.DefBuckets(), l).Observe(dur.Seconds())
	o.Metrics.Counter("copernicus_generations_total",
		"Adaptive-sampling generations completed.", l).Inc()
	o.Metrics.Gauge("copernicus_msm_states",
		"Markov states in the largest connected set at the latest generation.", l).
		Set(float64(gs.States))
	o.Metrics.Histogram("copernicus_msm_analysis_seconds",
		"Wall time of the per-generation model-building step alone (clustering, counting, stationary analysis).",
		obs.DefBuckets(), l).Observe(gs.AnalysisSeconds)
	o.Trace.Record(obs.Span{
		Stage:    obs.StageController,
		Project:  ctx.ProjectName(),
		Start:    c.genStart,
		Duration: dur,
		Attrs: map[string]string{
			"event":          "generation",
			"generation":     fmt.Sprint(gs.Generation),
			"states":         fmt.Sprint(gs.States),
			"spawned_states": fmt.Sprint(gs.SpawnedStates),
			"frames":         fmt.Sprint(gs.FramesTotal),
			"analysis_s":     strconv.FormatFloat(gs.AnalysisSeconds, 'g', 4, 64),
		},
	})
	c.genStart = time.Now()
}

// cluster is the barrier's one pass over the frames: it appends the
// trajectories created since the last barrier to c.points (creation order ×
// time order), runs k-centers over the whole set, and cuts the assignment
// k-centers already holds into one state sequence per trajectory. The
// sequences alias c.points' work buffer and are good until the next call.
func (c *MSMController) cluster() (*msm.Clustering, [][]int, error) {
	trajs := c.st.Trajs
	for ; c.gathered < len(trajs); c.gathered++ {
		if err := c.points.Append(trajs[c.gathered].Frames...); err != nil {
			return nil, nil, err
		}
	}
	clu, err := c.points.KCenters(c.st.P.Clusters, c.st.P.Seed+uint64(c.st.Gen))
	if err != nil {
		return nil, nil, err
	}
	dtrajs := make([][]int, len(trajs))
	rest := clu.Assignments
	for i, tr := range trajs {
		n := len(tr.Frames)
		dtrajs[i], rest = rest[:n:n], rest[n:]
	}
	return clu, dtrajs, nil
}

// totalNs sums simulated trajectory time.
func (c *MSMController) totalNs() float64 {
	t := 0.0
	for _, tr := range c.st.Trajs { // creation order: float addition is order-dependent
		if len(tr.Times) > 0 {
			t += tr.Times[len(tr.Times)-1]
		}
	}
	return t
}

// finish performs the final analysis (Figs 4 and 5) and completes the
// project.
func (c *MSMController) finish(ctx Context, clu *msm.Clustering, dtrajs [][]int, rt *msm.TransitionMatrix, mapping []int) error {
	st, p := &c.st, &c.st.P
	res := MSMResult{
		Params:             *p,
		Generations:        st.Stats,
		FinalTopStateRMSD:  st.Stats[len(st.Stats)-1].TopStateRMSD,
		FirstFoldedGen:     st.FirstFoldedGen,
		FirstNearNativeGen: st.FirstNearNativeGen,
	}

	// Fig 2 per-trajectory traces.
	for _, tr := range st.Trajs {
		rec := TrajRecord{ID: tr.ID, BornGen: tr.BornGen}
		for _, m := range tr.GenMin {
			if !math.IsInf(m, 1) {
				rec.GenMinRMSD = append(rec.GenMinRMSD, m)
			}
		}
		res.Trajs = append(res.Trajs, rec)
	}

	// Fig 4: propagate from the unfolded starting distribution.
	local := make(map[int]int, len(mapping))
	for li, orig := range mapping {
		local[orig] = li
	}
	p0 := make([]float64, rt.N())
	nStart := 0
	for s := 0; s < p.NStarts; s++ {
		if li, ok := local[clu.Assign(c.model.UnfoldedStart(s, p.Seed))]; ok {
			p0[li]++
			nStart++
		}
	}
	if nStart > 0 {
		for i := range p0 {
			p0[i] /= float64(nStart)
		}
		var folded []int
		for li, orig := range mapping {
			if c.model.RMSD(clu.Centers[orig]) <= p.Landscape.FoldedRMSD {
				folded = append(folded, li)
			}
		}
		steps := int(p.PropagateNs/p.LagNs + 0.5)
		res.PopTimesNs, res.PopFolded = rt.PopulationCurve(p0, folded, steps)
		res.THalfNs, res.THalfOK = stats.HalfLifeTime(res.PopTimesNs, res.PopFolded)
	}

	// Fig 5: ensemble mean ± std RMSD on the frame grid, over generation-0
	// trajectories (the ensemble launched from the unfolded states).
	maxFrames := 0
	for _, tr := range st.Trajs {
		if tr.BornGen == 0 && len(tr.RMSD) > maxFrames {
			maxFrames = len(tr.RMSD)
		}
	}
	for f := 0; f < maxFrames; f++ {
		var acc stats.Running
		for _, tr := range st.Trajs {
			if tr.BornGen == 0 && f < len(tr.RMSD) {
				acc.Add(tr.RMSD[f])
			}
		}
		if acc.N() < 2 {
			break
		}
		res.RMSDTimesNs = append(res.RMSDTimesNs, float64(f)*p.FrameNs)
		res.RMSDMean = append(res.RMSDMean, acc.Mean())
		res.RMSDStd = append(res.RMSDStd, acc.StdDev())
	}

	// Markovianity checks on the final discretisation.
	c.markovianity(clu, dtrajs, &res)

	blob, err := wire.Marshal(&res)
	if err != nil {
		return err
	}
	ctx.Finish(blob)
	return nil
}

// markovianity runs the §3.2 lag sensitivity analysis: implied timescales
// across probe lags bracketing the working lag, and a k=2 Chapman–
// Kolmogorov propagation error for the folded population.
func (c *MSMController) markovianity(clu *msm.Clustering, dtrajs [][]int, res *MSMResult) {
	maxLen := 0
	for _, dt := range dtrajs {
		if len(dt) > maxLen {
			maxLen = len(dt)
		}
	}
	workLag := c.lagFrames()
	var lags []int
	for _, mult := range []float64{0.25, 0.5, 1, 2} {
		lf := int(float64(workLag)*mult + 0.5)
		if lf >= 1 && lf*3 < maxLen {
			lags = append(lags, lf)
		}
	}
	if len(lags) > 0 {
		ts, err := msm.ImpliedTimescales(dtrajs, clu.K(), lags, c.st.P.FrameNs)
		if err == nil {
			for i, lf := range lags {
				res.ProbeLagsNs = append(res.ProbeLagsNs, float64(lf)*c.st.P.FrameNs)
				res.ImpliedTimescales = append(res.ImpliedTimescales, ts[i])
			}
		}
	}
	// CK error at the working lag over the folded set, from a uniform
	// start over the first trajectory's initial state.
	if workLag >= 1 && workLag*2*2 < maxLen {
		var folded []int
		for i, ctr := range clu.Centers {
			if c.model.RMSD(ctr) <= c.st.P.Landscape.FoldedRMSD {
				folded = append(folded, i)
			}
		}
		p0 := make([]float64, clu.K())
		for s := 0; s < c.st.P.NStarts; s++ {
			p0[clu.Assign(c.model.UnfoldedStart(s, c.st.P.Seed))] += 1 / float64(c.st.P.NStarts)
		}
		if ck, err := msm.ChapmanKolmogorovError(dtrajs, clu.K(), workLag, 2, p0, folded); err == nil {
			res.CKError = ck
		}
	}
}
