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
	"copernicus/internal/rng"
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

	// Stream enables the incremental analysis pipeline: workers flush frame
	// chunks every StreamEveryNs as they simulate, the controller digests
	// them through a mini-batch clusterer with per-trajectory watermarks,
	// and a generation triggers when the model's state populations converge
	// instead of after a fixed segment count (SegmentsPerGen stays as the
	// hard cap). Off by default so the batch pipeline remains the A/B
	// reference. All stream fields decode as zero values from pre-streaming
	// parameter blobs.
	Stream bool
	// StreamEveryNs is the worker flush interval (0 defaults to 5×FrameNs).
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

// msmTraj is the in-flight state of one trajectory.
type msmTraj struct {
	id      string
	bornGen int
	times   []float64   // cumulative ns, frame-aligned
	frames  [][]float64 // conformations at those times
	rmsd    []float64
	current []float64 // latest conformation (segment end)
	alive   bool
	genMin  []float64 // min RMSD per generation alive
}

// MSMController implements the adaptive-sampling plugin.
type MSMController struct {
	p                  MSMParams
	model              *landscape.Model
	rand               *rng.Source
	gen                int
	segDone            int               // segments finished this generation
	inFlight           map[string]string // command ID → trajectory ID
	trajs              map[string]*msmTraj
	order              []string // trajectory IDs in creation order
	nextTraj           int
	nextCmd            int
	minRMSD            float64
	firstFoldedGen     int
	firstNearNativeGen int
	stats              []GenerationStats
	// segTarget is the configured segments-per-generation; the live
	// c.p.SegmentsPerGen may shrink within a generation when commands fail
	// terminally, and is restored from segTarget at each generation start.
	segTarget int
	// genStart marks when the current generation's cohort was launched, so
	// clusterAndRespawn can report the generation's wall time.
	genStart time.Time
	// points is what the batch barrier clusters: the frames of the first
	// gathered trajectories of c.order, trajectory after trajectory. Every
	// trajectory is terminated at its barrier and never grows again, so the
	// set is append-only and a barrier adds only its own cohort. Derived
	// state: it is not saved, and refills from the trajectories' frames at
	// the first barrier after a restore.
	points   msm.PointSet
	gathered int

	// Streaming-mode state (all zero when p.Stream is false).
	stream *msm.StreamClusterer
	// cmdStreamed is the per-command frame watermark: index one past the
	// last frame already folded into the trajectory via chunks. It is what
	// makes chunk re-delivery and the final result's full frame set
	// idempotent.
	cmdStreamed map[string]int
	// cmdBase is the trajectory's cumulative time at segment submission, so
	// chunk-local times convert to trajectory times.
	cmdBase map[string]float64
	// lastPops is the previous convergence check's normalized state
	// population vector; convOK counts consecutive passing checks;
	// converged latches the generation trigger while stragglers drain.
	lastPops  []float64
	convOK    int
	converged bool
}

// NewMSMController returns an uninitialised MSM controller; Start must run
// before any other handler.
func NewMSMController() *MSMController {
	return &MSMController{
		inFlight:           make(map[string]string),
		trajs:              make(map[string]*msmTraj),
		minRMSD:            math.Inf(1),
		firstFoldedGen:     -1,
		firstNearNativeGen: -1,
	}
}

// Name implements Controller.
func (c *MSMController) Name() string { return MSMControllerName }

// Start implements Controller: decode parameters and launch the first
// generation from the unfolded starting conformations.
func (c *MSMController) Start(ctx Context, params []byte) error {
	if err := wire.Unmarshal(params, &c.p); err != nil {
		return fmt.Errorf("msm controller: params: %w", err)
	}
	if err := c.p.validate(); err != nil {
		return err
	}
	var err error
	c.model, err = landscape.New(c.p.Landscape)
	if err != nil {
		return err
	}
	c.rand = rng.New(c.p.Seed ^ ctx.Seed())
	c.segTarget = c.p.SegmentsPerGen
	if c.p.Stream {
		lagFrames := int(c.p.LagNs/c.p.FrameNs + 0.5)
		if lagFrames < 1 {
			lagFrames = 1
		}
		c.stream, err = msm.NewStreamClusterer(msm.StreamConfig{
			K:       c.p.Clusters,
			Lag:     lagFrames,
			MinDist: c.p.StreamMinDist,
		})
		if err != nil {
			return err
		}
		c.cmdStreamed = make(map[string]int)
		c.cmdBase = make(map[string]float64)
	}

	for s := 0; s < c.p.NStarts; s++ {
		start := c.model.UnfoldedStart(s, c.p.Seed)
		for k := 0; k < c.p.TasksPerStart; k++ {
			if err := c.spawnTrajectory(ctx, start); err != nil {
				return err
			}
		}
	}
	c.genStart = time.Now()
	ctx.SetStatus(0, fmt.Sprintf("generation 0: %d trajectories launched", len(c.trajs)))
	return nil
}

// spawnTrajectory creates a trajectory starting at x and submits its first
// segment.
func (c *MSMController) spawnTrajectory(ctx Context, x []float64) error {
	id := fmt.Sprintf("traj-%04d", c.nextTraj)
	c.nextTraj++
	tr := &msmTraj{
		id:      id,
		bornGen: c.gen,
		current: append([]float64(nil), x...),
		alive:   true,
		times:   []float64{0},
		frames:  [][]float64{append([]float64(nil), x...)},
		rmsd:    []float64{c.model.RMSD(x)},
	}
	c.noteRMSD(tr, tr.rmsd[0])
	c.trajs[id] = tr
	c.order = append(c.order, id)
	if c.stream != nil {
		// The batch pipeline discretises frame 0 with the rest; the
		// incremental model must see it too.
		if _, err := c.stream.Observe(id, tr.frames[0]); err != nil {
			return err
		}
	}
	return c.submitSegment(ctx, tr)
}

// submitSegment queues the next 50-ns command for a trajectory.
func (c *MSMController) submitSegment(ctx Context, tr *msmTraj) error {
	payload, err := wire.Marshal(&engines.LandscapePayload{
		Params:        c.p.Landscape,
		Start:         tr.current,
		DurationNs:    c.p.SegmentNs,
		FrameNs:       c.p.FrameNs,
		Seed:          c.rand.Uint64(),
		StreamEveryNs: c.p.StreamEveryNs,
	})
	if err != nil {
		return err
	}
	cmdID := fmt.Sprintf("%s-seg%04d", tr.id, c.nextCmd)
	c.nextCmd++
	cmd := wire.CommandSpec{
		ID:       cmdID,
		Type:     engines.LandscapeName,
		MinCores: c.p.MinCores,
		MaxCores: c.p.MaxCores,
		Payload:  payload,
	}
	if err := ctx.Submit(cmd); err != nil {
		return err
	}
	c.inFlight[cmdID] = tr.id
	if c.stream != nil {
		c.cmdBase[cmdID] = tr.times[len(tr.times)-1]
	}
	return nil
}

// noteRMSD updates global and per-generation minima.
func (c *MSMController) noteRMSD(tr *msmTraj, r float64) {
	if r < c.minRMSD {
		c.minRMSD = r
	}
	if c.firstFoldedGen < 0 && r <= c.p.Landscape.FoldedRMSD {
		c.firstFoldedGen = c.gen
	}
	if c.firstNearNativeGen < 0 && r <= c.p.NearNativeRMSD {
		c.firstNearNativeGen = c.gen
	}
	for len(tr.genMin) <= c.gen-tr.bornGen {
		tr.genMin = append(tr.genMin, math.Inf(1))
	}
	if idx := c.gen - tr.bornGen; idx >= 0 && r < tr.genMin[idx] {
		tr.genMin[idx] = r
	}
}

// CommandFinished implements Controller: fold the segment into its
// trajectory, extend or cluster as the generation protocol dictates.
func (c *MSMController) CommandFinished(ctx Context, res *wire.CommandResult) error {
	trajID, ok := c.inFlight[res.CommandID]
	if !ok {
		return nil // terminated or duplicate result: ignore
	}
	delete(c.inFlight, res.CommandID)
	tr := c.trajs[trajID]

	var out engines.LandscapeOutput
	if err := wire.Unmarshal(res.Output, &out); err != nil {
		return fmt.Errorf("msm controller: segment output: %w", err)
	}
	if len(out.Frames) < 2 {
		return fmt.Errorf("msm controller: segment for %s returned %d frames", trajID, len(out.Frames))
	}
	// Frame 0 duplicates the previous segment end; skip it when appending.
	// In streaming mode the watermark may sit further in: everything below
	// it already arrived via chunks, and the final blob's copy of those
	// frames is bitwise identical (deterministic engine), so skipping is
	// lossless.
	w := 1
	base := tr.times[len(tr.times)-1]
	if c.stream != nil {
		base = c.cmdBase[res.CommandID]
		if s := c.cmdStreamed[res.CommandID]; s > w {
			w = s
		}
		delete(c.cmdStreamed, res.CommandID)
		delete(c.cmdBase, res.CommandID)
	}
	for i := w; i < len(out.Frames); i++ {
		tr.times = append(tr.times, base+out.Times[i])
		tr.frames = append(tr.frames, out.Frames[i])
		tr.rmsd = append(tr.rmsd, out.RMSD[i])
		c.noteRMSD(tr, out.RMSD[i])
		if c.stream != nil {
			if _, serr := c.stream.Observe(tr.id, out.Frames[i]); serr != nil {
				return serr
			}
		}
	}
	tr.current = append(tr.current[:0], out.Frames[len(out.Frames)-1]...)
	c.segDone++

	if c.stream != nil {
		c.checkConvergence(ctx)
	}
	if c.segDone >= c.p.SegmentsPerGen || c.converged {
		if len(c.inFlight) == 0 {
			return c.generation(ctx)
		}
		return nil // wait for stragglers; no further extensions
	}
	// Extend this trajectory if the generation still needs segments beyond
	// what is already running ("as soon as one trajectory finishes, the
	// controller extends the run by another 50 ns").
	if tr.alive && c.segDone+len(c.inFlight) < c.p.SegmentsPerGen {
		return c.submitSegment(ctx, tr)
	}
	if len(c.inFlight) == 0 && c.segDone >= c.p.SegmentsPerGen {
		return c.generation(ctx)
	}
	return nil
}

// FrameChunk implements FrameSink: fold streamed frames into the owning
// trajectory and the incremental model the moment they arrive, deduped by
// the per-command frame watermark. With streaming disabled it is a no-op —
// the final result blob carries every frame either way.
func (c *MSMController) FrameChunk(ctx Context, chunk *wire.FrameChunk) error {
	if c.stream == nil {
		return nil
	}
	trajID, ok := c.inFlight[chunk.CommandID]
	if !ok {
		return nil // settled or terminated command
	}
	if len(chunk.Times) != len(chunk.Frames) || len(chunk.RMSD) != len(chunk.Frames) {
		return fmt.Errorf("msm controller: ragged frame chunk for %s", chunk.CommandID)
	}
	tr := c.trajs[trajID]
	w := c.cmdStreamed[chunk.CommandID]
	if w < 1 {
		w = 1 // frame 0 is the start conformation the trajectory already holds
	}
	if chunk.FirstFrame > w {
		return nil // gap: the final result blob delivers the range intact
	}
	base := c.cmdBase[chunk.CommandID]
	for i, f := range chunk.Frames {
		if chunk.FirstFrame+i < w {
			continue // re-delivered prefix (deterministic resume overlap)
		}
		tr.times = append(tr.times, base+chunk.Times[i])
		tr.frames = append(tr.frames, f)
		tr.rmsd = append(tr.rmsd, chunk.RMSD[i])
		c.noteRMSD(tr, chunk.RMSD[i])
		if _, err := c.stream.Observe(trajID, f); err != nil {
			return err
		}
	}
	if end := chunk.FirstFrame + len(chunk.Frames); end > w {
		c.cmdStreamed[chunk.CommandID] = end
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
	if c.converged {
		return
	}
	minSegs := c.p.NStarts * c.p.TasksPerStart
	if minSegs > c.p.SegmentsPerGen {
		minSegs = c.p.SegmentsPerGen
	}
	if c.segDone < minSegs {
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
	if c.lastPops != nil {
		delta := 0.0
		for i, p := range pops {
			delta += math.Abs(p - c.lastPops[i])
		}
		delta /= 2
		if delta < c.p.ConvergeTol {
			c.convOK++
		} else {
			c.convOK = 0
		}
		if c.convOK >= c.p.ConvergeChecks {
			c.converged = true
			ctx.Logf("msm: state populations converged (TV %.4g < %g for %d checks) after %d segments",
				delta, c.p.ConvergeTol, c.convOK, c.segDone)
		}
	}
	c.lastPops = pops
}

// generation runs the round-end step for the current mode. The final
// generation always takes the batch path, even in streaming mode: finish()
// builds the publication figures from a full clustering of the retained
// trajectories, so the end-of-project analysis is identical in both modes.
func (c *MSMController) generation(ctx Context) error {
	if c.stream != nil && c.gen < c.p.Generations-1 {
		return c.generationStream(ctx)
	}
	return c.clusterAndRespawn(ctx)
}

// CommandFailed implements Controller: resubmission is handled by the
// server's retry/requeue machinery, so a terminal failure here aborts the
// trajectory but not the project (the generation target shrinks with it).
func (c *MSMController) CommandFailed(ctx Context, cmd wire.CommandSpec, reason string) error {
	trajID, ok := c.inFlight[cmd.ID]
	if !ok {
		return nil
	}
	delete(c.inFlight, cmd.ID)
	if tr := c.trajs[trajID]; tr != nil {
		tr.alive = false
	}
	delete(c.cmdStreamed, cmd.ID)
	delete(c.cmdBase, cmd.ID)
	ctx.Logf("msm: command %s failed terminally (%s); trajectory %s abandoned", cmd.ID, reason, trajID)
	c.p.SegmentsPerGen-- // one fewer segment can ever arrive this generation
	if (c.segDone >= c.p.SegmentsPerGen || c.converged) && len(c.inFlight) == 0 {
		return c.generation(ctx)
	}
	return nil
}

// generationStream is the incremental generation step: the live mini-batch
// model already folded in every frame as it arrived, so the round-end
// analysis works on the accumulated counts and centers directly — no
// reclustering, no rediscretisation — and its cost is O(K²) in the state
// budget, flat in campaign age, instead of the batch path's O(all frames).
func (c *MSMController) generationStream(ctx Context) error {
	analysisStart := time.Now()
	counts := c.stream.Counts()
	centers := c.stream.Centers()
	tm := counts.TransitionMatrix(0)
	tm.Lag = c.p.LagNs
	lcs := tm.LargestConnectedSet()
	rt, mapping := tm.Restrict(lcs)
	rt.Lag = c.p.LagNs

	topLocal, topPi := rt.EquilibriumTopState()
	topState := mapping[topLocal]
	topRMSD := math.Inf(1)
	if topState < len(centers) {
		topRMSD = c.model.RMSD(centers[topState])
	}
	pi := rt.StationaryDistribution(1e-12, 10000)
	foldedPi := 0.0
	for local, orig := range mapping {
		if orig < len(centers) && c.model.RMSD(centers[orig]) <= c.p.Landscape.FoldedRMSD {
			foldedPi += pi[local]
		}
	}
	uncertainty := msm.StateUncertainty(counts)
	total := c.p.NStarts * c.p.TasksPerStart
	spawn, err := msm.SpawnCounts(c.p.Weighting, lcs, uncertainty, total, c.p.Seed^uint64(c.gen+1)*0x9E37)
	if err != nil {
		return fmt.Errorf("msm controller: spawning: %w", err)
	}
	gs := GenerationStats{
		Generation:      c.gen,
		SegmentsDone:    c.segDone,
		FramesTotal:     c.stream.Frames(),
		SimulatedNs:     c.totalNs(),
		MinRMSD:         c.minRMSD,
		States:          len(lcs),
		TopStateRMSD:    topRMSD,
		TopStatePi:      topPi,
		FoldedPiFrac:    foldedPi,
		SpawnedStates:   len(spawn),
		AnalysisSeconds: time.Since(analysisStart).Seconds(),
		Streamed:        true,
	}
	c.stats = append(c.stats, gs)
	c.observeGeneration(ctx, gs)

	// Terminate the old cohort (releasing its bounded assignment rings) and
	// spawn the next one from the live centers.
	for _, tr := range c.trajs {
		tr.alive = false
		c.stream.DropTrajectory(tr.id)
	}
	c.gen++
	c.segDone = 0
	c.p.SegmentsPerGen = c.segTarget
	c.converged = false
	c.convOK = 0
	c.lastPops = nil
	states := make([]int, 0, len(spawn))
	for s := range spawn {
		states = append(states, s)
	}
	sort.Ints(states)
	for _, s := range states {
		if s >= len(centers) {
			continue // unvisited budget state: nothing to restart from
		}
		start := centers[s]
		for k := 0; k < spawn[s]; k++ {
			if err := c.spawnTrajectory(ctx, start); err != nil {
				return err
			}
		}
	}
	ctx.SetStatus(c.gen, fmt.Sprintf("generation %d (streamed): spawned %d trajectories from %d states (min RMSD %.2f Å)",
		c.gen, total, len(spawn), c.minRMSD))
	return nil
}

// clusterAndRespawn is the §3.2 generation step: cluster everything sampled
// so far, build the transition matrix, record statistics, and either spawn
// the next generation or finish the project.
func (c *MSMController) clusterAndRespawn(ctx Context) error {
	analysisStart := time.Now()
	clu, dtrajs, err := c.cluster()
	if err != nil {
		return fmt.Errorf("msm controller: clustering: %w", err)
	}
	lagFrames := int(c.p.LagNs/c.p.FrameNs + 0.5)
	if lagFrames < 1 {
		lagFrames = 1
	}
	counts, err := msm.CountTransitions(dtrajs, clu.K(), lagFrames)
	if err != nil {
		return fmt.Errorf("msm controller: counting: %w", err)
	}
	// Row-normalised MLE (not symmetrised): each row is estimated
	// conditional on the state, so the stationary distribution approximates
	// equilibrium even though adaptive sampling deliberately distributes
	// trajectory starts non-Boltzmann. Symmetrising would make the
	// stationary vector mirror the sampling distribution instead.
	tm := counts.TransitionMatrix(0)
	tm.Lag = c.p.LagNs
	lcs := tm.LargestConnectedSet()
	rt, mapping := tm.Restrict(lcs)
	rt.Lag = c.p.LagNs

	// Stationary analysis on the ergodic subset.
	topLocal, topPi := rt.EquilibriumTopState()
	topState := mapping[topLocal]
	topRMSD := c.model.RMSD(clu.Centers[topState])
	pi := rt.StationaryDistribution(1e-12, 10000)
	foldedPi := 0.0
	for local, orig := range mapping {
		if c.model.RMSD(clu.Centers[orig]) <= c.p.Landscape.FoldedRMSD {
			foldedPi += pi[local]
		}
	}

	gs := GenerationStats{
		Generation:      c.gen,
		SegmentsDone:    c.segDone,
		FramesTotal:     c.points.Len(),
		SimulatedNs:     c.totalNs(),
		MinRMSD:         c.minRMSD,
		States:          len(lcs),
		TopStateRMSD:    topRMSD,
		TopStatePi:      topPi,
		FoldedPiFrac:    foldedPi,
		AnalysisSeconds: time.Since(analysisStart).Seconds(),
	}

	lastGen := c.gen == c.p.Generations-1
	if lastGen {
		c.stats = append(c.stats, gs)
		c.observeGeneration(ctx, gs)
		ctx.SetStatus(c.gen, "final analysis")
		return c.finish(ctx, clu, dtrajs, rt, mapping)
	}

	// Adaptive (or even) respawn for the next generation.
	uncertainty := msm.StateUncertainty(counts)
	total := c.p.NStarts * c.p.TasksPerStart
	spawn, err := msm.SpawnCounts(c.p.Weighting, lcs, uncertainty, total, c.p.Seed^uint64(c.gen+1)*0x9E37)
	if err != nil {
		return fmt.Errorf("msm controller: spawning: %w", err)
	}
	gs.SpawnedStates = len(spawn)
	c.stats = append(c.stats, gs)
	c.observeGeneration(ctx, gs)

	// Terminate old trajectories ("simulations in well-explored regions
	// terminated") and start the new cohort from cluster representatives.
	for _, tr := range c.trajs {
		tr.alive = false
	}
	c.gen++
	c.segDone = 0
	c.p.SegmentsPerGen = c.segTarget
	states := make([]int, 0, len(spawn))
	for s := range spawn {
		states = append(states, s)
	}
	sort.Ints(states)
	for _, s := range states {
		start := clu.Centers[s]
		for k := 0; k < spawn[s]; k++ {
			if err := c.spawnTrajectory(ctx, start); err != nil {
				return err
			}
		}
	}
	ctx.SetStatus(c.gen, fmt.Sprintf("generation %d: spawned %d trajectories from %d states (min RMSD %.2f Å)",
		c.gen, total, len(spawn), c.minRMSD))
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
	for ; c.gathered < len(c.order); c.gathered++ {
		if err := c.points.Append(c.trajs[c.order[c.gathered]].frames...); err != nil {
			return nil, nil, err
		}
	}
	clu, err := c.points.KCenters(c.p.Clusters, c.p.Seed+uint64(c.gen))
	if err != nil {
		return nil, nil, err
	}
	dtrajs := make([][]int, len(c.order))
	rest := clu.Assignments
	for i, id := range c.order {
		n := len(c.trajs[id].frames)
		dtrajs[i], rest = rest[:n:n], rest[n:]
	}
	return clu, dtrajs, nil
}

// totalNs sums simulated trajectory time.
func (c *MSMController) totalNs() float64 {
	t := 0.0
	for _, id := range c.order { // not the map: float addition is order-dependent
		if tr := c.trajs[id]; len(tr.times) > 0 {
			t += tr.times[len(tr.times)-1]
		}
	}
	return t
}

// finish performs the final analysis (Figs 4 and 5) and completes the
// project.
func (c *MSMController) finish(ctx Context, clu *msm.Clustering, dtrajs [][]int, rt *msm.TransitionMatrix, mapping []int) error {
	res := MSMResult{
		Params:             c.p,
		Generations:        c.stats,
		FinalTopStateRMSD:  c.stats[len(c.stats)-1].TopStateRMSD,
		FirstFoldedGen:     c.firstFoldedGen,
		FirstNearNativeGen: c.firstNearNativeGen,
	}

	// Fig 2 per-trajectory traces.
	for _, id := range c.order {
		tr := c.trajs[id]
		rec := TrajRecord{ID: tr.id, BornGen: tr.bornGen}
		for _, m := range tr.genMin {
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
	for s := 0; s < c.p.NStarts; s++ {
		st := clu.Assign(c.model.UnfoldedStart(s, c.p.Seed))
		if li, ok := local[st]; ok {
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
			if c.model.RMSD(clu.Centers[orig]) <= c.p.Landscape.FoldedRMSD {
				folded = append(folded, li)
			}
		}
		steps := int(c.p.PropagateNs/c.p.LagNs + 0.5)
		res.PopTimesNs, res.PopFolded = rt.PopulationCurve(p0, folded, steps)
		res.THalfNs, res.THalfOK = stats.HalfLifeTime(res.PopTimesNs, res.PopFolded)
	}

	// Fig 5: ensemble mean ± std RMSD on the frame grid, over generation-0
	// trajectories (the ensemble launched from the unfolded states).
	maxFrames := 0
	for _, id := range c.order {
		tr := c.trajs[id]
		if tr.bornGen == 0 && len(tr.rmsd) > maxFrames {
			maxFrames = len(tr.rmsd)
		}
	}
	for f := 0; f < maxFrames; f++ {
		var acc stats.Running
		for _, id := range c.order {
			tr := c.trajs[id]
			if tr.bornGen == 0 && f < len(tr.rmsd) {
				acc.Add(tr.rmsd[f])
			}
		}
		if acc.N() < 2 {
			break
		}
		res.RMSDTimesNs = append(res.RMSDTimesNs, float64(f)*c.p.FrameNs)
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
	workLag := int(c.p.LagNs/c.p.FrameNs + 0.5)
	var lags []int
	for _, mult := range []float64{0.25, 0.5, 1, 2} {
		lf := int(float64(workLag)*mult + 0.5)
		if lf >= 1 && lf*3 < maxLen {
			lags = append(lags, lf)
		}
	}
	if len(lags) > 0 {
		ts, err := msm.ImpliedTimescales(dtrajs, clu.K(), lags, c.p.FrameNs)
		if err == nil {
			for i, lf := range lags {
				res.ProbeLagsNs = append(res.ProbeLagsNs, float64(lf)*c.p.FrameNs)
				res.ImpliedTimescales = append(res.ImpliedTimescales, ts[i])
			}
		}
	}
	// CK error at the working lag over the folded set, from a uniform
	// start over the first trajectory's initial state.
	if workLag >= 1 && workLag*2*2 < maxLen {
		var folded []int
		for i, ctr := range clu.Centers {
			if c.model.RMSD(ctr) <= c.p.Landscape.FoldedRMSD {
				folded = append(folded, i)
			}
		}
		p0 := make([]float64, clu.K())
		for s := 0; s < c.p.NStarts; s++ {
			p0[clu.Assign(c.model.UnfoldedStart(s, c.p.Seed))] += 1 / float64(c.p.NStarts)
		}
		if ck, err := msm.ChapmanKolmogorovError(dtrajs, clu.K(), workLag, 2, p0, folded); err == nil {
			res.CKError = ck
		}
	}
}
