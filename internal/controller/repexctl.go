package controller

import (
	"fmt"
	"time"

	"copernicus/internal/engines"
	"copernicus/internal/md"
	"copernicus/internal/obs"
	"copernicus/internal/repex"
	"copernicus/internal/wire"
)

// RepexControllerName is the registry name of the replica-exchange plugin.
const RepexControllerName = "repex"

// RepexParams configures a temperature-ladder REMD project: Replicas rungs
// geometrically spaced over [TMin, TMax], each running segments of
// SegmentSteps MD steps with Metropolis exchange attempts between
// neighbouring rungs at segment boundaries, for Epochs segments per rung.
//
// Mode selects the exchange pattern (the design axis of Treikalis et al.):
//
//   - "sync": every rung's segment is submitted each epoch, and once the
//     last of them has reported (the campaign's round step is the barrier)
//     the ladder exchanges in even/odd neighbour sweeps. Simple and
//     deterministic, but the barrier stalls the whole ladder on the slowest
//     replica.
//   - "async": each rung runs independently; a replica reaching its
//     boundary exchanges with any neighbour already waiting there, or
//     waits for the first to arrive. No global barrier, so stragglers
//     only ever delay their immediate neighbours.
type RepexParams struct {
	SystemKind string // "ljfluid", "water", "polymer", "peptide"
	SystemN    int
	Density    float64
	BuildSeed  uint64

	Replicas   int     // ladder rungs (≥2)
	TMin, TMax float64 // ladder endpoints, K
	Mode       string  // "sync" or "async"

	SegmentSteps    int // MD steps between exchange attempts
	Epochs          int // segments per rung
	CheckpointEvery int // preemption-checkpoint cadence within a segment

	// Config is the base MD configuration; Temperature is overridden per
	// rung and Shards is clamped by the engine to the core grant. A zero
	// Config (Dt == 0) is replaced by md.DefaultConfig.
	Config md.Config

	MinCores, MaxCores int
	Seed               uint64
}

// DefaultRepexParams returns a small but complete REMD project.
func DefaultRepexParams() RepexParams {
	cfg := md.DefaultConfig()
	cfg.Cutoff = 0.7
	cfg.Skin = 0.1
	cfg.Temperature = 0 // per rung
	return RepexParams{
		SystemKind:      "ljfluid",
		SystemN:         64,
		Density:         8,
		BuildSeed:       1,
		Replicas:        4,
		TMin:            100,
		TMax:            200,
		Mode:            "sync",
		SegmentSteps:    40,
		Epochs:          4,
		CheckpointEvery: 20,
		Config:          cfg,
		MinCores:        1,
		MaxCores:        1,
		Seed:            1,
	}
}

func (p *RepexParams) validate() error {
	if p.Replicas < 2 {
		return fmt.Errorf("repex controller: need at least 2 replicas, got %d", p.Replicas)
	}
	if p.TMin <= 0 || p.TMax <= p.TMin {
		return fmt.Errorf("repex controller: need 0 < TMin < TMax, got [%g, %g]", p.TMin, p.TMax)
	}
	switch p.Mode {
	case "sync", "async":
	case "":
		p.Mode = "sync"
	default:
		return fmt.Errorf("repex controller: unknown mode %q (want sync or async)", p.Mode)
	}
	if p.SegmentSteps < 1 {
		return fmt.Errorf("repex controller: segment steps must be positive")
	}
	if p.Epochs < 1 {
		return fmt.Errorf("repex controller: need at least one epoch")
	}
	if p.Config.Dt == 0 {
		cfg := md.DefaultConfig()
		cfg.Cutoff = 0.7
		cfg.Skin = 0.1
		p.Config = cfg
	}
	if p.MinCores == 0 {
		p.MinCores = 1
	}
	if p.MaxCores < p.MinCores {
		p.MaxCores = p.MinCores
	}
	return nil
}

// RepexResult is the encoded project result.
type RepexResult struct {
	Params          RepexParams
	Temps           []float64
	Attempts        []uint64 // per neighbour pair
	Accepts         []uint64
	RoundTrips      uint64
	SegmentsRun     int
	FinalPotentials []float64 // per rung, kJ/mol
}

// RepexDetail is the live status blob published through
// ProjectStatus.Detail (see Inspectable): enough for a client to print
// per-pair acceptance rates and mixing progress while the project runs.
type RepexDetail struct {
	Mode       string
	Temps      []float64
	Attempts   []uint64
	Accepts    []uint64
	RoundTrips uint64
	Epoch      int // sync: completed exchange rounds; async: min rung segments
	Segments   int // completed segments over all rungs
	Waiting    int // async: rungs parked at a boundary awaiting a partner
}

// repexState is the REMD controller's resumable state, saved as it is. The
// exchange ladder — temperatures, acceptance statistics, walker positions,
// boundary states — must survive failover bitwise so a promoted standby
// continues the exact exchange stream the primary would have produced.
// Older builds' snapshots carry one more counter, of the epoch groups they
// dispatched; decoding skips it, and its name stays retired.
type repexState struct {
	P       RepexParams
	Temps   []float64
	Rungs   []repex.Rung
	Stats   repex.Stats
	Epoch   int // sync: completed exchange rounds
	SegsRun int
}

// RepexController implements the replica-exchange plugin: a campaign whose
// slots are ladder rungs. The exchange patterns themselves are internal/repex
// schedules; this is their transport.
type RepexController struct {
	campaign[int]
	st repexState

	// Barrier-wait bookkeeping (sync mode, metrics only — not persisted).
	epochFirstArrival time.Time
}

// NewRepexController returns an uninitialised REMD controller.
func NewRepexController() *RepexController {
	c := &RepexController{}
	c.campaign = newCampaign[int](RepexControllerName, c, &c.st)
	return c
}

// Start implements Controller.
func (c *RepexController) Start(ctx Context, params []byte) error {
	p := &c.st.P
	if err := wire.Unmarshal(params, p); err != nil {
		return fmt.Errorf("repex controller: params: %w", err)
	}
	if err := p.validate(); err != nil {
		return err
	}
	temps, err := repex.Ladder(p.TMin, p.TMax, p.Replicas)
	if err != nil {
		return err
	}
	c.st.Temps = temps
	c.seed(p.Seed ^ ctx.Seed())
	c.st.Stats = *repex.NewStats(p.Replicas)
	c.st.Rungs = make([]repex.Rung, p.Replicas)
	ctx.SetStatus(0, fmt.Sprintf("%s REMD: %d rungs over [%g, %g] K",
		p.Mode, p.Replicas, p.TMin, p.TMax))
	return c.submitEpoch(ctx)
}

// submitEpoch dispatches every rung's next segment: the whole ladder's
// first segments, and in sync mode each later epoch.
func (c *RepexController) submitEpoch(ctx Context) error {
	c.epochFirstArrival = time.Time{}
	for r := range c.st.Rungs {
		if err := c.submitSegment(ctx, r); err != nil {
			return err
		}
	}
	return nil
}

// submitSegment dispatches rung r's next segment.
func (c *RepexController) submitSegment(ctx Context, r int) error {
	p := &c.st.P
	cfg := p.Config
	cfg.Temperature = c.st.Temps[r]
	// Fresh starts draw velocities from the rung's own seed; resumed
	// segments carry their RNG inside the checkpoint.
	cfg.Seed = p.Seed + uint64(r) + 1
	// Sync epochs are ladder-aligned, so the boundary comes from the epoch
	// counter; async rungs are independent, so each advances from its own
	// segment count. Either way a lost segment resubmitted before its rung
	// reports targets the same boundary from the same start state.
	seg := c.st.Epoch
	if p.Mode == "async" {
		seg = c.st.Rungs[r].Segs
	}
	cmd := wire.CommandSpec{
		ID:       fmt.Sprintf("rx-c%05d-r%02d", c.led.NextCmd, r),
		Type:     engines.RepexMDName,
		MinCores: p.MinCores,
		MaxCores: p.MaxCores,
	}
	return c.submit(ctx, r, &cmd, &engines.RepexMDPayload{
		SystemKind:      p.SystemKind,
		SystemN:         p.SystemN,
		Density:         p.Density,
		BuildSeed:       p.BuildSeed,
		Config:          cfg,
		TargetStep:      int64(seg+1) * int64(p.SegmentSteps),
		CheckpointEvery: p.CheckpointEvery,
		StartState:      c.st.Rungs[r].State,
	})
}

// attemptExchange runs one Metropolis attempt between rungs i and i+1 and
// adds it to the server's totals; each pair's counts are the ladder's own
// (RepexDetail).
func (c *RepexController) attemptExchange(ctx Context, i int) {
	before := c.st.Stats.RoundTrips
	acc := repex.Exchange(c.st.Temps, c.st.Rungs, &c.st.Stats, i, c.rand.Float64())
	m := ctx.Obs().Metrics
	m.Counter("copernicus_repex_exchange_attempts_total",
		"REMD exchange attempts, over every ladder and pair.", obs.L()).Inc()
	if acc {
		m.Counter("copernicus_repex_exchange_accepts_total",
			"Accepted REMD exchanges, over every ladder and pair.", obs.L()).Inc()
	}
	if trips := c.st.Stats.RoundTrips - before; trips > 0 {
		m.Counter("copernicus_repex_round_trips_total",
			"Completed bottom-top-bottom walker traversals of the ladder.", obs.L()).Add(trips)
	}
}

// fold implements plugin: record rung r's boundary; in async mode, let the
// exchange pattern react to it at once.
func (c *RepexController) fold(ctx Context, r int, res *wire.CommandResult) error {
	var out engines.RepexMDOutput
	if err := wire.Unmarshal(res.Output, &out); err != nil {
		return fmt.Errorf("repex controller: output: %w", err)
	}
	rung := &c.st.Rungs[r]
	rung.State = out.State
	rung.Potential = out.Potential
	rung.Segs++
	c.st.SegsRun++
	if c.st.P.Mode == "sync" {
		if c.epochFirstArrival.IsZero() {
			c.epochFirstArrival = time.Now()
		}
		return nil // exchanges wait for the barrier (round)
	}
	pair, run := repex.Arrive(c.st.Rungs, r, c.st.P.Epochs)
	if pair >= 0 {
		c.attemptExchange(ctx, pair)
		ctx.SetStatus(c.minSegs(), c.statusNote())
	}
	for _, n := range run {
		if err := c.submitSegment(ctx, n); err != nil {
			return err
		}
	}
	return nil
}

// round implements plugin. Sync: every rung has reported, so sweep the
// neighbour pairs and dispatch the next epoch. Async: the ladder only stops
// submitting once every rung has retired, so the project is done.
func (c *RepexController) round(ctx Context) error {
	if c.st.P.Mode == "async" {
		return c.finishProject(ctx)
	}
	// Barrier complete: how long did the ladder wait on its straggler?
	ctx.Obs().Metrics.Histogram("copernicus_repex_barrier_wait_seconds",
		"Sync-mode wait between an epoch's first and last replica finishing.",
		obs.DefBuckets(), obs.L()).Observe(time.Since(c.epochFirstArrival).Seconds())
	for _, i := range repex.SweepPairs(len(c.st.Rungs), c.st.Epoch%2 == 1) {
		c.attemptExchange(ctx, i)
	}
	c.st.Epoch++
	if c.st.Epoch >= c.st.P.Epochs {
		return c.finishProject(ctx)
	}
	ctx.SetStatus(c.st.Epoch, c.statusNote())
	return c.submitEpoch(ctx)
}

// minSegs returns the slowest rung's completed-segment count (the async
// analogue of the epoch counter).
func (c *RepexController) minSegs() int {
	min := c.st.Rungs[0].Segs
	for _, rung := range c.st.Rungs[1:] {
		if rung.Segs < min {
			min = rung.Segs
		}
	}
	return min
}

func (c *RepexController) statusNote() string {
	var att, acc uint64
	for i := range c.st.Stats.Attempts {
		att += c.st.Stats.Attempts[i]
		acc += c.st.Stats.Accepts[i]
	}
	rate := 0.0
	if att > 0 {
		rate = float64(acc) / float64(att)
	}
	return fmt.Sprintf("%s REMD: %d segments, %d/%d exchanges accepted (%.0f%%), %d round trips",
		c.st.P.Mode, c.st.SegsRun, acc, att, 100*rate, c.st.Stats.RoundTrips)
}

func (c *RepexController) finishProject(ctx Context) error {
	finals := make([]float64, len(c.st.Rungs))
	for r, rung := range c.st.Rungs {
		finals[r] = rung.Potential
	}
	blob, err := wire.Marshal(&RepexResult{
		Params:          c.st.P,
		Temps:           c.st.Temps,
		Attempts:        c.st.Stats.Attempts,
		Accepts:         c.st.Stats.Accepts,
		RoundTrips:      c.st.Stats.RoundTrips,
		SegmentsRun:     c.st.SegsRun,
		FinalPotentials: finals,
	})
	if err != nil {
		return err
	}
	ctx.SetStatus(c.st.P.Epochs, c.statusNote())
	ctx.Finish(blob)
	return nil
}

// lost implements plugin: resubmit the lost rung's segment, in either mode.
// Segments are idempotent — the target step is absolute, and the rung's
// State is still the one the segment started from — so the rerun ends at the
// same boundary, and its siblings keep running.
func (c *RepexController) lost(ctx Context, r int, cmd wire.CommandSpec, reason string) error {
	ctx.Logf("repex: segment %s for rung %d lost (%s)", cmd.ID, r, reason)
	return c.submitSegment(ctx, r)
}

// Inspect implements Inspectable.
func (c *RepexController) Inspect() ([]byte, error) {
	waiting := 0
	for _, rung := range c.st.Rungs {
		if rung.Waiting {
			waiting++
		}
	}
	epoch := c.st.Epoch
	if c.st.P.Mode == "async" && len(c.st.Rungs) > 0 {
		epoch = c.minSegs()
	}
	return wire.Marshal(&RepexDetail{
		Mode:       c.st.P.Mode,
		Temps:      c.st.Temps,
		Attempts:   c.st.Stats.Attempts,
		Accepts:    c.st.Stats.Accepts,
		RoundTrips: c.st.Stats.RoundTrips,
		Epoch:      epoch,
		Segments:   c.st.SegsRun,
		Waiting:    waiting,
	})
}
