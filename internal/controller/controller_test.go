package controller

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"copernicus/internal/engines"
	"copernicus/internal/msm"
	"copernicus/internal/obs"
	"copernicus/internal/wire"
)

// fakeCtx is an in-memory Context that executes submitted commands
// synchronously through the real engines — a single-threaded "perfect
// cluster" for deterministic controller unit tests.
type fakeCtx struct {
	t          *testing.T
	engs       map[string]engines.Engine
	queue      []wire.CommandSpec
	terminated map[string]bool
	generation int
	note       string
	result     []byte
	finished   bool
	failedErr  error
	seed       uint64
	obs        *obs.Obs
}

func newFakeCtx(t *testing.T) *fakeCtx {
	c := &fakeCtx{
		t:          t,
		engs:       make(map[string]engines.Engine),
		terminated: make(map[string]bool),
		seed:       7,
		obs:        obs.New(),
	}
	for _, e := range engines.Default() {
		c.engs[e.Name()] = e
	}
	return c
}

func (c *fakeCtx) ProjectName() string { return "test" }
func (c *fakeCtx) Seed() uint64        { return c.seed }
func (c *fakeCtx) Logf(string, ...any) {}
func (c *fakeCtx) Obs() *obs.Obs       { return c.obs }
func (c *fakeCtx) Submit(cmd wire.CommandSpec) error {
	cmd.Project = "test"
	cmd.Origin = "origin"
	if err := cmd.Validate(); err != nil {
		return err
	}
	c.queue = append(c.queue, cmd)
	return nil
}
func (c *fakeCtx) Terminate(id string) bool {
	c.terminated[id] = true
	return true
}
func (c *fakeCtx) SetStatus(gen int, note string) { c.generation = gen; c.note = note }
func (c *fakeCtx) Finish(result []byte)           { c.finished = true; c.result = result }
func (c *fakeCtx) Fail(err error)                 { c.failedErr = err }

// pump executes queued commands one at a time, feeding results back to the
// controller, until the project finishes or the queue drains.
func (c *fakeCtx) pump(ctrl Controller, maxCommands int) error {
	for n := 0; n < maxCommands; n++ {
		if c.finished || c.failedErr != nil {
			return nil
		}
		if len(c.queue) == 0 {
			return nil
		}
		cmd := c.queue[0]
		c.queue = c.queue[1:]
		if c.terminated[cmd.ID] {
			continue
		}
		eng := c.engs[cmd.Type]
		if eng == nil {
			return fmt.Errorf("no engine %q", cmd.Type)
		}
		out, err := eng.Run(context.Background(), cmd, 1, nil)
		if err != nil {
			return err
		}
		res := &wire.CommandResult{
			CommandID: cmd.ID, Project: "test", WorkerID: "w", OK: true, Output: out,
		}
		if err := ctrl.CommandFinished(c, res); err != nil {
			return err
		}
	}
	return errors.New("pump budget exhausted")
}

func tinyMSMParams() MSMParams {
	p := DefaultMSMParams()
	p.NStarts = 2
	p.TasksPerStart = 3
	p.SegmentNs = 10
	p.FrameNs = 2
	p.SegmentsPerGen = 8
	p.Generations = 2
	p.Clusters = 12
	p.LagNs = 4
	p.PropagateNs = 200
	return p
}

func mustParams(t *testing.T, p any) []byte {
	t.Helper()
	b, err := wire.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Register("a", func() Controller { return NewMSMController() })
	if _, err := r.New("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.New("missing"); err == nil {
		t.Error("unknown name accepted")
	}
	names := r.Names()
	if len(names) != 1 || names[0] != "a" {
		t.Errorf("Names = %v", names)
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration should panic")
		}
	}()
	r.Register("a", func() Controller { return NewMSMController() })
}

func TestDefaultRegistryHasBundledPlugins(t *testing.T) {
	r := DefaultRegistry()
	names := r.Names()
	if len(names) != 3 || names[0] != "bar" || names[1] != "msm" || names[2] != "repex" {
		t.Errorf("bundled controllers = %v", names)
	}
}

func TestMSMStartSubmitsInitialCohort(t *testing.T) {
	ctx := newFakeCtx(t)
	ctrl := NewMSMController()
	p := tinyMSMParams()
	if err := ctrl.Start(ctx, mustParams(t, &p)); err != nil {
		t.Fatal(err)
	}
	if len(ctx.queue) != 6 { // 2 starts × 3 tasks
		t.Fatalf("initial commands = %d, want 6", len(ctx.queue))
	}
	for _, cmd := range ctx.queue {
		if cmd.Type != engines.LandscapeName {
			t.Errorf("command type = %q", cmd.Type)
		}
	}
}

func TestMSMParamValidation(t *testing.T) {
	bad := []func(*MSMParams){
		func(p *MSMParams) { p.NStarts = 0 },
		func(p *MSMParams) { p.TasksPerStart = 0 },
		func(p *MSMParams) { p.SegmentNs = 0 },
		func(p *MSMParams) { p.FrameNs = 20; p.SegmentNs = 10 },
		func(p *MSMParams) { p.Generations = 0 },
		func(p *MSMParams) { p.Clusters = 1 },
		func(p *MSMParams) { p.LagNs = 0.1; p.FrameNs = 2 },
	}
	for i, mutate := range bad {
		ctx := newFakeCtx(t)
		p := tinyMSMParams()
		mutate(&p)
		if err := NewMSMController().Start(ctx, mustParams(t, &p)); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestMSMFullRunDeterministic(t *testing.T) {
	run := func() *MSMResult {
		ctx := newFakeCtx(t)
		ctrl := NewMSMController()
		p := tinyMSMParams()
		if err := ctrl.Start(ctx, mustParams(t, &p)); err != nil {
			t.Fatal(err)
		}
		if err := ctx.pump(ctrl, 1000); err != nil {
			t.Fatal(err)
		}
		if !ctx.finished {
			t.Fatal("project did not finish")
		}
		var res MSMResult
		if err := wire.Unmarshal(ctx.result, &res); err != nil {
			t.Fatal(err)
		}
		return &res
	}
	a, b := run(), run()
	if len(a.Generations) != 2 || len(b.Generations) != 2 {
		t.Fatalf("generations: %d, %d", len(a.Generations), len(b.Generations))
	}
	for i := range a.Generations {
		// AnalysisSeconds is wall-clock; everything else must be identical.
		ga, gb := a.Generations[i], b.Generations[i]
		ga.AnalysisSeconds, gb.AnalysisSeconds = 0, 0
		if ga != gb {
			t.Errorf("generation %d differs between identical runs:\n%+v\n%+v",
				i, ga, gb)
		}
	}
	if a.THalfNs != b.THalfNs {
		t.Error("t1/2 not deterministic")
	}
}

func TestMSMGenerationAccounting(t *testing.T) {
	ctx := newFakeCtx(t)
	ctrl := NewMSMController()
	p := tinyMSMParams()
	if err := ctrl.Start(ctx, mustParams(t, &p)); err != nil {
		t.Fatal(err)
	}
	if err := ctx.pump(ctrl, 1000); err != nil {
		t.Fatal(err)
	}
	var res MSMResult
	if err := wire.Unmarshal(ctx.result, &res); err != nil {
		t.Fatal(err)
	}
	for i, g := range res.Generations {
		if g.SegmentsDone != 8 {
			t.Errorf("generation %d segments = %d, want 8", i, g.SegmentsDone)
		}
		if g.States < 1 || g.States > p.Clusters {
			t.Errorf("generation %d states = %d", i, g.States)
		}
		if g.FoldedPiFrac < 0 || g.FoldedPiFrac > 1+1e-9 {
			t.Errorf("generation %d folded fraction = %v", i, g.FoldedPiFrac)
		}
	}
	// Simulated time grows monotonically across generations.
	for i := 1; i < len(res.Generations); i++ {
		if res.Generations[i].SimulatedNs <= res.Generations[i-1].SimulatedNs {
			t.Error("simulated time did not grow")
		}
	}
	// Every trajectory record has at least one generation entry.
	for _, tr := range res.Trajs {
		if len(tr.GenMinRMSD) == 0 {
			t.Errorf("trajectory %s has no RMSD record", tr.ID)
		}
	}
}

func TestMSMEvenVsAdaptiveBothRun(t *testing.T) {
	for _, w := range []msm.Weighting{msm.EvenWeighting, msm.AdaptiveWeighting} {
		ctx := newFakeCtx(t)
		ctrl := NewMSMController()
		p := tinyMSMParams()
		p.Weighting = w
		if err := ctrl.Start(ctx, mustParams(t, &p)); err != nil {
			t.Fatal(err)
		}
		if err := ctx.pump(ctrl, 1000); err != nil {
			t.Fatalf("%v weighting: %v", w, err)
		}
		if !ctx.finished {
			t.Fatalf("%v weighting did not finish", w)
		}
	}
}

func TestMSMCommandFailedShrinksGeneration(t *testing.T) {
	ctx := newFakeCtx(t)
	ctrl := NewMSMController()
	p := tinyMSMParams()
	if err := ctrl.Start(ctx, mustParams(t, &p)); err != nil {
		t.Fatal(err)
	}
	// Kill one of the queued commands terminally, in each generation.
	fail := func() {
		t.Helper()
		victim := ctx.queue[0]
		ctx.queue = ctx.queue[1:]
		if err := ctrl.CommandFailed(ctx, victim, "worker lost"); err != nil {
			t.Fatal(err)
		}
	}
	fail()
	if err := ctx.pumpN(ctrl, p.SegmentsPerGen-1); err != nil {
		t.Fatal(err)
	}
	if ctx.generation != 1 {
		t.Fatalf("generation %d after %d segments and one loss, want 1", ctx.generation, p.SegmentsPerGen-1)
	}
	fail()
	// The project must still complete with the remaining commands.
	if err := ctx.pump(ctrl, 1000); err != nil {
		t.Fatal(err)
	}
	if !ctx.finished {
		t.Fatal("project stalled after a terminal command failure")
	}
	var res MSMResult
	if err := wire.Unmarshal(ctx.result, &res); err != nil {
		t.Fatal(err)
	}
	for i, g := range res.Generations {
		if g.SegmentsDone != p.SegmentsPerGen-1 {
			t.Errorf("generation %d ran %d segments, want the target less the one lost (%d)", i, g.SegmentsDone, p.SegmentsPerGen-1)
		}
	}
	// The shrunken target is the generation's business, not the parameters':
	// a loss in the final generation used to be published as the user's
	// SegmentsPerGen.
	if res.Params.SegmentsPerGen != p.SegmentsPerGen {
		t.Errorf("result reports SegmentsPerGen %d, the project was submitted with %d", res.Params.SegmentsPerGen, p.SegmentsPerGen)
	}
}

func TestMSMIgnoresUnknownResults(t *testing.T) {
	ctx := newFakeCtx(t)
	ctrl := NewMSMController()
	p := tinyMSMParams()
	if err := ctrl.Start(ctx, mustParams(t, &p)); err != nil {
		t.Fatal(err)
	}
	res := &wire.CommandResult{CommandID: "ghost", OK: true}
	if err := ctrl.CommandFinished(ctx, res); err != nil {
		t.Errorf("unknown result should be ignored, got %v", err)
	}

	// A result whose Times or RMSD are shorter than its Frames is rejected
	// like a ragged chunk is; indexing them used to panic under the project
	// lock.
	cmd := ctx.queue[0]
	raw, err := ctx.engs[cmd.Type].Run(context.Background(), cmd, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out engines.LandscapeOutput
	if err := wire.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	out.RMSD = out.RMSD[:len(out.RMSD)-1]
	res = &wire.CommandResult{CommandID: cmd.ID, OK: true, Output: mustParams(t, &out)}
	if err := ctrl.CommandFinished(ctx, res); err == nil || !strings.Contains(err.Error(), "ragged") {
		t.Errorf("ragged segment output: err = %v, want a ragged-output error", err)
	}
}

func TestMSMMarkovianityAnalysis(t *testing.T) {
	ctx := newFakeCtx(t)
	ctrl := NewMSMController()
	p := tinyMSMParams()
	if err := ctrl.Start(ctx, mustParams(t, &p)); err != nil {
		t.Fatal(err)
	}
	if err := ctx.pump(ctrl, 1000); err != nil {
		t.Fatal(err)
	}
	var res MSMResult
	if err := wire.Unmarshal(ctx.result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.ProbeLagsNs) == 0 || len(res.ProbeLagsNs) != len(res.ImpliedTimescales) {
		t.Fatalf("lag sensitivity missing: %d lags, %d timescales",
			len(res.ProbeLagsNs), len(res.ImpliedTimescales))
	}
	for i, ts := range res.ImpliedTimescales {
		if ts < 0 {
			t.Errorf("implied timescale at lag %v ns is negative: %v", res.ProbeLagsNs[i], ts)
		}
	}
	if res.CKError < 0 || res.CKError > 1 {
		t.Errorf("CK error = %v outside [0,1]", res.CKError)
	}
}

// --- BAR controller ---

func tinyBARParams() BARParams {
	p := DefaultBARParams()
	p.Windows = 2
	p.SamplesPerCommand = 300
	p.BatchPerWindow = 1
	p.TargetStdErr = 0.2
	p.Offset = 1.5
	return p
}

func TestBARControllerConverges(t *testing.T) {
	ctx := newFakeCtx(t)
	ctrl := NewBARController()
	p := tinyBARParams()
	if err := ctrl.Start(ctx, mustParams(t, &p)); err != nil {
		t.Fatal(err)
	}
	if err := ctx.pump(ctrl, 200); err != nil {
		t.Fatal(err)
	}
	if !ctx.finished {
		t.Fatal("BAR project did not finish")
	}
	var res BARResult
	if err := wire.Unmarshal(ctx.result, &res); err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Total.DeltaF-1.5) > 0.25 {
		t.Errorf("ΔF = %v, exact 1.5", res.Total.DeltaF)
	}
	if res.Total.StdErr > p.TargetStdErr && res.Rounds < p.MaxRounds {
		t.Errorf("finished above target error: %+v", res.Total)
	}
	if len(res.Windows) != 2 {
		t.Errorf("windows = %d", len(res.Windows))
	}
}

func TestBARAddsRoundsUntilTarget(t *testing.T) {
	// A tight error target forces multiple sampling rounds — the paper's
	// "run until the standard error reaches a user-specified minimum".
	ctx := newFakeCtx(t)
	ctrl := NewBARController()
	p := tinyBARParams()
	p.SamplesPerCommand = 50
	p.TargetStdErr = 0.03
	p.MaxRounds = 30
	if err := ctrl.Start(ctx, mustParams(t, &p)); err != nil {
		t.Fatal(err)
	}
	if err := ctx.pump(ctrl, 500); err != nil {
		t.Fatal(err)
	}
	var res BARResult
	if err := wire.Unmarshal(ctx.result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 2 {
		t.Errorf("expected multiple rounds, got %d", res.Rounds)
	}
	if res.Total.StdErr > p.TargetStdErr {
		t.Errorf("stopped above target: %v > %v after %d rounds",
			res.Total.StdErr, p.TargetStdErr, res.Rounds)
	}
}

func TestBARParamValidation(t *testing.T) {
	bad := []func(*BARParams){
		func(p *BARParams) { p.Windows = 0 },
		func(p *BARParams) { p.SamplesPerCommand = 1 },
		func(p *BARParams) { p.BatchPerWindow = 0 },
		func(p *BARParams) { p.TargetStdErr = 0 },
	}
	for i, mutate := range bad {
		ctx := newFakeCtx(t)
		p := tinyBARParams()
		mutate(&p)
		if err := NewBARController().Start(ctx, mustParams(t, &p)); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestBARDeterministic(t *testing.T) {
	run := func() float64 {
		ctx := newFakeCtx(t)
		ctrl := NewBARController()
		p := tinyBARParams()
		if err := ctrl.Start(ctx, mustParams(t, &p)); err != nil {
			t.Fatal(err)
		}
		if err := ctx.pump(ctrl, 200); err != nil {
			t.Fatal(err)
		}
		var res BARResult
		if err := wire.Unmarshal(ctx.result, &res); err != nil {
			t.Fatal(err)
		}
		return res.Total.DeltaF
	}
	if run() != run() {
		t.Error("BAR project not deterministic")
	}
}

// TestBARRoundEndedByFailureSetsStatus: a round whose last command is lost
// goes through the same round step as one whose last command reports, so the
// monitor sees the new round either way (the failure path used to skip
// SetStatus and leave the previous round's note standing).
func TestBARRoundEndedByFailureSetsStatus(t *testing.T) {
	p := tinyBARParams()
	p.SamplesPerCommand = 50
	p.TargetStdErr = 0.001 // out of reach: round 1 cannot finish the project
	status := func(endByFailure bool) (int, string) {
		ctx := newFakeCtx(t)
		ctrl := NewBARController()
		if err := ctrl.Start(ctx, mustParams(t, &p)); err != nil {
			t.Fatal(err)
		}
		if err := ctx.pumpN(ctrl, 1); err != nil {
			t.Fatal(err)
		}
		last := ctx.queue[0]
		if endByFailure {
			ctx.queue = ctx.queue[1:]
			if err := ctrl.CommandFailed(ctx, last, "worker lost"); err != nil {
				t.Fatal(err)
			}
		} else if err := ctx.pumpN(ctrl, 1); err != nil {
			t.Fatal(err)
		}
		if len(ctx.queue) != p.Windows*p.BatchPerWindow {
			t.Fatalf("round 2 queued %d commands, want %d", len(ctx.queue), p.Windows*p.BatchPerWindow)
		}
		return ctx.generation, ctx.note
	}
	gen, note := status(false)
	if gen != 2 || !strings.HasPrefix(note, "round 2: ΔF=") {
		t.Fatalf("result-ended round: generation %d, note %q", gen, note)
	}
	gen, note = status(true)
	if gen != 2 || !strings.HasPrefix(note, "round 2: ΔF=") {
		t.Errorf("failure-ended round: generation %d, note %q; a result-ended round sets generation 2 and a round-2 note", gen, note)
	}
}
