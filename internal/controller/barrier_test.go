package controller

import (
	"fmt"
	"runtime"
	"strconv"
	"testing"

	"copernicus/internal/wire"
)

// runCampaign drives an MSM project to completion on the synchronous fake
// context and returns its decoded result.
func runCampaign(t *testing.T, ctx *fakeCtx, ctrl Controller) *MSMResult {
	t.Helper()
	if err := ctx.pump(ctrl, 100000); err != nil {
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

// TestBatchCampaignMatchesParentGolden pins "same model, not a similar one".
// The table was printed by this campaign (the benchmark's shape: 4 × 4
// trajectories, 32 segments of 100 ns a generation, 80 clusters; fake-context
// seed 7, one command at a time) at the commit before the barrier kept
// k-centers' assignment, pruned by the triangle inequality and read the
// append-only frame set — when it gathered every frame afresh, ran the
// unpruned KCenters and then AssignAll. The values are exact: the new
// barrier must build bitwise the same clustering and hence the same model.
func TestBatchCampaignMatchesParentGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden values were captured on amd64; the engine's floating point may fuse differently elsewhere")
	}
	golden := []struct {
		frames, states             int
		topStateRMSD, foldedPiFrac float64
		spawnedStates              int
	}{
		{2160, 76, 11.04750472768713, 0, 11},
		{4320, 80, 1.6991618764201446, 0.6964505516369855, 14},
		{6480, 78, 12.060380744304734, 0, 15},
		{8640, 78, 14.156420086133956, 0, 14},
		{10800, 80, 0.9423419006709701, 0.6907606337104254, 15},
		{12960, 80, 2.3087488320060374, 0.4777491391199567, 15},
		{15120, 80, 1.9333856073493565, 0.47805697829978944, 12},
		{17280, 80, 2.1803572402382088, 0.37743995183439294, 14},
		{19440, 80, 0.5490873901874099, 0.5573210804160504, 15},
		{21600, 80, 1.8763938883253042, 0.4622501238988549, 0},
	}
	const (
		goldenTHalfNs  = 358.07832251984496
		goldenCKError  = 0.0016610631569943038
		goldenSlowest  = 219.01441487965488 // implied timescale at the longest probe lag
		goldenTotalSim = 32160.0
	)
	p := DefaultMSMParams()
	p.NStarts, p.TasksPerStart, p.SegmentsPerGen = 4, 4, 32
	p.SegmentNs, p.Clusters, p.Generations = 100, 80, len(golden)
	ctx := newFakeCtx(t)
	ctrl := NewMSMController()
	if err := ctrl.Start(ctx, mustParams(t, &p)); err != nil {
		t.Fatal(err)
	}
	res := runCampaign(t, ctx, ctrl)
	if len(res.Generations) != len(golden) {
		t.Fatalf("%d generations, want %d", len(res.Generations), len(golden))
	}
	for i, want := range golden {
		g := res.Generations[i]
		if g.FramesTotal != want.frames || g.States != want.states || g.TopStateRMSD != want.topStateRMSD ||
			g.FoldedPiFrac != want.foldedPiFrac || g.SpawnedStates != want.spawnedStates {
			t.Errorf("generation %d: frames %d states %d top RMSD %v folded %v spawned %d, parent had %+v",
				i, g.FramesTotal, g.States, g.TopStateRMSD, g.FoldedPiFrac, g.SpawnedStates, want)
		}
	}
	last := res.Generations[len(golden)-1]
	if res.THalfNs != goldenTHalfNs || res.CKError != goldenCKError || last.SimulatedNs != goldenTotalSim ||
		len(res.ImpliedTimescales) != 4 || res.ImpliedTimescales[3] != goldenSlowest {
		t.Errorf("final analysis: t½ %v CK %v timescales %v simulated %v, parent had %v %v [… %v] %v",
			res.THalfNs, res.CKError, res.ImpliedTimescales, last.SimulatedNs,
			goldenTHalfNs, goldenCKError, goldenSlowest, goldenTotalSim)
	}
}

// TestRestoredCampaignRebuildsFrameSet covers the path only a restart
// takes: the frame set is not in the snapshot, so the first barrier after a
// restore refills it from every trajectory's frames — and must then cluster
// exactly what the uninterrupted controller, which appended cohort by
// cohort, clusters.
func TestRestoredCampaignRebuildsFrameSet(t *testing.T) {
	p := tinyMSMParams()
	p.Generations = 4
	start := func() (*fakeCtx, *MSMController) {
		ctx := newFakeCtx(t)
		ctrl := NewMSMController()
		if err := ctrl.Start(ctx, mustParams(t, &p)); err != nil {
			t.Fatal(err)
		}
		return ctx, ctrl
	}
	ctx, ctrl := start()
	base := runCampaign(t, ctx, ctrl)

	// Two barriers in, three segments into generation 2.
	ctx, ctrl = start()
	if err := ctx.pumpN(ctrl, 2*p.SegmentsPerGen+3); err != nil {
		t.Fatal(err)
	}
	if ctrl.st.Gen != 2 || ctrl.gathered == 0 || ctrl.points.Len() == 0 {
		t.Fatalf("before the cut: generation %d, %d trajectories gathered, %d frames held", ctrl.st.Gen, ctrl.gathered, ctrl.points.Len())
	}
	blob, err := ctrl.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewMSMController()
	if err := fresh.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if fresh.gathered != 0 || fresh.points.Len() != 0 {
		t.Fatalf("a restored controller starts with %d trajectories gathered, %d frames", fresh.gathered, fresh.points.Len())
	}
	// Up to the next barrier, then compare that generation.
	for len(fresh.st.Stats) < 3 {
		if err := ctx.pumpN(fresh, 1); err != nil {
			t.Fatal(err)
		}
	}
	got, want := fresh.st.Stats[2], base.Generations[2]
	got.AnalysisSeconds, want.AnalysisSeconds = 0, 0
	if got != want {
		t.Errorf("first barrier after the restore:\n%+v\nuninterrupted:\n%+v", got, want)
	}
	if fresh.points.Len() != want.FramesTotal || fresh.gathered != len(fresh.st.Trajs)-p.NStarts*p.TasksPerStart {
		t.Errorf("rebuilt set holds %d frames of %d trajectories, want %d frames of all but the new cohort (%d)",
			fresh.points.Len(), fresh.gathered, want.FramesTotal, len(fresh.st.Trajs)-p.NStarts*p.TasksPerStart)
	}
	rest := runCampaign(t, ctx, fresh)
	for i := range base.Generations {
		g, b := rest.Generations[i], base.Generations[i]
		g.AnalysisSeconds, b.AnalysisSeconds = 0, 0
		if g != b {
			t.Errorf("generation %d diverged after the restore:\n%+v\n%+v", i, g, b)
		}
	}
	if rest.THalfNs != base.THalfNs || rest.CKError != base.CKError {
		t.Errorf("final analysis diverged: t½ %v vs %v, CK %v vs %v", rest.THalfNs, base.THalfNs, rest.CKError, base.CKError)
	}
}

// TestTotalNsIsDeterministic: floating-point addition does not commute in
// its last bits, so summing trajectory end times in map order made
// GenerationStats.SimulatedNs differ between two runs of one campaign.
func TestTotalNsIsDeterministic(t *testing.T) {
	c := NewMSMController()
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("traj-%04d", i)
		// Non-representable end times of mixed magnitude: any two orders of
		// summation are likely to round differently.
		c.st.Trajs = append(c.st.Trajs, &msmTraj{ID: id, Times: []float64{0, 0.1 * float64(i+1) * float64(1+i%7*1000) / 3}})
	}
	seen := map[float64]bool{}
	for i := 0; i < 200; i++ {
		seen[c.totalNs()] = true
	}
	if len(seen) != 1 {
		t.Errorf("totalNs took %d distinct values over 200 calls on the same trajectories", len(seen))
	}
}

// TestGenerationSpanSeparatesAnalysisFromRun: the per-generation span
// carries the frame count and the barrier's own seconds, so a slow
// generation can be split into pause and run from the trace alone.
func TestGenerationSpanSeparatesAnalysisFromRun(t *testing.T) {
	ctx := newFakeCtx(t)
	ctrl := NewMSMController()
	p := tinyMSMParams()
	if err := ctrl.Start(ctx, mustParams(t, &p)); err != nil {
		t.Fatal(err)
	}
	res := runCampaign(t, ctx, ctrl)
	gen := 0
	for _, s := range ctx.obs.Trace.Spans() {
		if s.Attrs["event"] != "generation" {
			continue
		}
		want := res.Generations[gen]
		if s.Attrs["frames"] != strconv.Itoa(want.FramesTotal) {
			t.Errorf("generation %d span: frames=%q, want %d", gen, s.Attrs["frames"], want.FramesTotal)
		}
		secs, err := strconv.ParseFloat(s.Attrs["analysis_s"], 64)
		if err != nil || secs <= 0 || secs > s.Duration.Seconds() {
			t.Errorf("generation %d span: analysis_s=%q (%v) in a generation of %v", gen, s.Attrs["analysis_s"], err, s.Duration)
		}
		gen++
	}
	if gen != len(res.Generations) {
		t.Errorf("%d generation spans for %d generations", gen, len(res.Generations))
	}
}
