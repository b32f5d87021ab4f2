package controller

import (
	"os"
	"runtime"
	"testing"

	"copernicus/internal/wire"
)

func tinyStreamParams() MSMParams {
	p := tinyMSMParams()
	p.Stream = true
	p.StreamEveryNs = 4 // read by nothing; the build that captured the golden streamed at it, and results carry it
	p.ConvergeTol = 0.05
	p.ConvergeChecks = 2
	return p
}

// TestMSMStreamingFullRun drives a streaming project to completion and
// checks the incremental generations really ran incrementally.
func TestMSMStreamingFullRun(t *testing.T) {
	ctx := newFakeCtx(t)
	ctrl := NewMSMController()
	p := tinyStreamParams()
	if err := ctrl.Start(ctx, mustParams(t, &p)); err != nil {
		t.Fatal(err)
	}
	if err := ctx.pump(ctrl, 1000); err != nil {
		t.Fatal(err)
	}
	if !ctx.finished {
		t.Fatalf("project did not finish (gen %d: %s)", ctx.generation, ctx.note)
	}
	var res MSMResult
	if err := wire.Unmarshal(ctx.result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Generations) != p.Generations {
		t.Fatalf("generations = %d, want %d", len(res.Generations), p.Generations)
	}
	for i, g := range res.Generations {
		last := i == len(res.Generations)-1
		if g.Streamed == last {
			// Every intermediate generation is incremental; the final one
			// always takes the batch path so finish() figures are exact.
			t.Errorf("generation %d: Streamed = %v", i, g.Streamed)
		}
		if g.FramesTotal <= 0 || g.States <= 0 {
			t.Errorf("generation %d: empty stats %+v", i, g)
		}
	}
}

// TestMSMStreamingMatchesParentGolden pins the streaming model across the
// removal of mid-command frame chunks. testdata/msm_stream_campaign.golden
// holds this campaign's MSMResult (wall-clock AnalysisSeconds zeroed) as the
// build that still streamed produced it, every chunk delivered to the
// controller before its command's result. This build takes a segment's
// frames from the result alone and must finish with the same result: exact
// in every integer, string and length, and within goldenRelTol in every
// float, which moved in the last bits when the landscape engine stopped
// calling atan2. Captured bytes; never regenerate them from current code.
func TestMSMStreamingMatchesParentGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden values were captured on amd64; the engine's floating point may fuse differently elsewhere")
	}
	p := tinyStreamParams()
	// A target three cohorts long, so the populations converge before it.
	p.SegmentsPerGen, p.Generations = 24, 5
	ctx := newFakeCtx(t)
	ctrl := NewMSMController()
	if err := ctrl.Start(ctx, mustParams(t, &p)); err != nil {
		t.Fatal(err)
	}
	got := runCampaign(t, ctx, ctrl)
	converged := false
	for i := range got.Generations {
		got.Generations[i].AnalysisSeconds = 0
		converged = converged || got.Generations[i].SegmentsDone < p.SegmentsPerGen
	}
	if !converged {
		t.Error("no generation triggered on convergence; the campaign no longer covers the trigger")
	}
	raw, err := os.ReadFile("testdata/msm_stream_campaign.golden")
	if err != nil {
		t.Fatal(err)
	}
	var want MSMResult
	if err := wire.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	diff, worst := resultGap(got, &want, goldenRelTol)
	if diff != "" {
		t.Errorf("the streaming campaign diverged from the parent's result: %s\n got  %+v\n want %+v", diff, got, &want)
	}
	t.Logf("largest relative gap from the parent's floats: %.2g", worst)
}

// TestMSMStreamingSaveRestore proves the durable snapshot carries the
// stream: a run restored mid-generation finishes with the same stats as an
// uninterrupted one.
func TestMSMStreamingSaveRestore(t *testing.T) {
	run := func(cut int) *MSMResult {
		ctx := newFakeCtx(t)
		var ctrl Controller = NewMSMController()
		p := tinyStreamParams()
		if err := ctrl.Start(ctx, mustParams(t, &p)); err != nil {
			t.Fatal(err)
		}
		pumped := 0
		for !ctx.finished {
			budget := 1
			if cut == 0 || pumped+1 < cut {
				budget = 1
			}
			if err := ctx.pump(ctrl, budget); err != nil && err.Error() != "pump budget exhausted" {
				t.Fatal(err)
			}
			pumped++
			if pumped > 1000 {
				t.Fatal("run did not converge")
			}
			if cut > 0 && pumped == cut {
				blob, err := ctrl.(Durable).SaveState()
				if err != nil {
					t.Fatal(err)
				}
				fresh := NewMSMController()
				if err := fresh.RestoreState(blob); err != nil {
					t.Fatal(err)
				}
				ctrl = fresh
			}
			if len(ctx.queue) == 0 && !ctx.finished {
				t.Fatalf("stalled at %d commands (gen %d: %s)", pumped, ctx.generation, ctx.note)
			}
		}
		var res MSMResult
		if err := wire.Unmarshal(ctx.result, &res); err != nil {
			t.Fatal(err)
		}
		return &res
	}
	base := run(0)
	for _, cut := range []int{2, 7} {
		got := run(cut)
		if len(got.Generations) != len(base.Generations) {
			t.Fatalf("cut=%d: %d generations, want %d", cut, len(got.Generations), len(base.Generations))
		}
		for i := range base.Generations {
			ga, gb := got.Generations[i], base.Generations[i]
			ga.AnalysisSeconds, gb.AnalysisSeconds = 0, 0
			if ga != gb {
				t.Errorf("cut=%d: generation %d diverged:\n%+v\n%+v", cut, i, ga, gb)
			}
		}
	}
}
