package controller

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"copernicus/internal/engines"
	"copernicus/internal/wire"
)

// --- toy controller: everything a plugin has to write on the campaign ---
// Up to Rounds rounds of PerRound sampling commands; stop early once the
// standard error of the mean forward work drops under Threshold.

type toyParams struct {
	Rounds, PerRound int
	Threshold        float64
	Seed             uint64
}

type toyState struct {
	P           toyParams
	Round       int
	N           int
	Sum, SumSqr float64
	Lost        int
}

type toyResult struct {
	Rounds, Samples, Lost int
	Mean, StdErr          float64
}

type toyController struct {
	campaign[int] // slot: the command's index within its round
	st            toyState
}

func newToyController() *toyController {
	c := &toyController{}
	c.campaign = newCampaign[int]("toy", c, &c.st)
	return c
}

func (c *toyController) Start(ctx Context, params []byte) error {
	if err := wire.Unmarshal(params, &c.st.P); err != nil {
		return err
	}
	c.seed(c.st.P.Seed ^ ctx.Seed())
	return c.submitRound(ctx)
}

func (c *toyController) submitRound(ctx Context) error {
	c.st.Round++
	ctx.SetStatus(c.st.Round, fmt.Sprintf("round %d", c.st.Round))
	for i := 0; i < c.st.P.PerRound; i++ {
		cmd := wire.CommandSpec{ID: fmt.Sprintf("toy-%04d", c.led.NextCmd), Type: engines.BARName, MinCores: 1, MaxCores: 1}
		err := c.submit(ctx, i, &cmd, &engines.BARPayload{LambdaTo: 1, Displacement: 1, NSamples: 20, Seed: c.rand.Uint64()})
		if err != nil {
			return err
		}
	}
	return nil
}

func (c *toyController) fold(_ Context, _ int, res *wire.CommandResult) error {
	var out engines.BAROutput
	if err := wire.Unmarshal(res.Output, &out); err != nil {
		return err
	}
	for _, w := range out.Forward {
		c.st.N++
		c.st.Sum += w
		c.st.SumSqr += w * w
	}
	return nil
}

func (c *toyController) lost(Context, int, wire.CommandSpec, string) error {
	c.st.Lost++
	return nil
}

func (c *toyController) round(ctx Context) error {
	n := float64(c.st.N)
	mean := c.st.Sum / n
	stderr := math.Sqrt((c.st.SumSqr/n - mean*mean) / n)
	if stderr >= c.st.P.Threshold && c.st.Round < c.st.P.Rounds {
		return c.submitRound(ctx)
	}
	blob, err := wire.Marshal(&toyResult{Rounds: c.st.Round, Samples: c.st.N, Lost: c.st.Lost, Mean: mean, StdErr: stderr})
	ctx.Finish(blob)
	return err
}

// --- end of toy controller ---

// TestToyControllerFitsInAHundredLines holds the campaign to its promise: a
// complete, durable controller is what is between the two markers above.
func TestToyControllerFitsInAHundredLines(t *testing.T) {
	src, err := os.ReadFile("campaign_test.go")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, _ := strings.Cut(string(src), "// --- toy controller")
	toy, _, ok := strings.Cut(rest, "// --- end of toy controller")
	if n := strings.Count(toy, "\n"); !ok || n >= 100 {
		t.Errorf("toy controller is %d lines (markers found: %v), want < 100", n, ok)
	}
	if strings.Contains(toy, "SaveState") || strings.Contains(toy, "RestoreState") {
		t.Error("toy controller writes its own save/restore")
	}
}

// TestToyControllerSurvivesMidRoundRestore: the toy controller is killed in
// the middle of a round — commands in flight, RNG advanced, one command lost
// for good — restored on a fresh instance from the campaign's snapshot alone,
// and must finish with the result of the run that was never interrupted.
func TestToyControllerSurvivesMidRoundRestore(t *testing.T) {
	p := toyParams{Rounds: 6, PerRound: 4, Threshold: 0.05, Seed: 3}
	run := func(cut int) []byte {
		ctx := newFakeCtx(t)
		var ctrl Controller = newToyController()
		if err := ctrl.Start(ctx, mustParams(t, &p)); err != nil {
			t.Fatal(err)
		}
		victim := ctx.queue[2]
		ctx.queue = append(ctx.queue[:2:2], ctx.queue[3:]...)
		if err := ctrl.CommandFailed(ctx, victim, "worker lost"); err != nil {
			t.Fatal(err)
		}
		if cut > 0 {
			if err := ctx.pumpN(ctrl, cut); err != nil {
				t.Fatal(err)
			}
			if ctx.generation != 2 || len(ctx.queue) != 2 {
				t.Fatalf("cut %d lands in round %d with %d queued, want mid-round 2", cut, ctx.generation, len(ctx.queue))
			}
			blob, err := ctrl.(Durable).SaveState()
			if err != nil {
				t.Fatal(err)
			}
			fresh := newToyController()
			if err := fresh.RestoreState(blob); err != nil {
				t.Fatal(err)
			}
			ctrl = fresh
		}
		if err := ctx.pump(ctrl, 1000); err != nil {
			t.Fatal(err)
		}
		if !ctx.finished {
			t.Fatal("toy project did not finish")
		}
		return ctx.result
	}
	// Round 1 is three results (four commands less the lost one); two more
	// land in the middle of round 2.
	base, restored := run(0), run(3+2)
	var res toyResult
	if err := wire.Unmarshal(base, &res); err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 2 || res.Lost != 1 || res.Samples != (res.Rounds*p.PerRound-1)*20 {
		t.Errorf("uninterrupted run: %+v", res)
	}
	if res.StdErr >= p.Threshold && res.Rounds < p.Rounds {
		t.Errorf("stopped early above the threshold: %+v", res)
	}
	if !bytes.Equal(base, restored) {
		var got toyResult
		_ = wire.Unmarshal(restored, &got)
		t.Errorf("restored run finished with %+v, uninterrupted with %+v", got, res)
	}
}

// parentSnapshot is one testdata/*.gob fixture: a controller snapshot written
// by SaveState at the commit before the campaign loop (mirror structs copied
// field by field in durable.go), the commands that were queued at that
// moment, and the project result that build went on to produce from there.
// Captured bytes; do not regenerate from current code.
type parentSnapshot struct {
	State  []byte
	Queue  []wire.CommandSpec
	Result []byte
}

// TestRestoresParentWrittenSnapshots: every bundled controller restores the
// snapshot the previous build wrote and finishes with that build's result,
// byte for byte, except that an MSM result's floats may sit goldenRelTol
// from the parent's (the landscape engine's angular wells round differently
// since it stopped calling atan2). The cuts: MSM batch inside generation 1
// after a terminal failure (the live segment target and the parameters are
// the other way round in that layout); MSM streaming mid-generation with one
// command half streamed (its restored watermark is what keeps fold from
// folding those frames twice, now that the rest come in the result); BAR one
// command into round 2; REMD sync one rung into epoch 2; REMD async with a
// rung parked at its boundary.
func TestRestoresParentWrittenSnapshots(t *testing.T) {
	// Results are compared re-encoded by this process, so gob's per-process
	// type numbering cannot differ; the MSM's wall-clock field is cleared.
	recode := func(t *testing.T, raw []byte, into any) []byte {
		t.Helper()
		if err := wire.Unmarshal(raw, into); err != nil {
			t.Fatal(err)
		}
		if res, ok := into.(*MSMResult); ok {
			for i := range res.Generations {
				res.Generations[i].AnalysisSeconds = 0
			}
		}
		return mustParams(t, into)
	}
	cases := []struct {
		name   string
		fresh  func() Controller
		result func() any
	}{
		{"msm_batch", func() Controller { return NewMSMController() }, func() any { return new(MSMResult) }},
		{"msm_stream", func() Controller { return NewMSMController() }, func() any { return new(MSMResult) }},
		{"bar", func() Controller { return NewBARController() }, func() any { return new(BARResult) }},
		{"repex_sync", func() Controller { return NewRepexController() }, func() any { return new(RepexResult) }},
		{"repex_async", func() Controller { return NewRepexController() }, func() any { return new(RepexResult) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("testdata", tc.name+".gob"))
			if err != nil {
				t.Fatal(err)
			}
			var snap parentSnapshot
			if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&snap); err != nil {
				t.Fatal(err)
			}
			// finishFrom restores state on a fresh controller, runs the
			// project out, and returns its result.
			finishFrom := func(state []byte) []byte {
				ctrl := tc.fresh()
				if err := ctrl.(Durable).RestoreState(state); err != nil {
					t.Fatalf("RestoreState: %v", err)
				}
				ctx := newFakeCtx(t)
				ctx.queue = append([]wire.CommandSpec(nil), snap.Queue...)
				if err := ctx.pump(ctrl, 10000); err != nil || !ctx.finished {
					t.Fatalf("restored project: finished=%v err=%v (%s)", ctx.finished, err, ctx.note)
				}
				return recode(t, ctx.result, tc.result())
			}
			want := recode(t, snap.Result, tc.result())
			decoded := func(raw []byte) any {
				v := tc.result()
				_ = wire.Unmarshal(raw, v)
				return v
			}
			got := finishFrom(snap.State)
			if !bytes.Equal(want, got) {
				w, g := decoded(want), decoded(got)
				diff := "not the same bytes"
				if _, msm := g.(*MSMResult); msm {
					var gap float64
					diff, gap = resultGap(g, w, goldenRelTol)
					t.Logf("largest relative gap from the parent's floats: %.2g", gap)
				}
				if diff != "" {
					t.Errorf("the restored project finished with a different result than the parent's: %s\nparent's:     %+v\nthis build's: %+v", diff, w, g)
				}
			}
			// What this build saves is the same state: restore, save again,
			// and the continuation does not change, to the bit.
			restored := tc.fresh().(Durable)
			if err := restored.RestoreState(snap.State); err != nil {
				t.Fatal(err)
			}
			blob, err := restored.SaveState()
			if err != nil {
				t.Fatal(err)
			}
			if again := finishFrom(blob); !bytes.Equal(got, again) {
				t.Errorf("a re-saved snapshot continues differently:\nrestored:  %+v\nre-saved: %+v", decoded(got), decoded(again))
			}
		})
	}
}
