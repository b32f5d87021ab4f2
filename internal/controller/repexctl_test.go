package controller

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"copernicus/internal/repex"
	"copernicus/internal/wire"
)

func tinyRepexParams() RepexParams {
	p := DefaultRepexParams()
	p.SystemN = 64
	p.Replicas = 3
	p.SegmentSteps = 20
	p.Epochs = 3
	p.CheckpointEvery = 10
	return p
}

func TestRepexParamValidation(t *testing.T) {
	cases := []func(*RepexParams){
		func(p *RepexParams) { p.Replicas = 1 },
		func(p *RepexParams) { p.TMin = 0 },
		func(p *RepexParams) { p.TMax = p.TMin },
		func(p *RepexParams) { p.Mode = "psync" },
		func(p *RepexParams) { p.SegmentSteps = 0 },
		func(p *RepexParams) { p.Epochs = 0 },
	}
	for i, mutate := range cases {
		p := tinyRepexParams()
		mutate(&p)
		ctx := newFakeCtx(t)
		if err := NewRepexController().Start(ctx, mustParams(t, &p)); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

// TestRepexSyncCompletes drives a barriered ladder to completion: every
// epoch submits one solo segment per rung, exchange attempts follow the
// even/odd sweep schedule once all have reported, and the result carries
// the acceptance statistics.
func TestRepexSyncCompletes(t *testing.T) {
	ctx := newFakeCtx(t)
	ctrl := NewRepexController()
	p := tinyRepexParams()
	if err := ctrl.Start(ctx, mustParams(t, &p)); err != nil {
		t.Fatal(err)
	}
	if len(ctx.queue) != p.Replicas {
		t.Fatalf("initial queue = %d commands, want %d", len(ctx.queue), p.Replicas)
	}
	for r, cmd := range ctx.queue {
		if cmd.GangID != "" || cmd.GangSize != 0 {
			t.Errorf("sync segment %s carries gang fields %q/%d", cmd.ID, cmd.GangID, cmd.GangSize)
		}
		if !strings.HasSuffix(cmd.ID, fmt.Sprintf("-r%02d", r)) {
			t.Errorf("segment %d is %s", r, cmd.ID)
		}
	}
	if err := ctx.pump(ctrl, 100); err != nil {
		t.Fatal(err)
	}
	if !ctx.finished {
		t.Fatal("sync project did not finish")
	}
	var res RepexResult
	if err := wire.Unmarshal(ctx.result, &res); err != nil {
		t.Fatal(err)
	}
	if res.SegmentsRun != p.Replicas*p.Epochs {
		t.Errorf("segments = %d, want %d", res.SegmentsRun, p.Replicas*p.Epochs)
	}
	// 3 epochs over 3 rungs: even sweeps attempt pair 0, odd sweeps pair 1.
	var want uint64
	for e := 0; e < p.Epochs; e++ {
		want += uint64(len(repex.SweepPairs(p.Replicas, e%2 == 1)))
	}
	var got uint64
	for _, a := range res.Attempts {
		got += a
	}
	if got != want {
		t.Errorf("attempts = %d, want %d", got, want)
	}
	for r, u := range res.FinalPotentials {
		if u == 0 {
			t.Errorf("rung %d final potential missing", r)
		}
	}
}

// TestRepexAsyncCompletes drives the barrier-free ladder: replicas pair
// with waiting neighbours, stragglers are kicked when their neighbours
// retire, and every rung still runs its full epoch budget.
func TestRepexAsyncCompletes(t *testing.T) {
	ctx := newFakeCtx(t)
	ctrl := NewRepexController()
	p := tinyRepexParams()
	p.Mode = "async"
	if err := ctrl.Start(ctx, mustParams(t, &p)); err != nil {
		t.Fatal(err)
	}
	for _, cmd := range ctx.queue {
		if cmd.GangID != "" || cmd.GangSize != 0 {
			t.Errorf("async command %s carries gang fields", cmd.ID)
		}
	}
	if err := ctx.pump(ctrl, 200); err != nil {
		t.Fatal(err)
	}
	if !ctx.finished {
		t.Fatal("async project did not finish")
	}
	var res RepexResult
	if err := wire.Unmarshal(ctx.result, &res); err != nil {
		t.Fatal(err)
	}
	if res.SegmentsRun != p.Replicas*p.Epochs {
		t.Errorf("segments = %d, want %d", res.SegmentsRun, p.Replicas*p.Epochs)
	}
	var attempts uint64
	for _, a := range res.Attempts {
		attempts += a
	}
	if attempts == 0 {
		t.Error("async ladder never attempted an exchange")
	}
}

// TestRepexSyncDeterministic: identical parameters and seeds produce a
// bitwise-identical result blob — the property the failover test builds
// on.
func TestRepexSyncDeterministic(t *testing.T) {
	run := func() []byte {
		ctx := newFakeCtx(t)
		ctrl := NewRepexController()
		p := tinyRepexParams()
		if err := ctrl.Start(ctx, mustParams(t, &p)); err != nil {
			t.Fatal(err)
		}
		if err := ctx.pump(ctrl, 100); err != nil {
			t.Fatal(err)
		}
		if !ctx.finished {
			t.Fatal("project did not finish")
		}
		return ctx.result
	}
	if !bytes.Equal(run(), run()) {
		t.Error("two identical sync runs produced different results")
	}
}

// TestRepexSyncLossRerunsOnlyThatRung: rung 0 reports, then rung 1's
// segment fails terminally. Only that segment is resubmitted — to the same
// boundary from the same start state — and no sibling is terminated, so rung
// 0's result is folded once and the ladder runs exactly Replicas·Epochs
// segments.
func TestRepexSyncLossRerunsOnlyThatRung(t *testing.T) {
	ctx := newFakeCtx(t)
	ctrl := NewRepexController()
	p := tinyRepexParams()
	if err := ctrl.Start(ctx, mustParams(t, &p)); err != nil {
		t.Fatal(err)
	}
	if err := ctx.pumpN(ctrl, 1); err != nil { // rung 0 reports
		t.Fatal(err)
	}
	victim, sibling := ctx.queue[0], ctx.queue[1]
	ctx.queue = ctx.queue[1:] // rung 1's worker died
	if err := ctrl.CommandFailed(ctx, victim, "worker lost"); err != nil {
		t.Fatal(err)
	}
	if len(ctx.terminated) != 0 {
		t.Errorf("siblings terminated on a single rung's loss: %v", ctx.terminated)
	}
	var queued []string
	for _, cmd := range ctx.queue {
		queued = append(queued, cmd.ID)
	}
	if len(queued) != 2 || queued[0] != sibling.ID {
		t.Errorf("queue after the loss = %v, want rung 2's %s then rung 1's rerun", queued, sibling.ID)
	} else if rerun := ctx.queue[1]; !strings.HasSuffix(rerun.ID, "-r01") || rerun.ID == victim.ID {
		t.Errorf("rerun = %s, want a fresh command for rung 1", rerun.ID)
	} else if !bytes.Equal(rerun.Payload, victim.Payload) {
		t.Error("rerun does not repeat the lost segment (target step or start state moved)")
	}
	if err := ctx.pump(ctrl, 100); err != nil {
		t.Fatal(err)
	}
	if !ctx.finished {
		t.Fatal("project did not finish after the loss")
	}
	var res RepexResult
	if err := wire.Unmarshal(ctx.result, &res); err != nil {
		t.Fatal(err)
	}
	if res.SegmentsRun != p.Replicas*p.Epochs {
		t.Errorf("segments = %d, want %d", res.SegmentsRun, p.Replicas*p.Epochs)
	}
}

// TestRepexAsyncFailureResubmitsSegment: async mode resubmits only the
// lost rung's segment.
func TestRepexAsyncFailureResubmitsSegment(t *testing.T) {
	ctx := newFakeCtx(t)
	ctrl := NewRepexController()
	p := tinyRepexParams()
	p.Mode = "async"
	if err := ctrl.Start(ctx, mustParams(t, &p)); err != nil {
		t.Fatal(err)
	}
	victim := ctx.queue[0]
	rest := len(ctx.queue) - 1
	ctx.queue = ctx.queue[1:]
	if err := ctrl.CommandFailed(ctx, victim, "worker lost"); err != nil {
		t.Fatal(err)
	}
	if len(ctx.queue) != rest+1 {
		t.Fatalf("queue = %d commands after resubmit, want %d", len(ctx.queue), rest+1)
	}
	if err := ctx.pump(ctrl, 200); err != nil {
		t.Fatal(err)
	}
	if !ctx.finished {
		t.Fatal("async project did not finish after segment loss")
	}
}

// TestRepexInspect: the live Detail blob decodes and tracks the stats.
func TestRepexInspect(t *testing.T) {
	ctx := newFakeCtx(t)
	ctrl := NewRepexController()
	p := tinyRepexParams()
	if err := ctrl.Start(ctx, mustParams(t, &p)); err != nil {
		t.Fatal(err)
	}
	if err := ctx.pump(ctrl, 100); err != nil {
		t.Fatal(err)
	}
	blob, err := ctrl.Inspect()
	if err != nil {
		t.Fatal(err)
	}
	var d RepexDetail
	if err := wire.Unmarshal(blob, &d); err != nil {
		t.Fatal(err)
	}
	if d.Mode != "sync" || len(d.Temps) != p.Replicas || len(d.Attempts) != p.Replicas-1 {
		t.Errorf("detail = %+v", d)
	}
	if d.Segments != p.Replicas*p.Epochs {
		t.Errorf("detail segments = %d, want %d", d.Segments, p.Replicas*p.Epochs)
	}
	var res RepexResult
	if err := wire.Unmarshal(ctx.result, &res); err != nil {
		t.Fatal(err)
	}
	for i := range d.Attempts {
		if d.Attempts[i] != res.Attempts[i] || d.Accepts[i] != res.Accepts[i] {
			t.Errorf("detail pair %d diverges from result", i)
		}
	}
}

// TestRepexSaveRestoreMidRunMatchesUninterrupted mirrors the MSM/BAR
// durability tests: interrupt after one result, round-trip the state
// through gob, and require the continuation to finish bitwise-identical
// to an uninterrupted run.
func TestRepexSaveRestoreMidRunMatchesUninterrupted(t *testing.T) {
	run := func(interrupt bool) []byte {
		ctx := newFakeCtx(t)
		var ctrl Controller = NewRepexController()
		p := tinyRepexParams()
		if err := ctrl.Start(ctx, mustParams(t, &p)); err != nil {
			t.Fatal(err)
		}
		if interrupt {
			if err := ctx.pumpN(ctrl, 1); err != nil {
				t.Fatal(err)
			}
			blob, err := ctrl.(Durable).SaveState()
			if err != nil {
				t.Fatal(err)
			}
			fresh := NewRepexController()
			if err := fresh.RestoreState(blob); err != nil {
				t.Fatal(err)
			}
			ctrl = fresh
		}
		if err := ctx.pump(ctrl, 200); err != nil {
			t.Fatal(err)
		}
		if !ctx.finished {
			t.Fatal("project did not finish")
		}
		return ctx.result
	}
	a, b := run(false), run(true)
	if !bytes.Equal(a, b) {
		var ra, rb RepexResult
		_ = wire.Unmarshal(a, &ra)
		_ = wire.Unmarshal(b, &rb)
		t.Errorf("restored run diverged:\nuninterrupted: %+v\nrestored:      %+v", ra, rb)
	}
}

func TestRepexDurableRejectsGarbage(t *testing.T) {
	if err := NewRepexController().RestoreState([]byte("nonsense")); err == nil {
		t.Error("repex accepted garbage state")
	}
}
