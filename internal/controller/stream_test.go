package controller

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"copernicus/internal/engines"
	"copernicus/internal/wire"
)

func tinyStreamParams() MSMParams {
	p := tinyMSMParams()
	p.Stream = true
	p.StreamEveryNs = 4 // 2 frames per chunk at FrameNs=2
	p.ConvergeTol = 0.05
	p.ConvergeChecks = 2
	return p
}

// pumpStream is pump with chunk delivery: each command runs through the
// engine's streaming path, emitted chunks are fed to the controller's
// FrameSink (unless drop says otherwise), and the final result follows —
// the same order the server produces.
func (c *fakeCtx) pumpStream(ctrl Controller, maxCommands int, drop func(cmdID string, seq int) bool) error {
	sink, _ := ctrl.(FrameSink)
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
		eng, ok := c.engs[cmd.Type].(engines.Streamer)
		if !ok {
			return fmt.Errorf("engine %q cannot stream", cmd.Type)
		}
		var chunks []*wire.FrameChunk
		out, err := eng.RunStream(context.Background(), cmd, 1, nil, func(ch *wire.FrameChunk) {
			cp := *ch
			chunks = append(chunks, &cp)
		})
		if err != nil {
			return err
		}
		for _, ch := range chunks {
			if drop != nil && drop(ch.CommandID, ch.Seq) {
				continue
			}
			if sink != nil {
				if err := sink.FrameChunk(c, ch); err != nil {
					return err
				}
			}
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

// TestMSMStreamingFullRun drives a streaming project to completion and
// checks the incremental generations really ran incrementally.
func TestMSMStreamingFullRun(t *testing.T) {
	ctx := newFakeCtx(t)
	ctrl := NewMSMController()
	p := tinyStreamParams()
	if err := ctrl.Start(ctx, mustParams(t, &p)); err != nil {
		t.Fatal(err)
	}
	if err := ctx.pumpStream(ctrl, 1000, nil); err != nil {
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

// TestMSMStreamingMatchesChunklessDelivery pins the healing property: a run
// whose chunks are all dropped (pure batch delivery) produces the same
// trajectories and the same adaptive decisions as one that got every chunk,
// because CommandFinished appends exactly the frames the stream missed.
func TestMSMStreamingMatchesChunklessDelivery(t *testing.T) {
	run := func(drop func(string, int) bool) *MSMResult {
		ctx := newFakeCtx(t)
		ctrl := NewMSMController()
		p := tinyStreamParams()
		if err := ctrl.Start(ctx, mustParams(t, &p)); err != nil {
			t.Fatal(err)
		}
		if err := ctx.pumpStream(ctrl, 1000, drop); err != nil {
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
	full := run(nil)
	none := run(func(string, int) bool { return true })
	everyOther := run(func(_ string, seq int) bool { return seq%2 == 1 })
	for name, other := range map[string]*MSMResult{"chunkless": none, "half-chunked": everyOther} {
		if len(other.Generations) != len(full.Generations) {
			t.Fatalf("%s: %d generations, want %d", name, len(other.Generations), len(full.Generations))
		}
		for i := range full.Generations {
			ga, gb := full.Generations[i], other.Generations[i]
			ga.AnalysisSeconds, gb.AnalysisSeconds = 0, 0
			if ga != gb {
				t.Errorf("%s: generation %d diverged:\n%+v\n%+v", name, i, ga, gb)
			}
		}
		if other.THalfNs != full.THalfNs || other.FinalTopStateRMSD != full.FinalTopStateRMSD {
			t.Errorf("%s: final analysis diverged", name)
		}
	}
}

// TestMSMStreamingChunkRedelivery delivers every chunk twice plus the final
// result; the watermark must absorb all of it without double-counting.
func TestMSMStreamingChunkRedelivery(t *testing.T) {
	ctx := newFakeCtx(t)
	ctrl := NewMSMController()
	p := tinyStreamParams()
	if err := ctrl.Start(ctx, mustParams(t, &p)); err != nil {
		t.Fatal(err)
	}
	cmd := ctx.queue[0]
	ctx.queue = ctx.queue[1:]
	eng := ctx.engs[cmd.Type].(engines.Streamer)
	var chunks []*wire.FrameChunk
	out, err := eng.RunStream(context.Background(), cmd, 1, nil, func(ch *wire.FrameChunk) {
		cp := *ch
		chunks = append(chunks, &cp)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range chunks { // first delivery
		if err := ctrl.FrameChunk(ctx, ch); err != nil {
			t.Fatal(err)
		}
	}
	trajID := ctrl.led.InFlight[cmd.ID]
	tr := ctrl.trajs[trajID]
	framesAfterOnce := len(tr.Frames)
	observed := ctrl.stream.Frames()
	for _, ch := range chunks { // full re-delivery
		if err := ctrl.FrameChunk(ctx, ch); err != nil {
			t.Fatal(err)
		}
	}
	if len(tr.Frames) != framesAfterOnce || ctrl.stream.Frames() != observed {
		t.Fatalf("re-delivery double-counted: %d → %d frames, %d → %d observed",
			framesAfterOnce, len(tr.Frames), observed, ctrl.stream.Frames())
	}
	// The final result must add only the tail the stream didn't carry.
	res := &wire.CommandResult{CommandID: cmd.ID, Project: "test", WorkerID: "w", OK: true, Output: out}
	if err := ctrl.CommandFinished(ctx, res); err != nil {
		t.Fatal(err)
	}
	wantFrames := int(p.SegmentNs/p.FrameNs) + 1 // frame 0 + one per FrameNs
	if len(tr.Frames) != wantFrames {
		t.Fatalf("trajectory has %d frames after final result, want %d", len(tr.Frames), wantFrames)
	}
}

// TestMSMStreamingLossWindow is the worker-death property the tentpole
// claims: when a command dies after streaming some chunks, the trajectory
// retains everything up to the last flush — the loss window is one flush
// interval, not the whole segment.
func TestMSMStreamingLossWindow(t *testing.T) {
	ctx := newFakeCtx(t)
	ctrl := NewMSMController()
	p := tinyStreamParams()
	if err := ctrl.Start(ctx, mustParams(t, &p)); err != nil {
		t.Fatal(err)
	}
	cmd := ctx.queue[0]
	ctx.queue = ctx.queue[1:]
	eng := ctx.engs[cmd.Type].(engines.Streamer)
	var chunks []*wire.FrameChunk
	if _, err := eng.RunStream(context.Background(), cmd, 1, nil, func(ch *wire.FrameChunk) {
		cp := *ch
		chunks = append(chunks, &cp)
	}); err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 2 {
		t.Fatalf("test needs at least 2 chunks, got %d", len(chunks))
	}
	// Deliver all but the final chunk, then kill the command.
	var lastStreamed int
	for _, ch := range chunks[:len(chunks)-1] {
		if err := ctrl.FrameChunk(ctx, ch); err != nil {
			t.Fatal(err)
		}
		lastStreamed = ch.FirstFrame + len(ch.Frames)
	}
	trajID := ctrl.led.InFlight[cmd.ID]
	tr := ctrl.trajs[trajID]
	if err := ctrl.CommandFailed(ctx, cmd, "worker died"); err != nil {
		t.Fatal(err)
	}
	if tr.Alive {
		t.Error("failed trajectory still alive")
	}
	if len(tr.Frames) != lastStreamed {
		t.Fatalf("retained %d frames after worker death, want %d (all streamed frames)",
			len(tr.Frames), lastStreamed)
	}
	if ctrl.stream.Frames() != lastStreamed+len(ctrl.trajs)-1 {
		// Each other trajectory contributed its spawn frame; the dead one
		// contributed frame 0 plus the streamed frames.
		t.Fatalf("stream observed %d frames, want %d",
			ctrl.stream.Frames(), lastStreamed+len(ctrl.trajs)-1)
	}
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
			if err := ctx.pumpStream(ctrl, budget, nil); err != nil && err.Error() != "pump budget exhausted" {
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
