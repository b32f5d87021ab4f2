package worker

import (
	"context"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"copernicus/internal/engines"
	"copernicus/internal/obs"
	"copernicus/internal/overlay"
	"copernicus/internal/wire"
)

// streamEngine is a Streamer fake: it emits nChunks sequential frame chunks
// (2 frames each, starting at frame 1) and then returns a normal output.
type streamEngine struct {
	fakeEngine
	nChunks int
}

func (e *streamEngine) RunStream(ctx context.Context, spec wire.CommandSpec, cores int,
	progress func([]byte), emit func(*wire.FrameChunk)) ([]byte, error) {
	for i := 0; i < e.nChunks; i++ {
		emit(&wire.FrameChunk{
			Project: spec.Project, CommandID: spec.ID,
			Seq: i, FirstFrame: 1 + 2*i,
			Times:  []float64{float64(1 + 2*i), float64(2 + 2*i)},
			Frames: [][]float64{{1, 0}, {2, 0}},
			RMSD:   []float64{1, 1},
			Final:  i == e.nChunks-1,
		})
	}
	return e.fakeEngine.Run(ctx, spec, cores, progress)
}

// TestWorkerStreamsChunksToServer: a streaming engine's chunks ship to the
// project server as produced. The delivery counters only advance after the
// server acknowledges, so they prove end-to-end arrival, not just emission.
func TestWorkerStreamsChunksToServer(t *testing.T) {
	o := obs.New()
	eng := &streamEngine{fakeEngine: fakeEngine{name: "sim"}, nChunks: 3}
	ctrl := &recController{submit: []wire.CommandSpec{mkCmd("c1", "sim")}, finishOn: 1}
	r := newRig(t, ctrl, []engines.Engine{eng}, Config{Obs: o})
	r.submitProject(t)
	if _, err := r.srv.WaitProject(ctxTimeout(t, 10*time.Second), "p"); err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, o, "copernicus_worker_stream_chunks_total"); got != 3 {
		t.Errorf("copernicus_worker_stream_chunks_total = %g, want 3", got)
	}
	if got := metricValue(t, o, "copernicus_worker_stream_frames_total"); got != 6 {
		t.Errorf("copernicus_worker_stream_frames_total = %g, want 6", got)
	}
	if got := metricValue(t, o, "copernicus_worker_stream_chunk_errors_total"); got != 0 {
		t.Errorf("copernicus_worker_stream_chunk_errors_total = %g, want 0", got)
	}
	// The final result still carries the command to completion as usual.
	res, _ := ctrl.snapshot()
	if len(res) != 1 || !res[0].OK {
		t.Fatalf("results = %+v", res)
	}
}

// resumeEngine distinguishes a fresh start (checkpoints, then blocks until
// cancelled — a worker dying mid-command) from a checkpointed dispatch
// (finishes immediately, recording what checkpoint it was given).
type resumeEngine struct {
	name string
	mu   sync.Mutex
	saw  []byte // checkpoint received on the resumed run
}

func (e *resumeEngine) Name() string { return e.name }

func (e *resumeEngine) Run(ctx context.Context, spec wire.CommandSpec, cores int, progress func([]byte)) ([]byte, error) {
	if len(spec.Checkpoint) == 0 {
		if progress != nil {
			progress([]byte("half"))
		}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	e.mu.Lock()
	e.saw = append([]byte(nil), spec.Checkpoint...)
	e.mu.Unlock()
	return []byte("resumed"), nil
}

// TestWorkerLocalCheckpointResume is the durability satellite: checkpoints
// persist to CheckpointDir on every progress call, survive a worker-process
// death, and are adopted when the command is re-dispatched without a server
// checkpoint — while a deliberate per-command abort discards them.
func TestWorkerLocalCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	net := overlay.NewMemNetwork()
	sNode := overlay.NewNode(overlay.NewIdentityFromSeed(21), overlay.NewTrustStore(), net.Transport())
	if err := sNode.Listen("srv"); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var results []*wire.CommandResult
	sNode.Handle(wire.MsgResult, func(from string, payload []byte) ([]byte, error) {
		var res wire.CommandResult
		if err := wire.Unmarshal(payload, &res); err != nil {
			return nil, err
		}
		mu.Lock()
		results = append(results, &res)
		mu.Unlock()
		return []byte("ok"), nil
	})
	t.Cleanup(func() { sNode.Close() })

	eng := &resumeEngine{name: "sim"}
	cmd := mkCmd("c1", "sim")
	cmd.Project = "p"
	cmd.Origin = sNode.ID()

	newWorker := func(seed uint64, o *obs.Obs) *Worker {
		wNode := overlay.NewNode(overlay.NewIdentityFromSeed(seed), overlay.NewTrustStore(), net.Transport())
		if _, err := wNode.ConnectPeer("srv"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { wNode.Close() })
		cfg := Config{CheckpointDir: dir}
		if o != nil {
			cfg.Obs = o
		}
		wk, err := New(wNode, sNode.ID(), []engines.Engine{eng}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return wk
	}

	// Phase 1: the command checkpoints, then the whole worker process dies
	// (context cancelled) before it finishes.
	wk1 := newWorker(22, nil)
	ctx1, cancel1 := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { wk1.runCommand(ctx1, cmd, 1, false); close(done) }()
	waitCond(t, 5*time.Second, func() bool { return len(wk1.loadLocalCheckpoint(cmd.ID)) > 0 })
	cancel1()
	<-done
	if files, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")); len(files) != 1 {
		t.Fatalf("checkpoint files after worker death = %v, want 1", files)
	}

	// Phase 2: a restarted worker gets the command re-dispatched without a
	// server checkpoint and must resume from the local one.
	o := obs.New()
	wk2 := newWorker(23, o)
	wk2.runCommand(context.Background(), cmd, 1, false)
	eng.mu.Lock()
	saw := string(eng.saw)
	eng.mu.Unlock()
	if saw != "half" {
		t.Fatalf("resumed run saw checkpoint %q, want \"half\"", saw)
	}
	if got := metricValue(t, o, "copernicus_worker_checkpoint_resumes_total"); got != 1 {
		t.Errorf("copernicus_worker_checkpoint_resumes_total = %g, want 1", got)
	}
	// Success settles the command: the local checkpoint must be gone.
	if files, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")); len(files) != 0 {
		t.Errorf("checkpoint files after success = %v, want none", files)
	}
	mu.Lock()
	var final *wire.CommandResult
	for _, res := range results {
		if !res.Partial {
			final = res
		}
	}
	mu.Unlock()
	if final == nil || !final.OK || string(final.Output) != "resumed" {
		t.Fatalf("final result = %+v", final)
	}

	// Phase 3: a per-command abort (worker alive, command terminated) must
	// discard the checkpoint — the command is dead, not interrupted.
	cmd2 := mkCmd("c2", "sim")
	cmd2.Project = "p"
	cmd2.Origin = sNode.ID()
	done2 := make(chan struct{})
	go func() { wk2.runCommand(context.Background(), cmd2, 1, false); close(done2) }()
	waitCond(t, 5*time.Second, func() bool { return len(wk2.loadLocalCheckpoint(cmd2.ID)) > 0 })
	wk2.mu.Lock()
	abort := wk2.core.running[cmd2.ID].abort
	wk2.mu.Unlock()
	abort()
	<-done2
	if files, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")); len(files) != 0 {
		t.Errorf("checkpoint files after per-command abort = %v, want none", files)
	}
}
