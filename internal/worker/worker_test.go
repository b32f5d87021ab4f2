package worker

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"copernicus/internal/chaos"
	"copernicus/internal/controller"
	"copernicus/internal/engines"
	"copernicus/internal/obs"
	"copernicus/internal/overlay"
	"copernicus/internal/retry"
	"copernicus/internal/server"
	"copernicus/internal/wire"
)

// ctxTimeout returns a context cancelled after d, cleaned up with the test.
func ctxTimeout(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// fakeEngine is a scriptable engine for worker tests.
type fakeEngine struct {
	name     string
	delay    time.Duration
	fail     bool
	failRuns int32 // fail the first failRuns runs, then succeed
	block    bool  // run until context cancelled
	ckpts    [][]byte
	ran      atomic.Int32
	canceled atomic.Int32
}

func (e *fakeEngine) Name() string { return e.name }

func (e *fakeEngine) Run(ctx context.Context, spec wire.CommandSpec, cores int, progress func([]byte)) ([]byte, error) {
	run := e.ran.Add(1)
	for _, ck := range e.ckpts {
		if progress != nil {
			progress(ck)
		}
	}
	if e.block {
		<-ctx.Done()
		e.canceled.Add(1)
		return nil, ctx.Err()
	}
	if e.delay > 0 {
		select {
		case <-time.After(e.delay):
		case <-ctx.Done():
			e.canceled.Add(1)
			return nil, ctx.Err()
		}
	}
	if e.fail || run <= e.failRuns {
		return nil, errors.New("engine exploded")
	}
	return []byte("output-" + spec.ID + fmt.Sprintf("-%dcores", cores)), nil
}

// recController records server-side events for assertions.
type recController struct {
	mu       sync.Mutex
	submit   []wire.CommandSpec
	results  []*wire.CommandResult
	failures []string
	finishOn int
	giveUp   bool // fail the project on the first terminal command failure
}

func (c *recController) Name() string { return "rec" }
func (c *recController) Start(ctx controller.Context, _ []byte) error {
	for _, cmd := range c.submit {
		if err := ctx.Submit(cmd); err != nil {
			return err
		}
	}
	return nil
}
func (c *recController) CommandFinished(ctx controller.Context, res *wire.CommandResult) error {
	c.mu.Lock()
	c.results = append(c.results, res)
	n := len(c.results)
	c.mu.Unlock()
	if c.finishOn > 0 && n >= c.finishOn {
		ctx.Finish([]byte("done"))
	}
	return nil
}
func (c *recController) CommandFailed(ctx controller.Context, cmd wire.CommandSpec, reason string) error {
	c.mu.Lock()
	c.failures = append(c.failures, cmd.ID)
	c.mu.Unlock()
	if c.giveUp {
		ctx.Fail(fmt.Errorf("%s: %s", cmd.ID, reason))
	}
	return nil
}
func (c *recController) snapshot() (res []*wire.CommandResult, fails []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*wire.CommandResult(nil), c.results...), append([]string(nil), c.failures...)
}

// rig wires one server, one worker (with the given engines) and returns both.
type rig struct {
	srv  *server.Server
	wk   *Worker
	ctrl *recController
	stop context.CancelFunc
}

func newRig(t *testing.T, ctrl *recController, engs []engines.Engine, wcfg Config) *rig {
	t.Helper()
	return newRigFor(t, ctrl, ctrl, engs, wcfg)
}

// newRigFor is newRig whose server runs plugin, which records into ctrl.
func newRigFor(t *testing.T, plugin controller.Controller, ctrl *recController, engs []engines.Engine, wcfg Config) *rig {
	t.Helper()
	net := overlay.NewMemNetwork()
	sNode := overlay.NewNode(overlay.NewIdentityFromSeed(1), overlay.NewTrustStore(), net.Transport())
	if err := sNode.Listen("srv"); err != nil {
		t.Fatal(err)
	}
	reg := controller.NewRegistry()
	reg.Register("rec", func() controller.Controller { return plugin })
	srv := server.New(sNode, reg, server.Config{HeartbeatInterval: 100 * time.Millisecond})

	wNode := overlay.NewNode(overlay.NewIdentityFromSeed(2), overlay.NewTrustStore(), net.Transport())
	if _, err := wNode.ConnectPeer("srv"); err != nil {
		t.Fatal(err)
	}
	if wcfg.PollInterval == 0 {
		wcfg.PollInterval = 10 * time.Millisecond
	}
	wk, err := New(wNode, sNode.ID(), engs, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { _ = wk.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		srv.Close()
		wNode.Close()
		sNode.Close()
	})
	return &rig{srv: srv, wk: wk, ctrl: ctrl, stop: cancel}
}

func (r *rig) submitProject(t *testing.T) {
	t.Helper()
	// Submit through the server's own handler via a local call path: use
	// the project server API directly through the overlay is already
	// covered elsewhere; here we drive the handler through a client node.
	payload, err := wire.Marshal(&wire.ProjectSubmit{Name: "p", Controller: "rec"})
	if err != nil {
		t.Fatal(err)
	}
	// The worker node doubles as a client for submission simplicity.
	if _, err := r.wk.node.RequestTimeout(r.srv.Node().ID(), wire.MsgSubmit, payload, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

func waitCond(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func mkCmd(id, typ string) wire.CommandSpec {
	return wire.CommandSpec{ID: id, Type: typ, MinCores: 1, MaxCores: 2}
}

func TestWorkerExecutesAndReports(t *testing.T) {
	eng := &fakeEngine{name: "sim"}
	ctrl := &recController{submit: []wire.CommandSpec{mkCmd("c1", "sim"), mkCmd("c2", "sim")}, finishOn: 2}
	r := newRig(t, ctrl, []engines.Engine{eng}, Config{Cores: 2})
	r.submitProject(t)
	st, err := r.srv.WaitProject(ctxTimeout(t, 10*time.Second), "p")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "finished" {
		t.Fatalf("state = %q", st.State)
	}
	results, _ := ctrl.snapshot()
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for _, res := range results {
		if !res.OK || res.WorkerID != r.wk.ID() || len(res.Output) == 0 {
			t.Errorf("result = %+v", res)
		}
		if res.WallSeconds < 0 {
			t.Errorf("wall time = %v", res.WallSeconds)
		}
	}
	// The completion counter increments after the result is sent, so it can
	// trail WaitProject by a beat.
	waitCond(t, 2*time.Second, func() bool { return r.wk.Completed() == 2 })
}

func TestWorkerNoEngineReportsFailure(t *testing.T) {
	eng := &fakeEngine{name: "sim"}
	ctrl := &recController{submit: []wire.CommandSpec{mkCmd("c1", "sim")}}
	r := newRig(t, ctrl, []engines.Engine{eng}, Config{})
	// Submit a command of a type the worker DOES have, plus verify that a
	// command type the worker lacks is simply never assigned (queue keeps it).
	r.submitProject(t)
	waitCond(t, 5*time.Second, func() bool {
		res, _ := ctrl.snapshot()
		return len(res) == 1
	})
}

// TestWorkerEngineErrorPropagates: an engine that always fails costs the
// command its retry budget — the server requeues it twice (its retry budget), the
// worker being alive to take it again — and then reaches the controller as a
// terminal failure, which here ends the project. The failure reports are
// acknowledged, so nothing is left for the worker to redeliver.
func TestWorkerEngineErrorPropagates(t *testing.T) {
	eng := &fakeEngine{name: "sim", fail: true}
	ctrl := &recController{submit: []wire.CommandSpec{mkCmd("c1", "sim")}, giveUp: true}
	r := newRig(t, ctrl, []engines.Engine{eng}, Config{})
	r.submitProject(t)
	st, err := r.srv.WaitProject(ctxTimeout(t, 10*time.Second), "p")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "failed" || st.Failed != 1 || !strings.Contains(st.Note, "engine exploded") {
		t.Errorf("status = %+v, want the project failed by c1's engine error", st)
	}
	res, fails := ctrl.snapshot()
	if len(res) != 0 || len(fails) != 1 {
		t.Errorf("controller saw %d results and %d failures, want 0 and 1", len(res), len(fails))
	}
	if ran := eng.ran.Load(); ran != 3 {
		t.Errorf("engine ran %d times, want 1 + 2 retries = 3", ran)
	}
}

// TestWorkerEngineErrorRetried: an engine that fails once is simply run
// again, and the project finishes.
func TestWorkerEngineErrorRetried(t *testing.T) {
	eng := &fakeEngine{name: "sim", failRuns: 1}
	ctrl := &recController{submit: []wire.CommandSpec{mkCmd("c1", "sim")}, finishOn: 1, giveUp: true}
	r := newRig(t, ctrl, []engines.Engine{eng}, Config{})
	r.submitProject(t)
	st, err := r.srv.WaitProject(ctxTimeout(t, 10*time.Second), "p")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "finished" || st.Finished != 1 || st.Failed != 0 {
		t.Errorf("status = %+v, want finished on the second run", st)
	}
	if ran := eng.ran.Load(); ran != 2 {
		t.Errorf("engine ran %d times, want 2", ran)
	}
}

func TestWorkerPartialCheckpointsReachServer(t *testing.T) {
	eng := &fakeEngine{name: "sim", ckpts: [][]byte{[]byte("ck1"), []byte("ck2")}, delay: 50 * time.Millisecond}
	ctrl := &recController{submit: []wire.CommandSpec{mkCmd("c1", "sim")}, finishOn: 1}
	r := newRig(t, ctrl, []engines.Engine{eng}, Config{})
	r.submitProject(t)
	if _, err := r.srv.WaitProject(ctxTimeout(t, 10*time.Second), "p"); err != nil {
		t.Fatal(err)
	}
	// The final result must still be OK (partials don't complete commands).
	res, _ := ctrl.snapshot()
	if len(res) != 1 || !res[0].OK {
		t.Fatalf("results = %v", res)
	}
}

func TestWorkerSharedFSSpool(t *testing.T) {
	dir := t.TempDir()
	eng := &fakeEngine{name: "sim"}
	ctrl := &recController{submit: []wire.CommandSpec{mkCmd("c1", "sim")}, finishOn: 1}
	net := overlay.NewMemNetwork()
	sNode := overlay.NewNode(overlay.NewIdentityFromSeed(1), overlay.NewTrustStore(), net.Transport())
	if err := sNode.Listen("srv"); err != nil {
		t.Fatal(err)
	}
	reg := controller.NewRegistry()
	reg.Register("rec", func() controller.Controller { return ctrl })
	srv := server.New(sNode, reg, server.Config{
		HeartbeatInterval: time.Hour, FSToken: "shared-1",
	})
	wNode := overlay.NewNode(overlay.NewIdentityFromSeed(2), overlay.NewTrustStore(), net.Transport())
	if _, err := wNode.ConnectPeer("srv"); err != nil {
		t.Fatal(err)
	}
	wk, err := New(wNode, sNode.ID(), []engines.Engine{eng}, Config{
		PollInterval: 10 * time.Millisecond,
		FSToken:      "shared-1",
		SpoolDir:     dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = wk.Run(ctx) }()
	defer func() { srv.Close(); wNode.Close(); sNode.Close() }()

	payload, _ := wire.Marshal(&wire.ProjectSubmit{Name: "p", Controller: "rec"})
	if _, err := wNode.RequestTimeout(sNode.ID(), wire.MsgSubmit, payload, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.WaitProject(ctxTimeout(t, 10*time.Second), "p"); err != nil {
		t.Fatal(err)
	}
	res, _ := ctrl.snapshot()
	if len(res) != 1 {
		t.Fatalf("results = %d", len(res))
	}
	// The server must have loaded the output from the spool path.
	if string(res[0].Output) == "" {
		t.Error("shared-FS output not loaded")
	}
	if res[0].OutputPath == "" {
		t.Error("result did not travel by path reference")
	}
}

// TestCommandFilesStayInTheirDirectory: a command ID is its controller's
// choice. "p/x" (every bundled ID has its project in front) and "../../x"
// must each become one file directly inside the shared-FS spool, the local
// checkpoint directory and the result spool — not a fallback to inline
// output, and nothing outside those directories.
func TestCommandFilesStayInTheirDirectory(t *testing.T) {
	root := t.TempDir()
	cfg := Config{
		SpoolDir:       filepath.Join(root, "shared", "spool"),
		CheckpointDir:  filepath.Join(root, "shared", "ckpt"),
		ResultSpoolDir: filepath.Join(root, "shared", "results"),
	}
	n := overlay.NewNode(overlay.NewIdentityFromSeed(9), overlay.NewTrustStore(), overlay.NewMemNetwork().Transport())
	defer n.Close()
	w, err := New(n, "home", []engines.Engine{&fakeEngine{name: "sim"}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"p/x", "../../x"}
	for _, id := range ids {
		path, err := w.spoolOutput(id, []byte("out-"+id))
		if err != nil {
			t.Fatalf("spooling %q: %v", id, err)
		}
		if filepath.Dir(path) != cfg.SpoolDir {
			t.Errorf("output of %q spooled to %s, outside %s", id, path, cfg.SpoolDir)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != "out-"+id {
			t.Errorf("spooled output of %q reads back as %q, %v", id, got, err)
		}
		w.saveLocalCheckpoint(id, []byte("ck-"+id))
		if got := w.loadLocalCheckpoint(id); string(got) != "ck-"+id {
			t.Errorf("checkpoint of %q reads back as %q", id, got)
		}
		if err := w.spoolResult(id, []byte("res-"+id)); err != nil {
			t.Errorf("spooling the result of %q: %v", id, err)
		}
	}
	for _, dir := range []string{cfg.SpoolDir, cfg.CheckpointDir, cfg.ResultSpoolDir} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != len(ids) {
			t.Errorf("%s holds %d entries, want one file per command", dir, len(entries))
		}
		for _, e := range entries {
			if e.IsDir() {
				t.Errorf("%s grew a subdirectory %s", dir, e.Name())
			}
		}
	}
	if entries, _ := os.ReadDir(root); len(entries) != 1 {
		t.Errorf("files written outside the worker's directories: %v", entries)
	}
}

func TestWorkerValidation(t *testing.T) {
	net := overlay.NewMemNetwork()
	n := overlay.NewNode(overlay.NewIdentityFromSeed(9), overlay.NewTrustStore(), net.Transport())
	defer n.Close()
	if _, err := New(n, "", []engines.Engine{&fakeEngine{name: "x"}}, Config{}); err == nil {
		t.Error("empty home accepted")
	}
	if _, err := New(n, "home", nil, Config{}); err == nil {
		t.Error("no engines accepted")
	}
	if _, err := New(n, "home", []engines.Engine{&fakeEngine{name: "x"}, &fakeEngine{name: "x"}}, Config{}); err == nil {
		t.Error("duplicate engines accepted")
	}
}

func TestWorkerInfoAnnouncesEverything(t *testing.T) {
	net := overlay.NewMemNetwork()
	n := overlay.NewNode(overlay.NewIdentityFromSeed(9), overlay.NewTrustStore(), net.Transport())
	defer n.Close()
	wk, err := New(n, "home", []engines.Engine{&fakeEngine{name: "c"}, &fakeEngine{name: "a"}, &fakeEngine{name: "b"}}, Config{
		Cores: 48, FSToken: "fs",
	})
	if err != nil {
		t.Fatal(err)
	}
	info := wk.info()
	if info.Cores != 48 || info.FSToken != "fs" {
		t.Errorf("info = %+v", info)
	}
	// Sorted once at New: the payload is the same bytes on every announce.
	for i := 0; i < 20; i++ {
		if got := strings.Join(wk.info().Executables, ","); got != "a,b,c" {
			t.Fatalf("executables = %q, want a,b,c on every announce", got)
		}
	}
}

func TestWorkerRunStopsOnContextCancel(t *testing.T) {
	net := overlay.NewMemNetwork()
	sNode := overlay.NewNode(overlay.NewIdentityFromSeed(1), overlay.NewTrustStore(), net.Transport())
	if err := sNode.Listen("srv"); err != nil {
		t.Fatal(err)
	}
	defer sNode.Close()
	wNode := overlay.NewNode(overlay.NewIdentityFromSeed(2), overlay.NewTrustStore(), net.Transport())
	defer wNode.Close()
	if _, err := wNode.ConnectPeer("srv"); err != nil {
		t.Fatal(err)
	}
	wk, err := New(wNode, sNode.ID(), []engines.Engine{&fakeEngine{name: "x"}}, Config{PollInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- wk.Run(ctx) }()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Run returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not stop on cancellation")
	}
}

// terminatingController submits a fast probe command and a blocking one;
// when the probe finishes it terminates the blocking command from within
// the event handler, exercising the heartbeat-ack abort path of §3.2
// ("marking trajectories for termination").
type terminatingController struct {
	recController
	terminated atomic.Bool
}

func (c *terminatingController) CommandFinished(ctx controller.Context, res *wire.CommandResult) error {
	if res.CommandID == "probe" && !c.terminated.Swap(true) {
		ctx.Terminate("c1")
	}
	return c.recController.CommandFinished(ctx, res)
}

func TestWorkerAbortsTerminatedCommand(t *testing.T) {
	blockEng := &fakeEngine{name: "sim", block: true} // runs until cancelled
	probeEng := &fakeEngine{name: "probe"}
	eng := blockEng
	ctrl := &terminatingController{recController: recController{
		submit: []wire.CommandSpec{mkCmd("c1", "sim"), mkCmd("probe", "probe")},
	}}
	net := overlay.NewMemNetwork()
	sNode := overlay.NewNode(overlay.NewIdentityFromSeed(1), overlay.NewTrustStore(), net.Transport())
	if err := sNode.Listen("srv"); err != nil {
		t.Fatal(err)
	}
	reg := controller.NewRegistry()
	reg.Register("rec", func() controller.Controller { return ctrl })
	srv := server.New(sNode, reg, server.Config{HeartbeatInterval: 80 * time.Millisecond})
	wNode := overlay.NewNode(overlay.NewIdentityFromSeed(2), overlay.NewTrustStore(), net.Transport())
	if _, err := wNode.ConnectPeer("srv"); err != nil {
		t.Fatal(err)
	}
	wk, err := New(wNode, sNode.ID(), []engines.Engine{eng, probeEng}, Config{
		Cores:        2, // run the blocking command and the probe concurrently
		PollInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { _ = wk.Run(ctx) }()
	defer func() { cancel(); srv.Close(); wNode.Close(); sNode.Close() }()

	payload, _ := wire.Marshal(&wire.ProjectSubmit{Name: "p", Controller: "rec"})
	if _, err := wNode.RequestTimeout(sNode.ID(), wire.MsgSubmit, payload, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// The blocking engine must get cancelled via the heartbeat abort once
	// the probe's completion triggers Terminate("c1").
	waitCond(t, 10*time.Second, func() bool { return blockEng.canceled.Load() >= 1 })
	// Only the probe may have produced a success result.
	res, _ := ctrl.snapshot()
	for _, r := range res {
		if r.CommandID != "probe" {
			t.Errorf("terminated command produced a result: %s", r.CommandID)
		}
	}
}

// metricValue sums every sample of the named metric in o's text exposition.
func metricValue(t *testing.T, o *obs.Obs, name string) float64 {
	t.Helper()
	var buf strings.Builder
	o.Metrics.WriteText(&buf)
	total := 0.0
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		fields := strings.Fields(line)
		var v float64
		if _, err := fmt.Sscanf(fields[len(fields)-1], "%g", &v); err == nil {
			total += v
		}
	}
	return total
}

// TestResultSpoolAndRedeliver walks the degradation ladder end to end: the
// worker finishes a command while partitioned from every server, spools the
// undeliverable result to disk, and redelivers it after the partition heals
// — no finished work lost.
func TestResultSpoolAndRedeliver(t *testing.T) {
	onet := overlay.NewMemNetwork()
	sNode := overlay.NewNode(overlay.NewIdentityFromSeed(1), overlay.NewTrustStore(), onet.Transport())
	if err := sNode.Listen("srv"); err != nil {
		t.Fatal(err)
	}
	ctrl := &recController{submit: []wire.CommandSpec{mkCmd("c1", "sim")}, finishOn: 1}
	reg := controller.NewRegistry()
	reg.Register("rec", func() controller.Controller { return ctrl })
	srv := server.New(sNode, reg, server.Config{HeartbeatInterval: time.Hour})

	o := obs.New()
	ct := chaos.New(onet.Transport(), chaos.Config{Seed: 7}, o)
	wNode := overlay.NewNode(overlay.NewIdentityFromSeed(2), overlay.NewTrustStore(), ct)
	if _, err := wNode.ConnectPeer("srv"); err != nil {
		t.Fatal(err)
	}
	spool := t.TempDir()
	wk, err := New(wNode, sNode.ID(), []engines.Engine{&fakeEngine{name: "sim"}}, Config{
		Cores:          1,
		ResultSpoolDir: spool,
		Obs:            o,
		Retry:          retry.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, PerAttempt: 200 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		ct.Stop()
		wNode.Close()
		sNode.Close()
	})
	ctx := context.Background()

	payload, err := wire.Marshal(&wire.ProjectSubmit{Name: "p", Controller: "rec"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wNode.RequestTimeout(sNode.ID(), wire.MsgSubmit, payload, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	wl, err := wk.announce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(wl.Commands) != 1 {
		t.Fatalf("workload = %v", wl.Commands)
	}

	// Sever the worker↔server link and wait until the overlay notices.
	ct.Partition("srv")
	waitCond(t, 2*time.Second, func() bool { return len(wNode.Peers()) == 0 })

	res := wire.CommandResult{CommandID: "c1", Project: "p", WorkerID: wk.ID(), OK: true, Output: []byte("out")}
	wk.sendResult(ctx, sNode.ID(), &res)
	files, err := filepath.Glob(filepath.Join(spool, "*.result"))
	if err != nil || len(files) != 1 {
		t.Fatalf("spooled files = %v (err %v), want exactly 1", files, err)
	}
	if got := metricValue(t, o, "copernicus_worker_results_spooled_total"); got != 1 {
		t.Errorf("copernicus_worker_results_spooled_total = %g, want 1", got)
	}
	if results, _ := ctrl.snapshot(); len(results) != 0 {
		t.Fatalf("server saw %d results while partitioned", len(results))
	}

	// Heal, reconnect (the Run loop does this via rehome) and drain.
	ct.Heal("srv")
	if _, err := wNode.ConnectPeer("srv"); err != nil {
		t.Fatal(err)
	}
	wk.drainSpool(ctx)
	if files, _ := filepath.Glob(filepath.Join(spool, "*.result")); len(files) != 0 {
		t.Errorf("spool not emptied after redelivery: %v", files)
	}
	if got := metricValue(t, o, "copernicus_worker_results_redelivered_total"); got != 1 {
		t.Errorf("copernicus_worker_results_redelivered_total = %g, want 1", got)
	}
	results, _ := ctrl.snapshot()
	if len(results) != 1 || !results[0].OK || results[0].CommandID != "c1" {
		t.Fatalf("server results after redelivery = %+v", results)
	}
}
