package server

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"copernicus/internal/controller"
	"copernicus/internal/obs"
	"copernicus/internal/overlay"
	"copernicus/internal/wire"
)

// ctxTimeout returns a context cancelled after d, cleaned up with the test.
func ctxTimeout(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// testController is a scriptable plugin that records events.
type testController struct {
	mu             sync.Mutex
	submit         []wire.CommandSpec            // submitted at Start
	submitFor      map[string][]wire.CommandSpec // per-project Start script; a project listed here ignores submit
	children       map[string][]wire.CommandSpec // submitted by the reaction to the keyed command's result
	finished       []*wire.CommandResult
	failed         []string
	finishOn       int // Finish the project after this many completions (0 = never)
	resubmitFailed bool
	// afterSubmit, when set, runs in Start after each command it submits.
	afterSubmit func(project, cmd string)
}

func (c *testController) Name() string { return "test" }

func (c *testController) Start(ctx controller.Context, params []byte) error {
	cmds := c.submit
	if script, ok := c.submitFor[ctx.ProjectName()]; ok {
		cmds = script
	}
	for _, cmd := range cmds {
		if err := ctx.Submit(cmd); err != nil {
			return err
		}
		if c.afterSubmit != nil {
			c.afterSubmit(ctx.ProjectName(), cmd.ID)
		}
	}
	ctx.SetStatus(0, "started")
	return nil
}

func (c *testController) CommandFinished(ctx controller.Context, res *wire.CommandResult) error {
	c.mu.Lock()
	c.finished = append(c.finished, res)
	n := len(c.finished)
	c.mu.Unlock()
	for _, child := range c.children[res.CommandID] {
		if err := ctx.Submit(child); err != nil {
			return err
		}
	}
	if c.finishOn > 0 && n >= c.finishOn {
		ctx.Finish([]byte("done"))
	}
	return nil
}

func (c *testController) CommandFailed(ctx controller.Context, cmd wire.CommandSpec, reason string) error {
	c.mu.Lock()
	c.failed = append(c.failed, cmd.ID)
	c.mu.Unlock()
	if c.resubmitFailed {
		cmd2 := cmd
		cmd2.ID = cmd.ID + "-retry"
		return ctx.Submit(cmd2)
	}
	return nil
}

func (c *testController) counts() (fin, fail int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.finished), len(c.failed)
}

// sendChunk delivers one frame chunk, as a streaming worker would, and returns
// the raw ack.
func sendChunk(t *testing.T, r *rig, chunk *wire.FrameChunk) string {
	t.Helper()
	payload, err := wire.Marshal(chunk)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := r.client.RequestTimeout(r.srv.Node().ID(), wire.MsgFrameChunk, payload, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return string(reply)
}

// mkChunk builds a chunk of n synthetic frames starting at index first.
func mkChunk(cmd string, seq, first, n int) *wire.FrameChunk {
	ch := &wire.FrameChunk{
		Project: "proj", CommandID: cmd, WorkerID: "w1", Seq: seq, FirstFrame: first,
	}
	for i := 0; i < n; i++ {
		ch.Times = append(ch.Times, float64(first+i))
		ch.Frames = append(ch.Frames, []float64{float64(first + i), 0})
		ch.RMSD = append(ch.RMSD, 1)
	}
	return ch
}

// rig is a one-server test deployment with a raw client node for speaking
// the protocol by hand.
type rig struct {
	net    *overlay.MemNetwork
	srv    *Server
	client *overlay.Node
	ctrl   *testController
}

func newRig(t *testing.T, cfg Config, ctrl *testController) *rig {
	t.Helper()
	net := overlay.NewMemNetwork()
	sNode := overlay.NewNode(overlay.NewIdentityFromSeed(1), overlay.NewTrustStore(), net.Transport())
	if err := sNode.Listen("srv"); err != nil {
		t.Fatal(err)
	}
	reg := controller.NewRegistry()
	reg.Register("test", func() controller.Controller { return ctrl })
	srv := New(sNode, reg, cfg)

	client := overlay.NewNode(overlay.NewIdentityFromSeed(2), overlay.NewTrustStore(), net.Transport())
	if _, err := client.ConnectPeer("srv"); err != nil {
		t.Fatal(err)
	}
	r := &rig{net: net, srv: srv, client: client, ctrl: ctrl}
	t.Cleanup(func() {
		srv.Close()
		client.Close()
		sNode.Close()
	})
	return r
}

func (r *rig) request(t *testing.T, typ wire.MsgType, req any, resp any) error {
	t.Helper()
	payload, err := wire.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := r.client.RequestTimeout(r.srv.Node().ID(), typ, payload, 5*time.Second)
	if err != nil {
		return err
	}
	if resp != nil {
		if err := wire.Unmarshal(reply, resp); err != nil {
			t.Fatal(err)
		}
	}
	return nil
}

func (r *rig) submit(t *testing.T, name string) {
	t.Helper()
	var st wire.ProjectStatus
	if err := r.request(t, wire.MsgSubmit, &wire.ProjectSubmit{Name: name, Controller: "test"}, &st); err != nil {
		t.Fatal(err)
	}
}

func cmdSpec(id string) wire.CommandSpec {
	return wire.CommandSpec{ID: id, Type: "sim", MinCores: 1, MaxCores: 1}
}

func announce(workerID string, cores int) *wire.AnnounceRequest {
	return &wire.AnnounceRequest{Info: wire.WorkerInfo{
		ID: workerID, Platform: "smp", Cores: cores, Executables: []string{"sim"},
	}}
}

func TestSubmitAndStatus(t *testing.T) {
	ctrl := &testController{submit: []wire.CommandSpec{cmdSpec("c1"), cmdSpec("c2")}}
	r := newRig(t, Config{}, ctrl)
	r.submit(t, "proj")
	st, ok := r.srv.Project("proj")
	if !ok {
		t.Fatal("project missing")
	}
	if st.State != "running" || st.Queued != 2 {
		t.Errorf("status = %+v", st)
	}
	if r.srv.QueueLen() != 2 {
		t.Errorf("queue = %d", r.srv.QueueLen())
	}
}

func TestSubmitErrors(t *testing.T) {
	ctrl := &testController{}
	r := newRig(t, Config{}, ctrl)
	if err := r.request(t, wire.MsgSubmit, &wire.ProjectSubmit{Name: "", Controller: "test"}, nil); err == nil {
		t.Error("nameless project accepted")
	}
	if err := r.request(t, wire.MsgSubmit, &wire.ProjectSubmit{Name: "x", Controller: "nope"}, nil); err == nil {
		t.Error("unknown controller accepted")
	}
	r.submit(t, "dup")
	if err := r.request(t, wire.MsgSubmit, &wire.ProjectSubmit{Name: "dup", Controller: "test"}, nil); err == nil {
		t.Error("duplicate project accepted")
	}
}

func TestAnnounceAssignsWork(t *testing.T) {
	ctrl := &testController{submit: []wire.CommandSpec{cmdSpec("c1"), cmdSpec("c2"), cmdSpec("c3")}}
	r := newRig(t, Config{HeartbeatInterval: time.Hour}, ctrl)
	r.submit(t, "proj")
	var wl wire.Workload
	if err := r.request(t, wire.MsgAnnounce, announce("w1", 2), &wl); err != nil {
		t.Fatal(err)
	}
	if len(wl.Commands) != 2 {
		t.Fatalf("got %d commands for a 2-core worker", len(wl.Commands))
	}
	if wl.HeartbeatSeconds != 3600 {
		t.Errorf("heartbeat = %v s", wl.HeartbeatSeconds)
	}
	for _, c := range wl.Commands {
		if c.Origin != r.srv.Node().ID() {
			t.Errorf("command %s has origin %q", c.ID, c.Origin)
		}
		if c.Project != "proj" {
			t.Errorf("command %s has project %q", c.ID, c.Project)
		}
	}
	st, _ := r.srv.Project("proj")
	if st.Running != 2 || st.Queued != 1 {
		t.Errorf("status = %+v", st)
	}
}

// TestRelayedAssignmentLostReplyRecovered: a relay-matched workload whose
// reply never reaches the worker (most plainly when the anycast races its
// deadline and the late answer is discarded) must not strand its commands.
// The assignment is recorded in the worker's liveness record at match time,
// so the worker's next idle announce surfaces them through the orphan path
// and a later announce re-dispatches them.
func TestRelayedAssignmentLostReplyRecovered(t *testing.T) {
	o := obs.New()
	ctrl := &testController{submit: []wire.CommandSpec{cmdSpec("c1")}}
	r := newRig(t, Config{Obs: o, HeartbeatInterval: time.Hour}, ctrl)

	// Make w1 a worker this server tracks, before any work exists.
	var wl wire.Workload
	if err := r.request(t, wire.MsgAnnounce, announce("w1", 4), &wl); err != nil {
		t.Fatal(err)
	}
	if len(wl.Commands) != 0 {
		t.Fatalf("idle announce got commands: %+v", wl.Commands)
	}

	r.submit(t, "proj")

	// A relayed announce on w1's behalf matches c1 — and the reply is
	// dropped here, as if the relaying request had already timed out.
	rel := announce("w1", 4)
	rel.Relayed = true
	if err := r.request(t, wire.MsgAnnounce, rel, &wl); err != nil {
		t.Fatal(err)
	}
	if len(wl.Commands) != 1 || wl.Commands[0].ID != "c1" {
		t.Fatalf("relayed announce workload = %+v, want c1", wl.Commands)
	}
	if st, _ := r.srv.Project("proj"); st.Running != 1 {
		t.Fatalf("status after relayed match = %+v, want running=1", st)
	}

	// The worker never learned about c1: its idle announces must get the
	// command requeued (asynchronously) and eventually re-dispatched.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := r.request(t, wire.MsgAnnounce, announce("w1", 4), &wl); err != nil {
			t.Fatal(err)
		}
		if len(wl.Commands) == 1 && wl.Commands[0].ID == "c1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stranded command was never re-dispatched")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := metricValue(t, o, "copernicus_commands_orphaned_total"); got != 1 {
		t.Errorf("copernicus_commands_orphaned_total = %g, want 1", got)
	}
}

func TestAnnounceEmptyQueue(t *testing.T) {
	r := newRig(t, Config{}, &testController{})
	var wl wire.Workload
	if err := r.request(t, wire.MsgAnnounce, announce("w1", 4), &wl); err != nil {
		t.Fatal(err)
	}
	if len(wl.Commands) != 0 {
		t.Error("empty server handed out work")
	}
}

func TestResultDrivesController(t *testing.T) {
	ctrl := &testController{submit: []wire.CommandSpec{cmdSpec("c1")}, finishOn: 1}
	r := newRig(t, Config{HeartbeatInterval: time.Hour}, ctrl)
	r.submit(t, "proj")
	var wl wire.Workload
	if err := r.request(t, wire.MsgAnnounce, announce("w1", 1), &wl); err != nil {
		t.Fatal(err)
	}
	res := wire.CommandResult{
		CommandID: "c1", Project: "proj", WorkerID: "w1", OK: true,
		Output: []byte("data"),
	}
	if err := r.request(t, wire.MsgResult, &res, nil); err != nil {
		t.Fatal(err)
	}
	fin, _ := ctrl.counts()
	if fin != 1 {
		t.Fatalf("controller saw %d completions", fin)
	}
	st, err := r.srv.WaitProject(ctxTimeout(t, time.Second), "proj")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "finished" || string(st.Result) != "done" {
		t.Errorf("status = %+v", st)
	}
}

func TestResultForUnknownProjectNotHandled(t *testing.T) {
	r := newRig(t, Config{}, &testController{})
	res := wire.CommandResult{CommandID: "c", Project: "ghost", OK: true}
	err := r.request(t, wire.MsgResult, &res, nil)
	// The single-server overlay has nowhere to forward, so this times out
	// or errors — it must NOT be silently accepted.
	if err == nil {
		t.Error("result for unknown project accepted")
	}
}

func TestDuplicateAndTerminatedResultsIgnored(t *testing.T) {
	ctrl := &testController{submit: []wire.CommandSpec{cmdSpec("c1")}}
	r := newRig(t, Config{HeartbeatInterval: time.Hour}, ctrl)
	r.submit(t, "proj")
	var wl wire.Workload
	if err := r.request(t, wire.MsgAnnounce, announce("w1", 1), &wl); err != nil {
		t.Fatal(err)
	}
	res := wire.CommandResult{CommandID: "c1", Project: "proj", WorkerID: "w1", OK: true}
	if err := r.request(t, wire.MsgResult, &res, nil); err != nil {
		t.Fatal(err)
	}
	// Duplicate delivery (e.g. retry after a relay hiccup).
	if err := r.request(t, wire.MsgResult, &res, nil); err != nil {
		t.Fatal(err)
	}
	fin, _ := ctrl.counts()
	if fin != 1 {
		t.Errorf("controller saw %d completions for one command", fin)
	}
}

func TestWorkerFailureRequeuesWithCheckpoint(t *testing.T) {
	ctrl := &testController{submit: []wire.CommandSpec{cmdSpec("c1")}, finishOn: 1}
	r := newRig(t, Config{HeartbeatInterval: 50 * time.Millisecond}, ctrl)
	r.submit(t, "proj")

	// Worker w1 takes the command, reports a partial checkpoint, then dies.
	var wl wire.Workload
	if err := r.request(t, wire.MsgAnnounce, announce("w1", 1), &wl); err != nil {
		t.Fatal(err)
	}
	if len(wl.Commands) != 1 {
		t.Fatalf("workload = %v", wl.Commands)
	}
	partial := wire.CommandResult{
		CommandID: "c1", Project: "proj", WorkerID: "w1",
		OK: true, Partial: true, Checkpoint: []byte("halfway"),
	}
	if err := r.request(t, wire.MsgResult, &partial, nil); err != nil {
		t.Fatal(err)
	}
	// w1 sends no heartbeats; within ~2 intervals it must be declared dead
	// and c1 requeued with the checkpoint.
	deadline := time.Now().Add(3 * time.Second)
	var wl2 wire.Workload
	for time.Now().Before(deadline) {
		if err := r.request(t, wire.MsgAnnounce, announce("w2", 1), &wl2); err != nil {
			t.Fatal(err)
		}
		if len(wl2.Commands) > 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if len(wl2.Commands) != 1 {
		t.Fatal("command never requeued after worker death")
	}
	if string(wl2.Commands[0].Checkpoint) != "halfway" {
		t.Errorf("requeued without checkpoint: %q", wl2.Commands[0].Checkpoint)
	}
	// w2 completes it; the project finishes.
	res := wire.CommandResult{CommandID: "c1", Project: "proj", WorkerID: "w2", OK: true}
	if err := r.request(t, wire.MsgResult, &res, nil); err != nil {
		t.Fatal(err)
	}
	st, err := r.srv.WaitProject(ctxTimeout(t, time.Second), "proj")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "finished" {
		t.Errorf("state = %q", st.State)
	}
}

func TestWorkerFailureExhaustsRetries(t *testing.T) {
	ctrl := &testController{submit: []wire.CommandSpec{cmdSpec("c1")}}
	r := newRig(t, Config{HeartbeatInterval: 40 * time.Millisecond, MaxRetries: 1}, ctrl)
	r.submit(t, "proj")

	// Two successive workers take the command and die.
	for i := 0; i < 2; i++ {
		var wl wire.Workload
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			if err := r.request(t, wire.MsgAnnounce, announce(fmt.Sprintf("w%d", i), 1), &wl); err != nil {
				t.Fatal(err)
			}
			if len(wl.Commands) > 0 {
				break
			}
			time.Sleep(15 * time.Millisecond)
		}
		if len(wl.Commands) == 0 {
			t.Fatalf("round %d: no work", i)
		}
		// Die silently.
	}
	// After the second death the retry budget (1) is exhausted → the
	// controller must see CommandFailed.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if _, fail := ctrl.counts(); fail > 0 {
			break
		}
		time.Sleep(15 * time.Millisecond)
	}
	if _, fail := ctrl.counts(); fail != 1 {
		t.Fatalf("controller saw %d terminal failures, want 1", fail)
	}
	st, _ := r.srv.Project("proj")
	if st.Failed != 1 {
		t.Errorf("status = %+v", st)
	}
}

func TestHeartbeatKeepsWorkerAlive(t *testing.T) {
	ctrl := &testController{submit: []wire.CommandSpec{cmdSpec("c1")}}
	r := newRig(t, Config{HeartbeatInterval: 60 * time.Millisecond}, ctrl)
	r.submit(t, "proj")
	var wl wire.Workload
	if err := r.request(t, wire.MsgAnnounce, announce("w1", 1), &wl); err != nil {
		t.Fatal(err)
	}
	// Heartbeat for 5 intervals; the command must stay assigned.
	for i := 0; i < 10; i++ {
		hb := wire.Heartbeat{WorkerID: "w1", CommandIDs: []string{"c1"}}
		var ack wire.HeartbeatAck
		if err := r.request(t, wire.MsgHeartbeat, &hb, &ack); err != nil {
			t.Fatal(err)
		}
		if len(ack.AbortCommandIDs) != 0 {
			t.Fatalf("unexpected abort: %v", ack.AbortCommandIDs)
		}
		time.Sleep(30 * time.Millisecond)
	}
	if r.srv.QueueLen() != 0 {
		t.Error("command was requeued despite live heartbeats")
	}
	st, _ := r.srv.Project("proj")
	if st.Running != 1 {
		t.Errorf("status = %+v", st)
	}
}

func TestStatusOverWireUnknownProjectForwarded(t *testing.T) {
	r := newRig(t, Config{}, &testController{})
	err := r.request(t, wire.MsgStatus, &wire.ProjectStatusRequest{Name: "ghost"}, nil)
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Errorf("err = %v (unknown project should be left for other servers)", err)
	}
}

func TestProjectSeedStable(t *testing.T) {
	if seedFromName("villin") != seedFromName("villin") {
		t.Error("seed not stable")
	}
	if seedFromName("a") == seedFromName("b") {
		t.Error("seeds collide trivially")
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

func TestDuplicateResultCountedInMetrics(t *testing.T) {
	o := obs.New()
	ctrl := &testController{submit: []wire.CommandSpec{cmdSpec("c1")}}
	r := newRig(t, Config{HeartbeatInterval: time.Hour, Obs: o}, ctrl)
	r.submit(t, "proj")
	var wl wire.Workload
	if err := r.request(t, wire.MsgAnnounce, announce("w1", 1), &wl); err != nil {
		t.Fatal(err)
	}
	res := wire.CommandResult{CommandID: "c1", Project: "proj", WorkerID: "w1", OK: true}
	for i := 0; i < 3; i++ { // first delivery plus two redeliveries
		if err := r.request(t, wire.MsgResult, &res, nil); err != nil {
			t.Fatal(err)
		}
	}
	if fin, _ := ctrl.counts(); fin != 1 {
		t.Errorf("controller saw %d completions for one command", fin)
	}
	if got := metricValue(t, o, "copernicus_results_duplicate_total"); got != 2 {
		t.Errorf("copernicus_results_duplicate_total = %g, want 2", got)
	}
}

// TestLateResultAfterRequeueAccepted covers the spool-and-redeliver race: a
// worker is declared dead and its command requeued, then its result arrives
// anyway. The server must accept it (work is work) and drop the queued copy
// so no second worker runs the command again.
func TestLateResultAfterRequeueAccepted(t *testing.T) {
	o := obs.New()
	ctrl := &testController{submit: []wire.CommandSpec{cmdSpec("c1")}, finishOn: 1}
	r := newRig(t, Config{HeartbeatInterval: 40 * time.Millisecond, Obs: o}, ctrl)
	r.submit(t, "proj")
	var wl wire.Workload
	if err := r.request(t, wire.MsgAnnounce, announce("w1", 1), &wl); err != nil {
		t.Fatal(err)
	}
	if len(wl.Commands) != 1 {
		t.Fatalf("workload = %v", wl.Commands)
	}
	// w1 sends no heartbeats; wait for the reaper to requeue c1 without
	// consuming the queue ourselves.
	deadline := time.Now().Add(3 * time.Second)
	for metricValue(t, o, "copernicus_commands_requeued_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("command never requeued after worker death")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The "dead" worker's result shows up late (e.g. redelivered from its
	// spool after a partition healed).
	res := wire.CommandResult{CommandID: "c1", Project: "proj", WorkerID: "w1", OK: true}
	if err := r.request(t, wire.MsgResult, &res, nil); err != nil {
		t.Fatal(err)
	}
	st, err := r.srv.WaitProject(ctxTimeout(t, 2*time.Second), "proj")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "finished" {
		t.Errorf("state = %q after late result", st.State)
	}
	// The queued duplicate must be gone: a fresh worker gets no work.
	var wl2 wire.Workload
	if err := r.request(t, wire.MsgAnnounce, announce("w2", 1), &wl2); err != nil {
		t.Fatal(err)
	}
	if len(wl2.Commands) != 0 {
		t.Errorf("requeued copy still dispatched after late result: %v", wl2.Commands)
	}
	if fin, _ := ctrl.counts(); fin != 1 {
		t.Errorf("controller saw %d completions", fin)
	}
}
