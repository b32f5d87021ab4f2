package server

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"copernicus/internal/obs"
	"copernicus/internal/overlay"
	"copernicus/internal/store"
	"copernicus/internal/wire"
)

// testCtlState makes testController serializable so the snapshot path
// (which requires controller.Durable) can be exercised with the scriptable
// controller instead of a full MSM run.
type testCtlState struct {
	Finished []wire.CommandResult
	Failed   []string
}

func (c *testController) SaveState() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := testCtlState{Failed: append([]string(nil), c.failed...)}
	for _, r := range c.finished {
		st.Finished = append(st.Finished, *r)
	}
	return wire.Marshal(&st)
}

func (c *testController) RestoreState(data []byte) error {
	var st testCtlState
	if err := wire.Unmarshal(data, &st); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.finished = nil
	for i := range st.Finished {
		c.finished = append(c.finished, &st.Finished[i])
	}
	c.failed = st.Failed
	return nil
}

// openTestStore opens a store on dir with fsync disabled (throwaway dirs).
func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// threeCmdCtl returns the deterministic controller script shared by the
// recovery tests: recovery replays Start on a fresh instance, so the
// restarted rig must be given the same script.
func threeCmdCtl() *testController {
	return &testController{
		submit:   []wire.CommandSpec{cmdSpec("c1"), cmdSpec("c2"), cmdSpec("c3")},
		finishOn: 3,
	}
}

func sendResult(t *testing.T, r *rig, cmd, worker string) {
	t.Helper()
	res := wire.CommandResult{CommandID: cmd, Project: "proj", WorkerID: worker,
		OK: true, Output: []byte("out-" + cmd)}
	if err := r.request(t, wire.MsgResult, &res, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryEmptyStateDir: a store on a brand-new directory must behave
// exactly like no store at all — nothing to replay, submissions work.
func TestRecoveryEmptyStateDir(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	defer st.Close()
	rec := st.Recovered()
	if rec.Snapshot != nil || len(rec.Records) != 0 {
		t.Fatalf("empty dir recovered %+v", rec)
	}
	r := newRig(t, Config{HeartbeatInterval: time.Hour, Store: st}, threeCmdCtl())
	r.submit(t, "proj")
	if pst, ok := r.srv.Project("proj"); !ok || pst.State != "running" {
		t.Fatalf("project after submit: %+v ok=%v", pst, ok)
	}
}

// TestRecoveryReplayAndOrphanRequeue is the core crash-restart contract at
// the server level: a project with one settled, one assigned-but-unresolved
// and one queued command is rebuilt from the WAL alone; the settled result
// is not re-run, the orphan is requeued, and a late duplicate of the settled
// result is absorbed without driving the controller twice.
func TestRecoveryReplayAndOrphanRequeue(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	r1 := newRig(t, Config{HeartbeatInterval: time.Hour, Store: st}, threeCmdCtl())
	r1.submit(t, "proj")
	var wl wire.Workload
	if err := r1.request(t, wire.MsgAnnounce, announce("w1", 2), &wl); err != nil {
		t.Fatal(err)
	}
	if len(wl.Commands) != 2 {
		t.Fatalf("w1 got %d commands, want 2", len(wl.Commands))
	}
	done := wl.Commands[0].ID // settle one of the two assigned commands
	sendResult(t, r1, done, "w1")

	// Hard stop: no snapshot, no graceful drain.
	r1.srv.Close()
	st.Close()

	st2 := openTestStore(t, dir)
	ctrl2 := threeCmdCtl()
	r2 := newRig(t, Config{HeartbeatInterval: time.Hour, Store: st2}, ctrl2)
	pst, ok := r2.srv.Project("proj")
	if !ok || pst.State != "running" {
		t.Fatalf("recovered project: %+v ok=%v", pst, ok)
	}
	if fin, _ := ctrl2.counts(); fin != 1 {
		t.Fatalf("replayed %d completions, want 1", fin)
	}
	// The orphaned assignment and the never-assigned command must both be
	// available again.
	var wl2 wire.Workload
	if err := r2.request(t, wire.MsgAnnounce, announce("w2", 3), &wl2); err != nil {
		t.Fatal(err)
	}
	if len(wl2.Commands) != 2 {
		t.Fatalf("recovered queue handed out %d commands, want 2", len(wl2.Commands))
	}
	for _, c := range wl2.Commands {
		if c.ID == done {
			t.Fatalf("settled command %s was re-queued", done)
		}
	}
	// Duplicate redelivery of the pre-crash result (a worker that spooled it
	// during the outage) must be acknowledged and ignored.
	sendResult(t, r2, done, "w1")
	if fin, _ := ctrl2.counts(); fin != 1 {
		t.Fatalf("duplicate result drove the controller: %d completions", fin)
	}
	// Finish the project through the recovered server.
	for _, c := range wl2.Commands {
		sendResult(t, r2, c.ID, "w2")
	}
	fst, err := r2.srv.WaitProject(ctxTimeout(t, 2*time.Second), "proj")
	if err != nil {
		t.Fatal(err)
	}
	if fst.State != "finished" {
		t.Fatalf("state = %q (%s)", fst.State, fst.Note)
	}
}

// TestRecoveryTornFinalRecord: a crash mid-append leaves a torn final
// frame. The write was never acknowledged, so recovery must discard it and
// rebuild everything before it — here the torn record is the only result,
// so the command runs again (bounded re-execution, nothing lost).
func TestRecoveryTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	r1 := newRig(t, Config{HeartbeatInterval: time.Hour, Store: st}, threeCmdCtl())
	r1.submit(t, "proj")
	var wl wire.Workload
	if err := r1.request(t, wire.MsgAnnounce, announce("w1", 2), &wl); err != nil {
		t.Fatal(err)
	}
	sendResult(t, r1, wl.Commands[0].ID, "w1")
	r1.srv.Close()
	st.Close()

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v %v", segs, err)
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	st2 := openTestStore(t, dir)
	if st2.Recovered().Torn == "" {
		t.Fatal("torn tail not detected")
	}
	ctrl2 := threeCmdCtl()
	r2 := newRig(t, Config{HeartbeatInterval: time.Hour, Store: st2}, ctrl2)
	if pst, ok := r2.srv.Project("proj"); !ok || pst.State != "running" {
		t.Fatalf("recovered project: %+v ok=%v", pst, ok)
	}
	// The result record was torn away, so no completion replays and all
	// three commands are runnable again.
	if fin, _ := ctrl2.counts(); fin != 0 {
		t.Fatalf("torn result still replayed: %d completions", fin)
	}
	var wl2 wire.Workload
	if err := r2.request(t, wire.MsgAnnounce, announce("w2", 3), &wl2); err != nil {
		t.Fatal(err)
	}
	if len(wl2.Commands) != 3 {
		t.Fatalf("recovered queue handed out %d commands, want 3", len(wl2.Commands))
	}
	for _, c := range wl2.Commands {
		sendResult(t, r2, c.ID, "w2")
	}
	if fst, err := r2.srv.WaitProject(ctxTimeout(t, 2*time.Second), "proj"); err != nil || fst.State != "finished" {
		t.Fatalf("state=%v err=%v", fst.State, err)
	}
}

// TestRecoverySnapshotWithoutWAL: compaction can race a crash such that a
// snapshot exists but every WAL segment is gone. The snapshot alone must be
// a complete recovery baseline, including serialized controller state.
func TestRecoverySnapshotWithoutWAL(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	r1 := newRig(t, Config{HeartbeatInterval: time.Hour, Store: st}, threeCmdCtl())
	r1.submit(t, "proj")
	var wl wire.Workload
	if err := r1.request(t, wire.MsgAnnounce, announce("w1", 1), &wl); err != nil {
		t.Fatal(err)
	}
	sendResult(t, r1, wl.Commands[0].ID, "w1")
	if err := r1.srv.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	r1.srv.Close()
	st.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	for _, s := range segs {
		if err := os.Remove(s); err != nil {
			t.Fatal(err)
		}
	}

	st2 := openTestStore(t, dir)
	rec := st2.Recovered()
	if rec.Snapshot == nil || len(rec.Records) != 0 {
		t.Fatalf("recovered %+v, want snapshot only", rec)
	}
	ctrl2 := threeCmdCtl()
	r2 := newRig(t, Config{HeartbeatInterval: time.Hour, Store: st2}, ctrl2)
	if fin, _ := ctrl2.counts(); fin != 1 {
		t.Fatalf("controller state restored %d completions, want 1", fin)
	}
	var wl2 wire.Workload
	if err := r2.request(t, wire.MsgAnnounce, announce("w2", 3), &wl2); err != nil {
		t.Fatal(err)
	}
	if len(wl2.Commands) != 2 {
		t.Fatalf("snapshot-recovered queue handed out %d commands, want 2", len(wl2.Commands))
	}
	for _, c := range wl2.Commands {
		sendResult(t, r2, c.ID, "w2")
	}
	if fst, err := r2.srv.WaitProject(ctxTimeout(t, 2*time.Second), "proj"); err != nil || fst.State != "finished" {
		t.Fatalf("state=%v err=%v", fst.State, err)
	}
}

// TestRecoveryFinishedProjectStaysQueryable: terminal projects survive a
// restart with their result intact and never re-enter the queue.
func TestRecoveryFinishedProjectStaysQueryable(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	ctrl := &testController{submit: []wire.CommandSpec{cmdSpec("c1")}, finishOn: 1}
	r1 := newRig(t, Config{HeartbeatInterval: time.Hour, Store: st}, ctrl)
	r1.submit(t, "proj")
	var wl wire.Workload
	if err := r1.request(t, wire.MsgAnnounce, announce("w1", 1), &wl); err != nil {
		t.Fatal(err)
	}
	sendResult(t, r1, "c1", "w1")
	if fst, err := r1.srv.WaitProject(ctxTimeout(t, 2*time.Second), "proj"); err != nil || fst.State != "finished" {
		t.Fatalf("state=%v err=%v", fst.State, err)
	}
	r1.srv.Close()
	st.Close()

	st2 := openTestStore(t, dir)
	ctrl2 := &testController{submit: []wire.CommandSpec{cmdSpec("c1")}, finishOn: 1}
	r2 := newRig(t, Config{HeartbeatInterval: time.Hour, Store: st2}, ctrl2)
	pst, ok := r2.srv.Project("proj")
	if !ok || pst.State != "finished" || string(pst.Result) != "done" {
		t.Fatalf("recovered terminal project: %+v ok=%v", pst, ok)
	}
	var wl2 wire.Workload
	if err := r2.request(t, wire.MsgAnnounce, announce("w2", 4), &wl2); err != nil {
		t.Fatal(err)
	}
	if len(wl2.Commands) != 0 {
		t.Fatalf("finished project's commands re-queued: %v", wl2.Commands)
	}
}

// TestRecoveryRefusedBatchStaysRefused: when admission refuses the commands
// a controller handler submitted, the project fails live. Replay skips
// admission and cannot re-derive that decision, so a restart must still end
// where the live server did: the project failed with the refusal as its
// note, none of the refused commands queued or dispatchable. Two refusals:
// a result's children past the tenant's queued-command quota (the
// TestRefusedBatchQueuesNothing scenario), and a second project's Start
// whose command ID the queue already holds.
func TestRecoveryRefusedBatchStaysRefused(t *testing.T) {
	script := func() *testController {
		return &testController{
			submit:   []wire.CommandSpec{cmdSpec("c1")},
			children: map[string][]wire.CommandSpec{"c1": {cmdSpec("k1"), cmdSpec("k2")}},
		}
	}
	dir := t.TempDir()
	st := openTestStore(t, dir)
	r1 := newRig(t, Config{HeartbeatInterval: time.Hour, RelayTimeout: 50 * time.Millisecond, Store: st}, script())
	upd := wire.TenantQuotaUpdate{Tenant: "capped", MaxQueued: 1, MaxCores: -1, MaxStorageBytes: -1}
	if err := r1.request(t, wire.MsgTenantQuotaSet, &upd, nil); err != nil {
		t.Fatal(err)
	}
	if err := r1.request(t, wire.MsgSubmit, &wire.ProjectSubmit{Name: "proj", Controller: "test", Tenant: "capped"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := r1.request(t, wire.MsgSubmit, &wire.ProjectSubmit{Name: "dup", Controller: "test"}, nil); err == nil {
		t.Fatal("a Start batch whose command ID is already queued was admitted")
	}
	takeWork(t, r1, "w1", []string{"sim"}, "c1")
	res := wire.CommandResult{CommandID: "c1", Project: "proj", WorkerID: "w1", OK: true}
	if err := r1.request(t, wire.MsgResult, &res, nil); !errors.Is(err, wire.ErrQuotaExceeded) {
		t.Fatalf("result ack err = %v, want the quota refusal", err)
	}
	live := make(map[string]wire.ProjectStatus)
	for name, want := range map[string]string{"proj": wire.ErrQuotaExceeded.Error(), "dup": "duplicate command ID"} {
		pst, _ := r1.srv.Project(name)
		if pst.State != "failed" || !strings.Contains(pst.Note, want) || pst.Queued != 0 {
			t.Fatalf("live %s: %s (%q), %d queued; want failed with %q, none queued", name, pst.State, pst.Note, pst.Queued, want)
		}
		live[name] = pst
	}
	r1.srv.Close()
	st.Close()

	st2 := openTestStore(t, dir)
	defer st2.Close()
	r2 := newRig(t, Config{HeartbeatInterval: time.Hour, RelayTimeout: 50 * time.Millisecond, Store: st2}, script())
	for name, want := range live {
		if got, _ := r2.srv.Project(name); !reflect.DeepEqual(got, want) {
			t.Errorf("%s after the restart:\n got  %+v\n live %+v", name, got, want)
		}
	}
	if n := r2.srv.QueueLen(); n != 0 {
		t.Errorf("the restarted queue holds %d commands", n)
	}
	takeWork(t, r2, "w2", []string{"sim"}) // nothing to hand out
}

// syncGate is a store.Options.SyncHook that holds every fsync in flight
// while held.
type syncGate struct {
	mu   sync.Mutex
	held chan struct{}
}

func (g *syncGate) hook(sync func() error) error {
	g.mu.Lock()
	held := g.held
	g.mu.Unlock()
	if held != nil {
		<-held
	}
	return sync()
}

func (g *syncGate) hold() {
	g.mu.Lock()
	g.held = make(chan struct{})
	g.mu.Unlock()
}

func (g *syncGate) release() {
	g.mu.Lock()
	if g.held != nil {
		close(g.held)
		g.held = nil
	}
	g.mu.Unlock()
}

// asyncRequest sends one request on a link of its own — a link serves one
// request at a time, and these are meant to block — and delivers the reply.
func asyncRequest(t *testing.T, r *rig, seed uint64, typ wire.MsgType, req any) <-chan []byte {
	t.Helper()
	node := overlay.NewNode(overlay.NewIdentityFromSeed(seed), overlay.NewTrustStore(), r.net.Transport())
	if _, err := node.ConnectPeer("srv"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	payload, err := wire.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte, 1)
	go func() {
		reply, err := node.RequestTimeout(r.srv.Node().ID(), typ, payload, 10*time.Second)
		if err != nil {
			t.Errorf("request %v: %v", typ, err)
		}
		out <- reply
	}()
	return out
}

// awaitStaged waits until the store has staged n more records than base:
// the handlers that journal them have reached their commit barrier.
func awaitStaged(t *testing.T, st *store.Store, base uint64, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for st.LastSeq() < base+uint64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("store staged %d records, want %d", st.LastSeq()-base, n)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // room for a premature reply to land
}

// TestAckImpliesDurable pins the pipelined commit's invariant from both
// sides. With the WAL's fsync held in flight, a result and an announce are
// journaled but neither is acknowledged, while the project stays readable
// (no lock is held across the wait); both acks leave once the fsync
// completes. And a crash while an ack is still held back loses nothing that
// was promised: the unacknowledged result is not counted, its command comes
// back as an orphan, and the redelivered result is taken exactly once.
func TestAckImpliesDurable(t *testing.T) {
	dir := t.TempDir()
	gate := &syncGate{}
	st, err := store.Open(store.Options{Dir: dir, NoSync: true, SyncHook: gate.hook})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	r1 := newRig(t, Config{HeartbeatInterval: time.Hour, Store: st}, threeCmdCtl())
	t.Cleanup(gate.release) // before the rig closes: handlers may be held on it
	r1.submit(t, "proj")
	var wl wire.Workload
	if err := r1.request(t, wire.MsgAnnounce, announce("w1", 1), &wl); err != nil {
		t.Fatal(err)
	}
	first := wl.Commands[0].ID
	result := func(cmd, worker string) *wire.CommandResult {
		return &wire.CommandResult{CommandID: cmd, Project: "proj", WorkerID: worker,
			OK: true, Output: []byte("out-" + cmd)}
	}

	gate.hold()
	base := st.LastSeq()
	resAck := asyncRequest(t, r1, 10, wire.MsgResult, result(first, "w1"))
	awaitStaged(t, st, base, 1)
	// The result handler is now waiting for its fsync, and must not be
	// holding the project's lock while it does.
	looked := make(chan wire.ProjectStatus, 1)
	go func() {
		pst, _ := r1.srv.Project("proj")
		looked <- pst
	}()
	select {
	case pst := <-looked:
		if pst.State != "running" || pst.Finished != 1 {
			t.Fatalf("status during the held fsync: %+v", pst)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("status lookup blocked behind the fsync wait")
	}
	wlReply := asyncRequest(t, r1, 11, wire.MsgAnnounce, announce("w2", 1))
	awaitStaged(t, st, base, 2) // one result, one assignment
	select {
	case <-resAck:
		t.Fatal("result acknowledged before its record was durable")
	case <-wlReply:
		t.Fatal("workload handed out before its assignment was durable")
	default:
	}
	gate.release()
	var wl2 wire.Workload
	select {
	case reply := <-wlReply:
		if err := wire.Unmarshal(reply, &wl2); err != nil || len(wl2.Commands) != 1 {
			t.Fatalf("workload after release: %+v err=%v", wl2, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("workload reply never left after the fsync completed")
	}
	select {
	case <-resAck:
	case <-time.After(5 * time.Second):
		t.Fatal("result ack never left after the fsync completed")
	}

	// Everything acknowledged so far is durable and nothing is in flight:
	// this copy is the disk a power cut would leave from here until the
	// next fsync completes — which, held, it never does.
	crashDir := t.TempDir()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v %v", segs, err)
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashDir, filepath.Base(seg)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	second := wl2.Commands[0].ID
	gate.hold()
	base = st.LastSeq()
	lostAck := asyncRequest(t, r1, 12, wire.MsgResult, result(second, "w2"))
	awaitStaged(t, st, base, 1)

	// Crash: the restarted server sees only the durable prefix.
	o := obs.New()
	st2 := openTestStore(t, crashDir)
	defer st2.Close()
	ctrl2 := threeCmdCtl()
	r2 := newRig(t, Config{HeartbeatInterval: time.Hour, Store: st2, Obs: o}, ctrl2)
	if fin, _ := ctrl2.counts(); fin != 1 {
		t.Fatalf("recovered %d completions, want only the acknowledged one", fin)
	}
	select {
	case <-lostAck:
		t.Fatal("result acknowledged while its fsync was still held")
	default:
	}
	var wl3 wire.Workload
	if err := r2.request(t, wire.MsgAnnounce, announce("w3", 3), &wl3); err != nil {
		t.Fatal(err)
	}
	requeued := false
	for _, c := range wl3.Commands {
		requeued = requeued || c.ID == second
	}
	if len(wl3.Commands) != 2 || !requeued {
		t.Fatalf("recovered queue handed out %+v, want the orphaned %s and the untouched command", wl3.Commands, second)
	}
	// The worker was never acked, so it redelivers — twice, say.
	for i := 0; i < 2; i++ {
		if err := r2.request(t, wire.MsgResult, result(second, "w2"), nil); err != nil {
			t.Fatal(err)
		}
	}
	if fin, _ := ctrl2.counts(); fin != 2 {
		t.Fatalf("redelivered result counted %d times", fin-1)
	}
	if got := metricValue(t, o, "copernicus_results_duplicate_total"); got != 1 {
		t.Errorf("copernicus_results_duplicate_total = %g, want 1", got)
	}
	gate.release()
	select {
	case <-lostAck:
	case <-time.After(5 * time.Second):
		t.Fatal("held result ack never left")
	}
}

// TestByPathResultRefusedWithoutSharedFS: a server without an FSToken shares
// no filesystem with any worker, so a result that names an output path
// instead of carrying the output is refused — an error reply, nothing
// journaled, the command still running — rather than read from whatever file
// the path names on the server's host.
func TestByPathResultRefusedWithoutSharedFS(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	ctrl := &testController{submit: []wire.CommandSpec{cmdSpec("c1")}}
	r := newRig(t, Config{HeartbeatInterval: time.Hour, Store: st}, ctrl)
	r.submit(t, "proj")
	var wl wire.Workload
	if err := r.request(t, wire.MsgAnnounce, announce("w1", 1), &wl); err != nil {
		t.Fatal(err)
	}
	if len(wl.Commands) != 1 || wl.SharedFS {
		t.Fatalf("workload %+v, want c1 without shared FS", wl)
	}
	path := filepath.Join(t.TempDir(), "server-side-file")
	if err := os.WriteFile(path, []byte("not the worker's output"), 0o600); err != nil {
		t.Fatal(err)
	}
	res := wire.CommandResult{CommandID: "c1", Project: "proj", WorkerID: "w1", OK: true, OutputPath: path}
	if err := r.request(t, wire.MsgResult, &res, nil); err == nil {
		t.Error("a by-path result was accepted by a server without shared FS")
	}
	if fin, _ := ctrl.counts(); fin != 0 {
		t.Errorf("controller saw %d completions", fin)
	}
	recs, _, err := st.ReadSince(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Type == store.RecResult {
			t.Errorf("result journaled: %q", rec.Data)
		}
	}
	p := r.srv.project("proj")
	p.mu.Lock()
	status := p.command("c1").status
	p.mu.Unlock()
	if status != cmdRunning {
		t.Errorf("c1 in status %d, want still running", status)
	}
}
