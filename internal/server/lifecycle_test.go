package server

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"copernicus/internal/controller"
	"copernicus/internal/store"
	"copernicus/internal/wire"
)

// cmdImage and projImage are what a server knows about a command and a
// project once the clocks are taken out — the state the live handlers, WAL
// replay and snapshot restore must agree on.
type cmdImage struct {
	Status     cmdStatus
	Worker     string
	Retries    int
	Preempts   int
	Checkpoint string
}

type projImage struct {
	State                        projState
	Finished, Failed, Generation int
	Note, FailErr, Result        string
	Commands                     map[string]cmdImage
}

func imageOf(c *Core) map[string]projImage {
	img := make(map[string]projImage)
	for _, p := range c.projectList() {
		p.mu.Lock()
		pi := projImage{State: p.state, Finished: p.finished, Failed: p.failed, Generation: p.generation,
			Note: p.note, FailErr: p.failErr, Result: string(p.result), Commands: make(map[string]cmdImage)}
		for id, cs := range p.commands {
			pi.Commands[id] = cmdImage{Status: cs.status, Worker: cs.worker, Retries: cs.retries,
				Preempts: cs.preempts, Checkpoint: string(cs.checkpoint)}
		}
		p.mu.Unlock()
		img[p.name] = pi
	}
	return img
}

// ctlImage is the scripted controller's view: what it was told, in order
// (its frame-sink counters are not part of its snapshot, so not of this).
func ctlImage(c *testController) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var fin []string
	for _, r := range c.finished {
		fin = append(fin, r.CommandID)
	}
	return fmt.Sprintf("finished=%v failed=%v", fin, c.failed)
}

// lifecycleJournal runs the script over a fresh state directory and returns
// the live server's image, its controller's, and the journal it wrote.
func lifecycleJournal(t *testing.T) (map[string]projImage, string, []store.Record) {
	t.Helper()
	dir := t.TempDir()
	st := openTestStore(t, dir)
	r := runLifecycleScript(t, st)
	live, liveCtl := imageOf(r.srv.core), ctlImage(r.ctrl)
	r.srv.Close()
	st.Close()
	st2 := openTestStore(t, dir)
	defer st2.Close()
	rec := st2.Recovered()
	if rec.Snapshot != nil || rec.Torn != "" {
		t.Fatalf("script left snapshot=%v torn=%q, want the WAL alone", rec.Snapshot != nil, rec.Torn)
	}
	return live, liveCtl, rec.Records
}

// TestLifecycleJournalMatchesParentGolden: for the same inputs the WAL is
// record for record what the build before the transition table wrote, less
// the five record types the server has stopped writing: four that replay
// re-derives, and the frame chunk, which the server now answers without
// taking it in. The golden was captured by running
// lifecycle_script_test.go against that build; it is captured bytes — never
// regenerate it from current code.
func TestLifecycleJournalMatchesParentGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/lifecycle_journal.golden")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n") {
		typ, _, _ := strings.Cut(line, " ")
		switch typ {
		case store.RecCommandQueued.String(), store.RecGeneration.String(),
			store.RecProjectFinished.String(), store.RecProjectFailed.String(), store.RecFrameChunk.String():
			continue
		}
		want = append(want, line)
	}
	_, _, recs := lifecycleJournal(t)
	got := journalLines(recs)
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("record %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}

// replayed returns a storeless server (nothing to recover, nothing journaled)
// that has replayed rec, as recovery would have before reseedQueue.
func replayed(t *testing.T, rec *store.Recovered) *rig {
	t.Helper()
	r := newRigBudget(t, lifecycleConfig(nil), lifecycleCtl(), lifecycleRetries)
	r.srv.core.replay(rec)
	return r
}

// TestLifecycleLiveEqualsReplay: the image the live handlers leave is the
// image a second server rebuilds from the journal — from the WAL alone, and
// from a snapshot cut at every record boundary plus the tail, with the tail
// overlapping the snapshot by up to three records the way the Rotate→capture
// window lets it.
func TestLifecycleLiveEqualsReplay(t *testing.T) {
	live, liveCtl, recs := lifecycleJournal(t)
	if got := live["proj"].Commands["a2"]; got.Status != cmdFailed || got.Retries != 1 {
		t.Fatalf("live a2 = %+v, want failed after one retry", got)
	}
	check := func(what string, r *rig) {
		t.Helper()
		if got := imageOf(r.srv.core); !reflect.DeepEqual(got, live) {
			t.Errorf("%s:\n got  %+v\n live %+v", what, got, live)
		}
		if got := ctlImage(r.ctrl); got != liveCtl {
			t.Errorf("%s: controller saw %s, live saw %s", what, got, liveCtl)
		}
		if n := r.srv.QueueLen(); n != 0 {
			t.Errorf("%s: replay queued %d commands; the queue is reseedQueue's", what, n)
		}
	}
	fromWAL := replayed(t, &store.Recovered{Records: recs})
	check("WAL alone", fromWAL)
	for k := 0; k <= len(recs); k++ {
		snap, err := replayed(t, &store.Recovered{Records: recs[:k]}).srv.core.captureSnapshot()
		if err != nil {
			t.Fatalf("snapshot after %d records: %v", k, err)
		}
		for overlap := 0; overlap <= 3 && overlap <= k; overlap++ {
			check(fmt.Sprintf("snapshot after record %d + tail from record %d", k, k-overlap+1),
				replayed(t, &store.Recovered{Snapshot: snap, Records: recs[k-overlap:]}))
		}
	}
}

// tableFixture builds a core (no overlay, no store) holding project "proj",
// running or ended, with command c1 driven to status from by the real
// transitions.
func tableFixture(t *testing.T, from cmdStatus, ended bool) (*Core, *testController) {
	t.Helper()
	ctrl := &testController{submit: []wire.CommandSpec{cmdSpec("c1")}}
	s := testCore(func() controller.Controller { return ctrl }, time.Now, nil)
	if _, err := s.Submit(&wire.ProjectSubmit{Name: "proj", Controller: "test"}); err != nil {
		t.Fatal(err)
	}
	if from != cmdQueued && from != cmdTerminated {
		if wl := s.q.Match(announce("w1", 1).Info); len(wl.Commands) != 1 {
			t.Fatalf("w1 matched %v, want c1", wl.Commands)
		}
	}
	s.withProjectCommand("proj", "c1", func(p *project, cs *cmdState) {
		switch from {
		case cmdRunning:
			assigned(p, cs, "w1", 1)
		case cmdDone:
			assigned(p, cs, "w1", 1)
			ingest(p, &wire.CommandResult{CommandID: "c1", Project: "proj", WorkerID: "w1", OK: true}, nil)
		case cmdFailed:
			assigned(p, cs, "w1", 1)
			failed(p, cs, store.Record{Type: store.RecCommandFailed, Command: "c1", Note: "setup"})
		case cmdTerminated:
			terminated(p, cs)
		}
		if cs.status != from {
			t.Fatalf("fixture reached status %d, want %d", cs.status, from)
		}
		if ended {
			p.Fail(errors.New("stopped"))
		}
	})
	return s, ctrl
}

// withProjectCommand runs f under the project lock if both exist, and applies
// the effects of the transitions it ran.
func (c *Core) withProjectCommand(projectName, cmdID string, f func(*project, *cmdState)) {
	if p := c.project(projectName); p != nil {
		p.mu.Lock()
		defer p.mu.Unlock()
		if cs := p.command(cmdID); cs != nil {
			f(p, cs)
			c.apply(p)
		}
	}
}

// tableImage is everything a transition may touch: the project image, the
// controller's, and the matching queue's length and in-flight charge.
func tableImage(s *Core, ctrl *testController) string {
	return fmt.Sprintf("%+v | %s | queued=%d inflight=%d", imageOf(s), ctlImage(ctrl),
		s.q.Len(), s.q.InflightCores(""))
}

// TestLifecycleTransitionTable walks the table docs/PERSISTENCE.md prints:
// every record × every from-status × project running/ended, run through its
// transition and applied live and under replay. Applying a record twice
// leaves what applying it once leaves, a record applied from a status it does
// not move from changes nothing at all, and one applied from a status it does
// move from changes something.
func TestLifecycleTransitionTable(t *testing.T) {
	mustMarshal := func(v any) []byte {
		data, err := wire.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	open := []cmdStatus{cmdQueued, cmdRunning}
	records := []struct {
		rec         store.Record
		from        []cmdStatus // statuses the transition moves from; nil = any
		needRunning bool        // only applies while the project is running
	}{
		{store.Record{Type: store.RecCommandAssigned, Worker: "w9"}, []cmdStatus{cmdQueued}, false},
		{store.Record{Type: store.RecCheckpoint, Data: []byte("ckpt")}, open, false},
		{store.Record{Type: store.RecCommandRequeued, Worker: "w1", Count: 1}, []cmdStatus{cmdRunning}, false},
		{store.Record{Type: store.RecCommandPreempted, Worker: "w1", Count: 1}, []cmdStatus{cmdRunning}, false},
		{store.Record{Type: store.RecCommandFailed, Worker: "w1", Note: "worker lost"}, open, false},
		{store.Record{Type: store.RecResult, Worker: "w1", Data: mustMarshal(&wire.CommandResult{
			CommandID: "c1", Project: "proj", WorkerID: "w1", OK: true, Output: []byte("out")})}, open, false},
		// Project-scoped: the project fails, whatever the command's status.
		{store.Record{Type: store.RecBatchRefused, Note: "queue: tenant quota"}, nil, true},
		// Written by older builds only, and skipped: a no-op from every status.
		{store.Record{Type: store.RecFrameChunk, Worker: "w1", Data: mustMarshal(mkChunk("c1", 0, 1, 2))}, []cmdStatus{}, false},
		{store.Record{Type: store.RecCommandQueued}, []cmdStatus{}, false},
		{store.Record{Type: store.RecGeneration, Generation: 4, Note: "gen 4"}, []cmdStatus{}, false},
		{store.Record{Type: store.RecProjectFinished, Data: []byte("result")}, []cmdStatus{}, false},
		{store.Record{Type: store.RecProjectFailed, Note: "gave up"}, []cmdStatus{}, false},
	}
	apply := func(s *Core, ctrl *testController, replay bool, rec store.Record) string {
		if replay {
			s.replay(&store.Recovered{Records: []store.Record{rec}})
		} else {
			p := s.project("proj")
			p.mu.Lock()
			redo(p, rec)
			s.apply(p)
			p.mu.Unlock()
		}
		return tableImage(s, ctrl)
	}
	for _, row := range records {
		row.rec.Project, row.rec.Command = "proj", "c1"
		for from := cmdQueued; from <= cmdTerminated; from++ {
			for _, ended := range []bool{false, true} {
				for _, replay := range []bool{false, true} {
					name := fmt.Sprintf("%s from status %d, project ended=%v, replay=%v", row.rec.Type, from, ended, replay)
					s, ctrl := tableFixture(t, from, ended)
					before := tableImage(s, ctrl)
					once := apply(s, ctrl, replay, row.rec)
					twice := apply(s, ctrl, replay, row.rec)
					if once != twice {
						t.Errorf("%s: not idempotent\n once  %s\n twice %s", name, once, twice)
					}
					legal := (row.from == nil || slices.Contains(row.from, from)) && !(row.needRunning && ended)
					if legal && once == before {
						t.Errorf("%s: a legal transition changed nothing: %s", name, once)
					}
					if !legal && once != before {
						t.Errorf("%s: an illegal transition is not a no-op\n before %s\n after  %s", name, before, once)
					}
				}
			}
		}
	}
}

// TestRecoveryLostResultRecordPlantsNoChildren: the journal loses exactly
// the result record whose reaction submitted two children (a failed append:
// the server carries on without durability for that record), while a child's
// assignment and result make it. The parent comes back as an orphan, runs
// again, and its reaction submits the same IDs; the child's records, which
// replay met before any child existed, planted nothing that could collide
// with them and fail the project with "duplicate command".
func TestRecoveryLostResultRecordPlantsNoChildren(t *testing.T) {
	script := func() *testController {
		return &testController{
			submit:   []wire.CommandSpec{cmdSpec("parent")},
			children: map[string][]wire.CommandSpec{"parent": {cmdSpec("kid1"), cmdSpec("kid2")}},
			finishOn: 3,
		}
	}
	dir := t.TempDir()
	var failNext atomic.Bool
	st, err := store.Open(store.Options{Dir: dir, NoSync: true,
		WriteHook: func(frame []byte) ([]byte, error) {
			if failNext.CompareAndSwap(true, false) {
				return nil, errors.New("injected append failure")
			}
			return frame, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	runs := make(map[string]int)
	run := func(r *rig, worker string, cmds ...string) {
		t.Helper()
		takeWork(t, r, worker, []string{"sim"}, cmds...)
		for _, c := range cmds {
			runs[c]++
		}
	}
	r1 := newRig(t, Config{HeartbeatInterval: time.Hour, Store: st}, script())
	r1.submit(t, "proj")
	run(r1, "w1", "parent")
	failNext.Store(true) // the next frame is parent's RecResult
	sendResult(t, r1, "parent", "w1")
	if failNext.Load() {
		t.Fatal("the result was never journaled; the fault did not fire")
	}
	run(r1, "w1", "kid1") // one core: the first child only
	sendResult(t, r1, "kid1", "w1")
	r1.srv.Close()
	st.Close()

	st2 := openTestStore(t, dir)
	defer st2.Close()
	var types []string
	for _, rec := range st2.Recovered().Records {
		if rec.Command != "" {
			types = append(types, rec.Type.String()+":"+rec.Command)
		}
	}
	want := "[command_assigned:parent command_assigned:kid1 result:kid1]"
	if fmt.Sprint(types) != want {
		t.Fatalf("journal = %v\n    want %s", types, want)
	}
	ctrl2 := script()
	r2 := newRig(t, Config{HeartbeatInterval: time.Hour, Store: st2}, ctrl2)
	if pst, ok := r2.srv.Project("proj"); !ok || pst.State != "running" || pst.Queued != 1 || pst.Finished != 0 {
		t.Fatalf("recovered project: %+v, want only the orphaned parent, queued", pst)
	}
	run(r2, "w2", "parent")
	sendResult(t, r2, "parent", "w2")
	run(r2, "w3", "kid1")
	run(r2, "w4", "kid2")
	sendResult(t, r2, "kid1", "w3")
	sendResult(t, r2, "kid2", "w4")
	fst, err := r2.srv.WaitProject(ctxTimeout(t, 2*time.Second), "proj")
	if err != nil || fst.State != "finished" {
		t.Fatalf("state = %q (%s), err %v", fst.State, fst.Note, err)
	}
	for cmd, n := range runs {
		if n > 1+maxRetries {
			t.Errorf("%s ran %d times", cmd, n)
		}
	}
	if fin, _ := ctrl2.counts(); fin != 3 {
		t.Errorf("recovered controller saw %d completions, want 3", fin)
	}
}

// TestWorkerReportedFailure: a result with OK=false is a lost run reported by
// a live worker. It spends the retry budget like a worker loss, then reaches
// the controller as a terminal failure; every report is acknowledged (the
// worker must not redeliver it for ever), the command leaves the worker's
// assignment record, and both steps are journaled with the records a worker
// loss uses.
func TestWorkerReportedFailure(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	ctrl := &testController{submit: []wire.CommandSpec{cmdSpec("c1")}}
	r := newRigBudget(t, Config{HeartbeatInterval: time.Hour, Store: st}, ctrl, 1)
	r.submit(t, "proj")
	report := func(worker string) {
		t.Helper()
		res := wire.CommandResult{CommandID: "c1", Project: "proj", WorkerID: worker, Error: "engine exploded", WallSeconds: 0.5}
		if err := r.request(t, wire.MsgResult, &res, nil); err != nil {
			t.Fatalf("failure report not acknowledged: %v", err)
		}
	}
	takeWork(t, r, "w1", []string{"sim"}, "c1")
	report("w0") // not the worker running it: nobody's run
	if pst, _ := r.srv.Project("proj"); pst.Running != 1 {
		t.Fatalf("a stranger's failure report moved the command: %+v", pst)
	}
	report("w1")
	if pst, _ := r.srv.Project("proj"); pst.Queued != 1 || pst.Failed != 0 {
		t.Fatalf("after the first failure: %+v, want requeued", pst)
	}
	if r.srv.core.q.InflightCores("") != 0 {
		t.Fatal("the failed run's fair-share charge was not released")
	}
	// Same worker again: the failed command is off its record, so this is an
	// ordinary announce, not an orphaned workload.
	takeWork(t, r, "w1", []string{"sim"}, "c1")
	report("w1")
	if _, failed := ctrl.counts(); failed != 1 {
		t.Fatalf("controller saw %d terminal failures, want 1", failed)
	}
	if pst, _ := r.srv.Project("proj"); pst.Failed != 1 || pst.Queued != 0 || pst.Running != 0 {
		t.Fatalf("after the second failure: %+v, want failed terminally", pst)
	}
	report("w1") // a spooled redelivery: acknowledged and ignored
	if _, failed := ctrl.counts(); failed != 1 {
		t.Fatalf("redelivered failure counted again: %d", failed)
	}
	r.srv.Close()
	st.Close()

	st2 := openTestStore(t, dir)
	defer st2.Close()
	var got []string
	for _, line := range journalLines(st2.Recovered().Records) {
		if strings.HasPrefix(line, "command_requeued") || strings.HasPrefix(line, "command_failed") {
			got = append(got, line)
		}
	}
	want := []string{
		`command_requeued project=proj cmd=c1 worker=w1 tenant= count=1 gen=0 note="worker reported failure: engine exploded"`,
		`command_failed project=proj cmd=c1 worker=w1 tenant= count=0 gen=0 note="worker reported failure: engine exploded; retries exhausted"`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("journal:\n got  %q\n want %q", got, want)
	}
}
