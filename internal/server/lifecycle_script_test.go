package server

import (
	"fmt"
	"testing"
	"time"

	"copernicus/internal/store"
	"copernicus/internal/wire"
)

// The lifecycle script: one deterministic run that walks every command
// transition over a real store — submit, assign, checkpoint, a
// worker's frame chunk, worker-lost requeue, preempt, terminal failure,
// result, finish. It speaks only the wire protocol (and ticks the starvation monitor by hand), so the
// same file drives the build before the transition table: that is where
// testdata/lifecycle_journal.golden was captured.

// typedCmd is a one-core command only a worker advertising exe can take, so
// every announce of the script matches exactly the commands it names.
func typedCmd(id, exe string) wire.CommandSpec {
	return wire.CommandSpec{ID: id, Type: exe, MinCores: 1, MaxCores: 1}
}

// lifecycleCtl is the script's controller: project "proj" runs a1–a3 and
// finishes on its second result, project "pb" only ever queues b1.
// Recovery replays Start on a fresh instance, so a restarted rig is given
// another one of these.
func lifecycleCtl() *testController {
	return &testController{
		submitFor: map[string][]wire.CommandSpec{
			"proj": {typedCmd("a1", "x1"), typedCmd("a2", "x2"), typedCmd("a3", "x3")},
			"pb":   {typedCmd("b1", "y")},
		},
		finishOn: 2,
	}
}

func lifecycleConfig(st *store.Store) Config {
	// The hour keeps the reaper and the monitor's own preemption tick out of
	// the run; the script ticks preemptForStarved itself.
	return Config{HeartbeatInterval: time.Hour, PreemptAge: time.Millisecond, MaxRetries: 1, Store: st}
}

// takeWork announces worker with the given executables and checks that it is
// handed exactly want, in that order.
func takeWork(t *testing.T, r *rig, worker string, exes []string, want ...string) {
	t.Helper()
	req := announce(worker, len(exes))
	req.Info.Executables = exes
	var wl wire.Workload
	if err := r.request(t, wire.MsgAnnounce, req, &wl); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, c := range wl.Commands {
		got = append(got, c.ID)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s was handed %v, want %v", worker, got, want)
	}
}

func workerLost(t *testing.T, r *rig, worker string, cmds ...string) {
	t.Helper()
	if err := r.request(t, wire.MsgWorkerFailed, &wire.WorkerFailed{WorkerID: worker, CommandIDs: cmds}, nil); err != nil {
		t.Fatal(err)
	}
}

// runLifecycleScript plays the script on a fresh rig over st and returns the
// rig, still open.
func runLifecycleScript(t *testing.T, st *store.Store) *rig {
	t.Helper()
	r := newRig(t, lifecycleConfig(st), lifecycleCtl())
	submit := func(name, tenant string) {
		t.Helper()
		if err := r.request(t, wire.MsgSubmit, &wire.ProjectSubmit{Name: name, Controller: "test", Tenant: tenant}, nil); err != nil {
			t.Fatal(err)
		}
	}
	submit("proj", "whale")
	takeWork(t, r, "w1", []string{"x1", "x2"}, "a1", "a2")
	partial := wire.CommandResult{CommandID: "a1", Project: "proj", WorkerID: "w1",
		OK: true, Partial: true, Checkpoint: []byte("half-a1")}
	if err := r.request(t, wire.MsgResult, &partial, nil); err != nil {
		t.Fatal(err)
	}
	// A worker's frame chunk: answered at once, taken in nowhere.
	if ack := sendChunk(t, r, mkChunk("a2", 0, 1, 2)); ack != "ignored" {
		t.Fatalf("chunk ack = %q", ack)
	}
	workerLost(t, r, "w1", "a2") // requeued: the first of MaxRetries = 1

	// The minnow starves behind the whale's checkpointed a1, which is evicted.
	submit("pb", "minnow")
	time.Sleep(5 * time.Millisecond)
	r.srv.preemptForStarved()
	if st, _ := r.srv.Project("proj"); st.Running != 0 || st.Queued != 3 {
		t.Fatalf("after preemption: %+v, want all three of proj's commands queued", st)
	}

	takeWork(t, r, "w2", []string{"x2"}, "a2")
	workerLost(t, r, "w2", "a2") // retries exhausted: terminal failure
	if _, failed := r.ctrl.counts(); failed != 1 {
		t.Fatalf("controller saw %d terminal failures, want 1", failed)
	}

	takeWork(t, r, "w3", []string{"x3"}, "a3")
	takeWork(t, r, "w4", []string{"x1"}, "a1")
	sendResult(t, r, "a3", "w3")
	sendResult(t, r, "a1", "w4")
	if fst, err := r.srv.WaitProject(ctxTimeout(t, 2*time.Second), "proj"); err != nil || fst.State != "finished" {
		t.Fatalf("proj: state=%q err=%v", fst.State, err)
	}
	return r
}

// journalLines renders records as the fields the transitions decide —
// everything but sequence numbers, timestamps and payload bytes.
func journalLines(recs []store.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = fmt.Sprintf("%s project=%s cmd=%s worker=%s tenant=%s count=%d gen=%d note=%q",
			r.Type, r.Project, r.Command, r.Worker, r.Tenant, r.Count, r.Generation, r.Note)
	}
	return out
}
