package server

import (
	"slices"
	"testing"
	"time"

	"copernicus/internal/controller"
	"copernicus/internal/overlay"
	"copernicus/internal/store"
	"copernicus/internal/wire"
)

// refillRig is a one-server rig whose client node speaks for a worker by
// hand: the worker's ID is the client's node ID, so its results come from
// the worker itself.
func refillRig(t *testing.T, ids ...string) (*rig, string) {
	t.Helper()
	ctrl := &testController{finishOn: len(ids)}
	for _, id := range ids {
		ctrl.submit = append(ctrl.submit, cmdSpec(id))
	}
	r := newRig(t, Config{}, ctrl)
	r.submit(t, "proj")
	return r, r.client.ID()
}

// sendResult delivers an OK result for id from worker, asking for refill
// cores, and returns the raw reply.
func (r *rig) sendResult(t *testing.T, worker, id string, refill int) []byte {
	t.Helper()
	return r.sendResultVia(t, r.client, worker, id, refill)
}

// sendResultVia is sendResult with the envelope sent by node.
func (r *rig) sendResultVia(t *testing.T, node *overlay.Node, worker, id string, refill int) []byte {
	t.Helper()
	payload, err := wire.Marshal(&wire.CommandResult{Project: "proj", CommandID: id, WorkerID: worker,
		OK: true, Output: []byte("out-" + id), Refill: refill})
	if err != nil {
		t.Fatal(err)
	}
	reply, err := node.RequestTimeout(r.srv.Node().ID(), wire.MsgResult, payload, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return reply
}

// refill is sendResult for a refill, decoding the workload it brings.
func (r *rig) refill(t *testing.T, worker, id string) []string {
	t.Helper()
	var wl wire.Workload
	if err := wire.Unmarshal(r.sendResult(t, worker, id, 1), &wl); err != nil {
		t.Fatalf("the reply to %s's refill is no workload: %v", id, err)
	}
	var ids []string
	for _, cmd := range wl.Commands {
		ids = append(ids, cmd.ID)
	}
	return ids
}

// finishedOnce waits for the project to finish and checks the controller
// heard of each of ids, which are sorted, exactly once.
func finishedOnce(t *testing.T, r *rig, ids ...string) {
	t.Helper()
	if st, err := r.srv.WaitProject(ctxTimeout(t, 5*time.Second), "proj"); err != nil || st.State != string(projFinished) {
		t.Fatalf("project %+v, %v; want finished", st, err)
	}
	r.ctrl.mu.Lock()
	defer r.ctrl.mu.Unlock()
	var heard []string
	for _, res := range r.ctrl.finished {
		heard = append(heard, res.CommandID)
	}
	slices.Sort(heard)
	if !slices.Equal(heard, ids) {
		t.Errorf("the controller heard of %v, want each of %v once", heard, ids)
	}
}

// TestLostRefillReplyRequeuedByRetry: the reply to a refill-bearing result
// is lost while the worker stays busy on its other core. The worker's retry
// of the result requeues what the lost refill assigned and refills afresh,
// so nothing waits for the worker to go idle: the project finishes on
// refills alone, and every result counts once.
func TestLostRefillReplyRequeuedByRetry(t *testing.T) {
	r, w := refillRig(t, "c1", "c2", "c3", "c4")
	var wl wire.Workload
	if err := r.request(t, wire.MsgAnnounce, announce(w, 2), &wl); err != nil || len(wl.Commands) != 2 {
		t.Fatalf("announce: %v, %+v", err, wl.Commands)
	}
	first, busy := wl.Commands[0].ID, wl.Commands[1].ID
	if lost := r.refill(t, w, first); len(lost) != 1 {
		t.Fatalf("the first refill assigned %v, want one command", lost)
	}
	run := r.refill(t, w, first) // the reply above never reached the worker
	if len(run) != 1 {
		t.Fatalf("the retried refill assigned %v, want one command", run)
	}
	o := r.srv.cfg.Obs
	if got := metricValue(t, o, "copernicus_commands_orphaned_total"); got != 1 {
		t.Errorf("copernicus_commands_orphaned_total = %g, want 1 (the lost refill's command)", got)
	}
	for len(run) > 0 {
		run = append(run[1:], r.refill(t, w, run[0])...)
	}
	if next := r.refill(t, w, busy); len(next) != 0 {
		t.Errorf("the last result's refill assigned %v from an empty queue", next)
	}
	finishedOnce(t, r, "c1", "c2", "c3", "c4")
	if got := metricValue(t, o, "copernicus_results_duplicate_total"); got != 1 {
		t.Errorf("copernicus_results_duplicate_total = %g, want 1 (the retry)", got)
	}
}

// TestResultWithoutRefillRepliesAsBefore: a result that asks for no refill
// (a worker older than the field) and one that asks but that another node
// sent (a forwarded or redelivered copy) get the replies they always got and
// assign nothing.
func TestResultWithoutRefillRepliesAsBefore(t *testing.T) {
	r, w := refillRig(t, "c1", "c2", "c3", "c4")
	other := overlay.NewNode(overlay.NewIdentityFromSeed(3), overlay.NewTrustStore(), r.net.Transport())
	defer other.Close()
	if _, err := other.ConnectPeer("srv"); err != nil {
		t.Fatal(err)
	}
	var wl wire.Workload
	if err := r.request(t, wire.MsgAnnounce, announce(w, 2), &wl); err != nil || len(wl.Commands) != 2 {
		t.Fatalf("announce: %v, %+v", err, wl.Commands)
	}
	a, b := wl.Commands[0].ID, wl.Commands[1].ID
	for _, c := range []struct {
		via    *overlay.Node
		id     string
		refill int
		want   string
	}{
		{r.client, a, 0, "ok"},
		{r.client, a, 0, "ignored"},
		{other, b, 1, "ok"},
		{other, b, 1, "ignored"},
	} {
		if got := string(r.sendResultVia(t, c.via, w, c.id, c.refill)); got != c.want {
			t.Errorf("result %s sent by %s (refill %d) answered %q, want %q", c.id, c.via.ID(), c.refill, got, c.want)
		}
	}
	if n := r.srv.QueueLen(); n != 2 {
		t.Errorf("%d commands queued after the results, want both still there", n)
	}
}

// TestReplayedRefillAssignsOnlyJournaled: a refill journals the result,
// then the assignments, under one commit; recovery applies those records
// and runs no refill of its own. A log cut after the result record replays
// the refilled command as queued, and the whole log as running on the
// worker; neither replay journals anything.
func TestReplayedRefillAssignsOnlyJournaled(t *testing.T) {
	newCtl := func() controller.Controller {
		return &testController{submit: []wire.CommandSpec{cmdSpec("c1"), cmdSpec("c2"), cmdSpec("c3")}}
	}
	var journal []store.Record
	c := testCore(newCtl, lcClock, &journal)
	if _, err := c.Submit(&wire.ProjectSubmit{Name: "proj", Controller: "test"}); err != nil {
		t.Fatal(err)
	}
	info := wire.WorkerInfo{ID: "w1", Platform: "smp", Cores: 1, Executables: []string{"sim"}}
	c.TouchWorker(info)
	c.Assign(info, c.q.Match(info))
	res := &wire.CommandResult{Project: "proj", CommandID: "c1", WorkerID: "w1", OK: true, Refill: 1}
	payload, err := wire.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Result(res, payload); err != nil {
		t.Fatal(err)
	}
	cut := len(journal)
	wl, ok := c.Refill(res)
	if !ok || len(wl.Commands) != 1 || wl.Commands[0].ID != "c2" {
		t.Fatalf("refill: %v, %+v; want c2", ok, wl.Commands)
	}
	for _, want := range []struct {
		records int
		status  cmdStatus
		worker  string
	}{{cut, cmdQueued, ""}, {len(journal), cmdRunning, "w1"}} {
		var again []store.Record
		rc := testCore(newCtl, lcClock, &again)
		rc.replay(&store.Recovered{Records: journal[:want.records]})
		if len(again) > 0 {
			t.Errorf("replaying %d records journaled %s", want.records, journalLines(again))
		}
		img := imageOf(rc)["proj"]
		if got := img.Commands["c2"]; got.Status != want.status || got.Worker != want.worker {
			t.Errorf("replaying %d records left c2 %+v, want status %d on %q", want.records, got, want.status, want.worker)
		}
		if got := img.Commands["c3"].Status; got != cmdQueued {
			t.Errorf("replaying %d records left c3 in status %d, want queued", want.records, got)
		}
	}
}
