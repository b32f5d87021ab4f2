package server

import (
	"errors"
	"strings"
	"testing"
	"time"

	"copernicus/internal/wire"
)

// tenantSpec is cmdSpec with a priority knob (tenant is inherited from the
// project, never set by controllers).
func prioSpec(id string, prio int) wire.CommandSpec {
	c := cmdSpec(id)
	c.Priority = prio
	return c
}

func TestSubmitReceiptThreadsTenant(t *testing.T) {
	ctrl := &testController{submit: []wire.CommandSpec{cmdSpec("c1"), prioSpec("c2", 7)}}
	r := newRig(t, Config{HeartbeatInterval: time.Hour}, ctrl)

	var receipt wire.SubmitReceipt
	sub := wire.ProjectSubmit{Name: "proj", Controller: "test", Tenant: "acme", Priority: 3}
	if err := r.request(t, wire.MsgSubmit, &sub, &receipt); err != nil {
		t.Fatal(err)
	}
	if receipt.Project != "proj" || receipt.Tenant != "acme" {
		t.Errorf("receipt = %+v", receipt)
	}
	if receipt.Server != r.srv.Node().ID() {
		t.Errorf("receipt.Server = %q, want %q", receipt.Server, r.srv.Node().ID())
	}
	if receipt.AcceptedUnixNano == 0 {
		t.Error("receipt has no admission timestamp")
	}

	st, ok := r.srv.Project("proj")
	if !ok || st.Tenant != "acme" {
		t.Errorf("project status tenant = %q, want acme", st.Tenant)
	}

	// Dispatched specs carry the tenant; c1 inherits the project base
	// priority, c2 keeps its own.
	var wl wire.Workload
	if err := r.request(t, wire.MsgAnnounce, announce("w1", 2), &wl); err != nil {
		t.Fatal(err)
	}
	if len(wl.Commands) != 2 {
		t.Fatalf("workload = %v", wl.Commands)
	}
	for _, c := range wl.Commands {
		if c.Tenant != "acme" {
			t.Errorf("command %s has tenant %q, want acme", c.ID, c.Tenant)
		}
		switch c.ID {
		case "c1":
			if c.Priority != 3 {
				t.Errorf("c1 priority = %d, want inherited 3", c.Priority)
			}
		case "c2":
			if c.Priority != 7 {
				t.Errorf("c2 priority = %d, want its own 7", c.Priority)
			}
		}
	}
	// Tenant accounting followed the dispatch.
	ts, ok := r.srv.core.q.Tenant("acme")
	if !ok || ts.InflightCores != 2 {
		t.Errorf("tenant status = %+v", ts)
	}
}

func TestSubmitPastDeadlineShed(t *testing.T) {
	r := newRig(t, Config{}, &testController{})
	sub := wire.ProjectSubmit{Name: "late", Controller: "test",
		DeadlineUnixNano: time.Now().Add(-time.Second).UnixNano()}
	err := r.request(t, wire.MsgSubmit, &sub, nil)
	if !errors.Is(err, wire.ErrAdmissionShed) {
		t.Fatalf("err = %v, want ErrAdmissionShed", err)
	}
	if _, ok := r.srv.Project("late"); ok {
		t.Error("shed project exists")
	}
}

// TestQuotaRejectionWithdrawsProject: when a controller's initial submits
// are bounced by the tenant's queued-command quota, the whole project is
// withdrawn — typed terminal error, nothing queued, name reusable.
func TestQuotaRejectionWithdrawsProject(t *testing.T) {
	ctrl := &testController{submit: []wire.CommandSpec{cmdSpec("c1"), cmdSpec("c2")}}
	r := newRig(t, Config{HeartbeatInterval: time.Hour}, ctrl)

	var st wire.TenantStatus
	upd := wire.TenantQuotaUpdate{Tenant: "capped", MaxQueued: 1, MaxCores: -1, MaxStorageBytes: -1}
	if err := r.request(t, wire.MsgTenantQuotaSet, &upd, &st); err != nil {
		t.Fatal(err)
	}
	if st.MaxQueued != 1 {
		t.Fatalf("quota status = %+v", st)
	}

	sub := wire.ProjectSubmit{Name: "proj", Controller: "test", Tenant: "capped"}
	err := r.request(t, wire.MsgSubmit, &sub, nil)
	if !errors.Is(err, wire.ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded", err)
	}
	if errors.Is(err, wire.ErrAdmissionShed) {
		t.Error("quota rejection matched the retryable class too")
	}
	if _, ok := r.srv.Project("proj"); ok {
		t.Error("rejected project still exists")
	}
	if n := r.srv.QueueLen(); n != 0 {
		t.Errorf("queue holds %d commands after withdrawal", n)
	}

	// Raising the quota frees the name for a clean retry.
	upd.MaxQueued = 0
	if err := r.request(t, wire.MsgTenantQuotaSet, &upd, &st); err != nil {
		t.Fatal(err)
	}
	var receipt wire.SubmitReceipt
	if err := r.request(t, wire.MsgSubmit, &sub, &receipt); err != nil {
		t.Fatalf("resubmit after quota raise: %v", err)
	}
	if receipt.Project != "proj" {
		t.Errorf("receipt = %+v", receipt)
	}
}

func TestGlobalBoundShedsSubmit(t *testing.T) {
	ctrl := &testController{submit: []wire.CommandSpec{cmdSpec("c1"), cmdSpec("c2")}}
	r := newRig(t, Config{HeartbeatInterval: time.Hour, MaxQueuedTotal: 1}, ctrl)
	err := r.request(t, wire.MsgSubmit, &wire.ProjectSubmit{Name: "proj", Controller: "test"}, nil)
	if !errors.Is(err, wire.ErrAdmissionShed) {
		t.Fatalf("err = %v, want ErrAdmissionShed", err)
	}
	if n := r.srv.QueueLen(); n != 0 {
		t.Errorf("queue holds %d commands after shed", n)
	}
}

func TestTenantAdminRoundTrip(t *testing.T) {
	r := newRig(t, Config{}, &testController{})
	var st wire.TenantStatus
	upd := wire.TenantQuotaUpdate{Tenant: "acme", Weight: 4,
		MaxQueued: 10, MaxCores: 8, MaxStorageBytes: 1 << 20}
	if err := r.request(t, wire.MsgTenantQuotaSet, &upd, &st); err != nil {
		t.Fatal(err)
	}
	if st.Weight != 4 || st.MaxQueued != 10 || st.MaxCores != 8 || st.MaxStorageBytes != 1<<20 {
		t.Errorf("set status = %+v", st)
	}
	var got wire.TenantStatus
	if err := r.request(t, wire.MsgTenantQuotaGet, &wire.TenantQuotaRequest{Tenant: "acme"}, &got); err != nil {
		t.Fatal(err)
	}
	if got != st {
		t.Errorf("get = %+v, want %+v", got, st)
	}
	// Unknown tenants report the defaults they would get.
	if err := r.request(t, wire.MsgTenantQuotaGet, &wire.TenantQuotaRequest{Tenant: "ghost"}, &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != "ghost" || got.Weight != 1 {
		t.Errorf("unknown tenant = %+v", got)
	}
	var list wire.TenantList
	if err := r.request(t, wire.MsgTenantList, &wire.TenantListRequest{}, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Tenants) != 1 || list.Tenants[0].ID != "acme" {
		t.Errorf("list = %+v", list.Tenants)
	}
	// Empty tenant IDs are refused (too easy to fat-finger a global change).
	if err := r.request(t, wire.MsgTenantQuotaSet, &wire.TenantQuotaUpdate{}, nil); err == nil {
		t.Error("empty tenant quota update accepted")
	}
}

// TestCheckpointPreemptionForStarvedTenant drives the full preemption path:
// tenant "whale" occupies the only worker with a checkpointed command,
// tenant "minnow" starves past PreemptAge, the monitor evicts the whale's
// command at its checkpoint, the old worker is told to abort via heartbeat
// ack, and the freed core goes to the minnow.
func TestCheckpointPreemptionForStarvedTenant(t *testing.T) {
	whaleCtrl := &testController{submit: []wire.CommandSpec{cmdSpec("a1")}}
	r := newRig(t, Config{
		HeartbeatInterval: 40 * time.Millisecond,
		PreemptAge:        50 * time.Millisecond,
	}, whaleCtrl)

	var receipt wire.SubmitReceipt
	subA := wire.ProjectSubmit{Name: "pa", Controller: "test", Tenant: "whale"}
	if err := r.request(t, wire.MsgSubmit, &subA, &receipt); err != nil {
		t.Fatal(err)
	}
	var wl wire.Workload
	if err := r.request(t, wire.MsgAnnounce, announce("w1", 1), &wl); err != nil {
		t.Fatal(err)
	}
	if len(wl.Commands) != 1 || wl.Commands[0].ID != "a1" {
		t.Fatalf("workload = %v", wl.Commands)
	}
	// a1 reports a checkpoint — this is what makes it evictable.
	partial := wire.CommandResult{CommandID: "a1", Project: "pa", WorkerID: "w1",
		OK: true, Partial: true, Checkpoint: []byte("halfway")}
	if err := r.request(t, wire.MsgResult, &partial, nil); err != nil {
		t.Fatal(err)
	}

	// The minnow's project arrives; no cores are free, so it starves. The
	// submit rides through the same registry instance (testController is
	// shared), so queue a distinct command ID.
	whaleCtrl.mu.Lock()
	whaleCtrl.submit = []wire.CommandSpec{cmdSpec("b1")}
	whaleCtrl.mu.Unlock()
	subB := wire.ProjectSubmit{Name: "pb", Controller: "test", Tenant: "minnow"}
	if err := r.request(t, wire.MsgSubmit, &subB, nil); err != nil {
		t.Fatal(err)
	}

	// Keep w1 alive with heartbeats until the monitor preempts a1: the
	// heartbeat ack must carry the abort. Liveness matters — if w1 were
	// reaped, the ordinary worker-loss path would requeue a1 and mask the
	// preemption under test.
	deadline := time.Now().Add(3 * time.Second)
	aborted := false
	for time.Now().Before(deadline) && !aborted {
		hb := wire.Heartbeat{WorkerID: "w1", CommandIDs: []string{"a1"}}
		var ack wire.HeartbeatAck
		if err := r.request(t, wire.MsgHeartbeat, &hb, &ack); err != nil {
			t.Fatal(err)
		}
		for _, id := range ack.AbortCommandIDs {
			if id == "a1" {
				aborted = true
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !aborted {
		t.Fatal("worker never told to abort the preempted command")
	}

	// The freed core serves the starved tenant, and the whale's command is
	// back in the queue with its checkpoint intact.
	seen := map[string][]byte{}
	deadline = time.Now().Add(3 * time.Second)
	for len(seen) < 2 && time.Now().Before(deadline) {
		var wl2 wire.Workload
		if err := r.request(t, wire.MsgAnnounce, announce("w2", 1), &wl2); err != nil {
			t.Fatal(err)
		}
		for _, c := range wl2.Commands {
			seen[c.ID] = c.Checkpoint
		}
		// Heartbeat w1 so it is not reaped mid-assertion.
		hb := wire.Heartbeat{WorkerID: "w1"}
		if err := r.request(t, wire.MsgHeartbeat, &hb, nil); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, ok := seen["b1"]; !ok {
		t.Error("starved tenant's command never dispatched after preemption")
	}
	cp, ok := seen["a1"]
	if !ok {
		t.Error("preempted command never redispatched")
	} else if string(cp) != "halfway" {
		t.Errorf("preempted command redispatched with checkpoint %q, want \"halfway\"", cp)
	}
}

// TestRefusedBatchQueuesNothing: a CommandFinished handler submits two
// commands and the tenant's queued-command quota admits only one. The batch
// is refused whole: the project fails with the quota error, and neither
// command is queued, dispatched or billed.
func TestRefusedBatchQueuesNothing(t *testing.T) {
	ctrl := &testController{
		submit:   []wire.CommandSpec{cmdSpec("c1")},
		children: map[string][]wire.CommandSpec{"c1": {cmdSpec("k1"), cmdSpec("k2")}},
	}
	r := newRig(t, Config{HeartbeatInterval: time.Hour, RelayTimeout: 50 * time.Millisecond}, ctrl)
	upd := wire.TenantQuotaUpdate{Tenant: "capped", MaxQueued: 1, MaxCores: -1, MaxStorageBytes: -1}
	if err := r.request(t, wire.MsgTenantQuotaSet, &upd, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.request(t, wire.MsgSubmit, &wire.ProjectSubmit{Name: "proj", Controller: "test", Tenant: "capped"}, nil); err != nil {
		t.Fatal(err)
	}
	takeWork(t, r, "w1", []string{"sim"}, "c1")
	res := wire.CommandResult{CommandID: "c1", Project: "proj", WorkerID: "w1", OK: true}
	if err := r.request(t, wire.MsgResult, &res, nil); !errors.Is(err, wire.ErrQuotaExceeded) {
		t.Errorf("result ack err = %v, want the controller's quota refusal", err)
	}
	st, _ := r.srv.Project("proj")
	if st.State != "failed" || !strings.Contains(st.Note, wire.ErrQuotaExceeded.Error()) {
		t.Errorf("project %s (%q), want failed with the quota error", st.State, st.Note)
	}
	if st.Queued != 0 || st.Running != 0 {
		t.Errorf("project holds %d queued and %d running commands after the refusal", st.Queued, st.Running)
	}
	if n := r.srv.QueueLen(); n != 0 {
		t.Errorf("queue holds %d commands after the refusal", n)
	}
	if n := r.srv.core.q.InflightCores("capped"); n != 0 {
		t.Errorf("tenant still charged %d in-flight cores", n)
	}
	takeWork(t, r, "w2", []string{"sim"}) // nothing to hand out
}
