package core

import (
	"bytes"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"copernicus/internal/chaos"
	"copernicus/internal/controller"
	"copernicus/internal/obs"
	"copernicus/internal/overlay"
	"copernicus/internal/store"
	"copernicus/internal/store/replica"
	"copernicus/internal/wire"
)

// replicatedFabric builds the standard failover topology: server-0 holds
// projects, server-1 is its warm standby (and a relay for half the
// workers), with replication timers scaled down so a failover completes in
// well under a second.
func replicatedFabric(t *testing.T, mutate func(*FabricConfig)) *Fabric {
	t.Helper()
	cfg := FabricConfig{
		Servers:          2,
		WorkersPerServer: 2,
		Standbys:         map[int]int{0: 1},
		StateDir:         t.TempDir(),
		ResultSpoolDir:   t.TempDir(),
		ReplInterval:     25 * time.Millisecond,
		LeaseTimeout:     350 * time.Millisecond,
		FsyncInterval:    200 * time.Microsecond,
		SnapshotEvery:    48,
		Obs:              obs.New(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	f, err := NewFabric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// waitClosed fails the test unless ch closes within timeout.
func waitClosed(t *testing.T, ch <-chan struct{}, timeout time.Duration, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(timeout):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// waitReplicaCaughtUp blocks until the standby of primary pi has applied at
// least min records and counts itself caught up since its last join — the
// standby's own state, which is what a lapsed lease reads before it
// promotes — and returns its applied frontier: every record up to it is on
// the standby.
func waitReplicaCaughtUp(t *testing.T, f *Fabric, pi int, min uint64) uint64 {
	t.Helper()
	standby := f.Peer(f.cfg.Standbys[pi])
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if applied := standby.AckedSeq(); applied >= min && standby.CaughtUp() {
			return applied
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("standby of primary %d never caught up (applied %d of at least %d, caught up since its last join %v)",
		pi, standby.AckedSeq(), min, standby.CaughtUp())
	return 0
}

// assertMSMResult decodes st as an MSM result and applies the convergence
// checks: every generation present, min RMSD non-increasing.
func assertMSMResult(t *testing.T, st wire.ProjectStatus, p controller.MSMParams) {
	t.Helper()
	if st.State != "finished" {
		t.Fatalf("state = %q (%s)", st.State, st.Note)
	}
	var res controller.MSMResult
	if err := wire.Unmarshal(st.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Generations) != p.Generations {
		t.Fatalf("converged with %d generations, want %d", len(res.Generations), p.Generations)
	}
	for i := 1; i < len(res.Generations); i++ {
		if res.Generations[i].MinRMSD > res.Generations[i-1].MinRMSD+1e-9 {
			t.Errorf("min RMSD increased between generations %d and %d", i-1, i)
		}
	}
}

// TestFailoverPromotesStandbyMidMSM is the tentpole end-to-end: an adaptive
// MSM campaign is running against a replicated project server when the
// server is hard-killed. The standby's lease lapses, it replays its warm
// copy through the normal recovery path, promotes itself, re-seeds the
// queue, and the campaign converges to a full result — no command lost.
// The client follows the promotion announcement, and a later restart of the
// ex-primary ends with it fenced and demoted to standby, its divergent
// state directory archived: exactly one primary at every step that matters.
func TestFailoverPromotesStandbyMidMSM(t *testing.T) {
	f := replicatedFabric(t, nil)
	defer f.Close()
	stateDir := f.cfg.StateDir

	p := smallMSMParams()
	if err := f.Submit(ctxTimeout(t, 30*time.Second), "failover-msm", controller.MSMControllerName, &p); err != nil {
		t.Fatal(err)
	}
	waitForProgress(t, f, "failover-msm", 6)
	waitReplicaCaughtUp(t, f, 0, 10)

	f.CrashServer(0)
	waitClosed(t, f.Peer(1).Promoted(), 30*time.Second, "standby promotion")
	if got := f.Peer(1).Role(); got != store.RolePrimary {
		t.Fatalf("promoted standby role = %q, want %q", got, store.RolePrimary)
	}
	if e := f.Peer(1).Epoch(); e != 2 {
		t.Fatalf("promoted standby epoch = %d, want 2", e)
	}
	if f.Store(1) == nil {
		t.Fatal("promotion did not hand the recovered store to the serving layer")
	}

	st, err := f.Wait(ctxTimeout(t, 4*time.Minute), "failover-msm")
	if err != nil {
		t.Fatal(err)
	}
	assertMSMResult(t, st, p)

	// The promotion announcement must have retargeted the client's
	// submissions to the new primary.
	promotedID := f.Server(1).Node().ID()
	deadline := time.Now().Add(10 * time.Second)
	for f.Client().Server() != promotedID {
		if time.Now().After(deadline) {
			t.Fatalf("client still targets %s, want promoted %s", f.Client().Server(), promotedID)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The fenced ex-primary comes back, discovers the higher epoch on its
	// first shipment, and demotes to standby instead of split-braining.
	if err := f.RestartServer(0); err != nil {
		t.Fatal(err)
	}
	waitClosed(t, f.Peer(0).Demoted(), 30*time.Second, "ex-primary demotion")
	if got := f.Peer(0).Role(); got != store.RoleStandby {
		t.Fatalf("restarted ex-primary role = %q, want %q", got, store.RoleStandby)
	}
	if got := f.Peer(1).Role(); got != store.RolePrimary {
		t.Fatalf("two primaries after rejoin: server 1 role = %q", got)
	}
	archives, err := filepath.Glob(filepath.Join(stateDir, "server-0.fenced-e*"))
	if err != nil || len(archives) == 0 {
		t.Fatalf("fenced ex-primary's divergent state directory was not archived (err=%v)", err)
	}
	// And it resyncs: the new standby's applied frontier reaches the new
	// primary's journal end.
	deadline = time.Now().Add(30 * time.Second)
	for f.Peer(0).AckedSeq() != f.Store(1).LastSeq() || f.Store(1).LastSeq() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("demoted standby never resynced (applied %d, primary journal %d)",
				f.Peer(0).AckedSeq(), f.Store(1).LastSeq())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Satellite: the replication gauges are live on /metrics.
	ms := httptest.NewServer(f.Obs.Handler())
	defer ms.Close()
	body := httpGetBody(t, ms.URL+"/metrics")
	for metric, min := range map[string]float64{
		"copernicus_replica_ship_seconds_count":    1,
		"copernicus_replica_shipped_records_total": 10,
		"copernicus_replica_promotions_total":      1,
		"copernicus_replica_fencings_total":        1,
	} {
		if v := promValue(t, body, metric); v < min {
			t.Errorf("%s = %v, want >= %v", metric, v, min)
		}
	}
	// Lease state: the promoted primary holds the lease (1) and the demoted
	// standby is back in contact (1) — summed across both nodes: 2.
	if v := promValue(t, body, "copernicus_replica_lease_state"); v != 2 {
		t.Errorf("copernicus_replica_lease_state sum = %v, want 2 (both sides held)", v)
	}
}

// TestFailoverUnderPartitionChaos drives the same campaign through a full
// network partition of the replication link (plus probabilistic write drops
// on the server↔server transports): the standby promotes during the
// partition, the healed ex-primary is fenced on its next shipment and
// demotes, and the campaign still converges — the split-brain window closes
// by epoch fencing, not luck.
func TestFailoverUnderPartitionChaos(t *testing.T) {
	f := replicatedFabric(t, func(cfg *FabricConfig) {
		cfg.ServerChaos = &chaos.Config{Seed: 11, DropProb: 0.02}
	})
	defer f.Close()

	p := smallMSMParams()
	if err := f.Submit(ctxTimeout(t, 30*time.Second), "partition-msm", controller.MSMControllerName, &p); err != nil {
		t.Fatal(err)
	}
	// In process, not by a status poll: under the drop faults one status
	// request can spend its 5 s timeout while the campaign finishes.
	waitRepexProgress(t, f, 0, "partition-msm", 6)

	// Sever the primary's island from the standby's: the direct replication
	// link in both directions, plus the client's bridge to the primary (the
	// overlay forwards envelopes multi-hop, so a client peered with both
	// sides would relay batches around a server-only cut). The campaign
	// keeps running on the primary while the standby's lease runs out. A
	// drop fault can make the standby rejoin around the cut, and a standby
	// not caught up since its last join rightly never promotes: then heal,
	// and cut again once it has caught up, a few times at most.
	const cuts = 3
	for cut := 1; ; cut++ {
		waitReplicaCaughtUp(t, f, 0, 10)
		f.ServerChaos[0].Partition("server-1")
		f.ServerChaos[1].Partition("server-0")
		f.ClientChaos.Partition("server-0")
		if promotesCaughtUp(t, f.Peer(1)) {
			break
		}
		if cut == cuts {
			t.Fatalf("standby dropped its caught-up state at each of %d cuts and never promoted", cuts)
		}
		f.ServerChaos[0].Heal("server-1")
		f.ServerChaos[1].Heal("server-0")
		f.ClientChaos.Heal("server-0")
	}

	// Heal. The ex-primary's next shipment is refused with the higher epoch
	// and it demotes — the serving side moves wholesale to the new primary.
	f.ServerChaos[0].Heal("server-1")
	f.ServerChaos[1].Heal("server-0")
	f.ClientChaos.Heal("server-0")
	waitClosed(t, f.Peer(0).Demoted(), 30*time.Second, "fenced ex-primary demotion")
	if got := f.Peer(0).Role(); got != store.RoleStandby {
		t.Fatalf("fenced ex-primary role = %q, want %q", got, store.RoleStandby)
	}
	if got := f.Peer(1).Role(); got != store.RolePrimary {
		t.Fatalf("promoted standby role = %q, want %q", got, store.RolePrimary)
	}

	st, err := f.Wait(ctxTimeout(t, 4*time.Minute), "partition-msm")
	if err != nil {
		t.Fatal(err)
	}
	assertMSMResult(t, st, p)

	// The chaos layer must actually have fired faults, or this proved
	// nothing about the replication link's resilience.
	ms := httptest.NewServer(f.Obs.Handler())
	defer ms.Close()
	body := httpGetBody(t, ms.URL+"/metrics")
	if v := promValue(t, body, "copernicus_chaos_faults_total"); v < 1 {
		t.Errorf("no chaos faults fired (copernicus_chaos_faults_total = %v)", v)
	}
}

// promotesCaughtUp waits for standby p to promote, and reports false if it
// stops counting itself caught up first.
func promotesCaughtUp(t *testing.T, p *replica.Peer) bool {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.Promoted():
			return true
		case <-time.After(5 * time.Millisecond):
		}
		if !p.CaughtUp() {
			select {
			case <-p.Promoted():
				return true
			default:
				return false
			}
		}
	}
	t.Fatal("timed out waiting for standby promotion during partition")
	return false
}

// smallRepexParams is a three-rung sync REMD ladder sized so a run lasts
// long enough to kill the primary mid-ladder.
func smallRepexParams() controller.RepexParams {
	p := controller.DefaultRepexParams()
	p.Replicas = 3
	p.SegmentSteps = 600
	p.Epochs = 4
	p.CheckpointEvery = 150
	p.Config.Shards = 1
	return p
}

// waitRepexProgress gates the crash on the primary's in-process project
// state rather than a wire status poll: the 3-replica MD ladder saturates a
// small host (worse under the race detector), so anycast polls can starve
// past the overlay timeout — or miss the whole run — without the server
// being gone. Peeking keeps the kill inside the ladder deterministically.
func waitRepexProgress(t *testing.T, f *Fabric, si int, name string, minFinished int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		st, ok := f.Server(si).Project(name)
		if !ok {
			t.Fatalf("project %q not on server %d", name, si)
		}
		if st.State != "running" {
			t.Fatalf("project left running state before the crash: %q (%s)", st.State, st.Note)
		}
		if st.Finished >= minFinished {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("project never reached the crash point")
}

// TestFailoverPreservesRepexLadder kills the primary in the middle of a
// sync REMD ladder. The promoted standby must resume the
// exchange ladder — RNG, acceptance statistics, walker positions, boundary
// states — exactly where the primary's journal left it: the final result
// blob must be byte-identical to an uninterrupted run of the same project,
// and no segment may be stranded across the failover.
func TestFailoverPreservesRepexLadder(t *testing.T) {
	p := smallRepexParams()

	// Reference: the same project on an identical (but unharmed) topology.
	// The project seed derives from the name, so the command stream and
	// every Metropolis draw must match the failover run's.
	ref := replicatedFabric(t, func(cfg *FabricConfig) {
		cfg.WorkerCores = p.Replicas
	})
	if err := ref.Submit(ctxTimeout(t, 30*time.Second), "failover-repex", controller.RepexControllerName, &p); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Wait(ctxTimeout(t, 4*time.Minute), "failover-repex")
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()
	if want.State != "finished" {
		t.Fatalf("reference state = %q (%s)", want.State, want.Note)
	}

	f := replicatedFabric(t, func(cfg *FabricConfig) {
		cfg.WorkerCores = p.Replicas
	})
	defer f.Close()
	if err := f.Submit(ctxTimeout(t, 30*time.Second), "failover-repex", controller.RepexControllerName, &p); err != nil {
		t.Fatal(err)
	}
	waitRepexProgress(t, f, 0, "failover-repex", 2)
	waitReplicaCaughtUp(t, f, 0, 10)

	f.CrashServer(0)
	waitClosed(t, f.Peer(1).Promoted(), 30*time.Second, "standby promotion")

	st, err := f.Wait(ctxTimeout(t, 4*time.Minute), "failover-repex")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "finished" {
		t.Fatalf("state = %q (%s)", st.State, st.Note)
	}
	// Nothing stranded: the ladder drained completely.
	if st.Queued != 0 || st.Running != 0 {
		t.Errorf("segments stranded across failover: %d queued, %d running", st.Queued, st.Running)
	}

	var res, refRes controller.RepexResult
	if err := wire.Unmarshal(st.Result, &res); err != nil {
		t.Fatal(err)
	}
	if err := wire.Unmarshal(want.Result, &refRes); err != nil {
		t.Fatal(err)
	}
	if res.SegmentsRun != p.Replicas*p.Epochs {
		t.Errorf("segments = %d, want %d", res.SegmentsRun, p.Replicas*p.Epochs)
	}
	// The acceptance criterion: exchange statistics and boundary physics
	// survive promotion bitwise-intact.
	if !bytes.Equal(st.Result, want.Result) {
		t.Errorf("failover result diverged from uninterrupted run:\nuninterrupted: %+v\nfailover:      %+v",
			refRes, res)
	}

	// The promoted server also serves the live Detail blob: per-pair
	// acceptance statistics matching the final result.
	if len(st.Detail) == 0 {
		t.Fatal("promoted server returned no controller detail")
	}
	var d controller.RepexDetail
	if err := wire.Unmarshal(st.Detail, &d); err != nil {
		t.Fatal(err)
	}
	for i := range d.Attempts {
		if d.Attempts[i] != res.Attempts[i] || d.Accepts[i] != res.Accepts[i] {
			t.Errorf("detail pair %d diverges from result", i)
		}
	}
}

// TestFailoverDuplicateResultAbsorbedOnce is the duplicate-delivery
// satellite: a result the old primary journaled (and replicated) before its
// death is delivered again to the promoted standby — the worker's retry
// path does exactly this when an ack is lost in the failover window. The
// promoted server must absorb it idempotently: "ignored" reply, duplicate
// counter bumped, finished count unchanged.
func TestFailoverDuplicateResultAbsorbedOnce(t *testing.T) {
	// No snapshots: a rotation would compact result records out of the
	// dead primary's WAL.
	f := replicatedFabric(t, func(cfg *FabricConfig) { cfg.SnapshotEvery = 0 })
	defer f.Close()
	stateDir := f.cfg.StateDir

	p := smallMSMParams()
	if err := f.Submit(ctxTimeout(t, 30*time.Second), "dup-msm", controller.MSMControllerName, &p); err != nil {
		t.Fatal(err)
	}
	waitForProgress(t, f, "dup-msm", 6)
	replicatedUpTo := waitReplicaCaughtUp(t, f, 0, 10)

	f.CrashServer(0)
	waitClosed(t, f.Peer(1).Promoted(), 30*time.Second, "standby promotion")
	st, err := f.Wait(ctxTimeout(t, 4*time.Minute), "dup-msm")
	if err != nil {
		t.Fatal(err)
	}
	assertMSMResult(t, st, p)

	// Dig a finished result out of the dead primary's WAL — preferably one
	// that was provably replicated before the crash, so the promoted server
	// already absorbed it during replay. Its Data field is the verbatim
	// wire.CommandResult the worker originally delivered.
	rec, err := store.ReadAll(filepath.Join(stateDir, "server-0"))
	if err != nil {
		t.Fatal(err)
	}
	var dup *store.Record
	for i := range rec.Records {
		r := &rec.Records[i]
		if r.Type != store.RecResult || r.Project != "dup-msm" {
			continue
		}
		if dup == nil || r.Seq <= replicatedUpTo {
			dup = r
		}
		if r.Seq <= replicatedUpTo {
			break
		}
	}
	if dup == nil {
		t.Fatal("no result record in the dead primary's WAL")
	}

	// Deliver it again, as a retrying worker would, straight to the
	// promoted server.
	sender := overlay.NewNode(overlay.NewIdentityFromSeed(99999), overlay.NewTrustStore(), f.Net.Transport())
	defer sender.Close()
	if _, err := sender.ConnectPeer("server-1"); err != nil {
		t.Fatal(err)
	}
	before, err := f.Status(ctxTimeout(t, 10*time.Second), "dup-msm")
	if err != nil {
		t.Fatal(err)
	}
	ms := httptest.NewServer(f.Obs.Handler())
	defer ms.Close()
	dupsBefore := promValue(t, httpGetBody(t, ms.URL+"/metrics"), "copernicus_results_duplicate_total")

	reply, err := sender.RequestTimeout(f.Server(1).Node().ID(), wire.MsgResult, dup.Data, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "ignored" {
		t.Fatalf("duplicate result reply = %q, want \"ignored\"", reply)
	}

	after, err := f.Status(ctxTimeout(t, 10*time.Second), "dup-msm")
	if err != nil {
		t.Fatal(err)
	}
	if after.Finished != before.Finished {
		t.Fatalf("duplicate result changed the finished count: %d → %d", before.Finished, after.Finished)
	}
	dupsAfter := promValue(t, httpGetBody(t, ms.URL+"/metrics"), "copernicus_results_duplicate_total")
	if dupsAfter < dupsBefore+1 {
		t.Errorf("copernicus_results_duplicate_total = %v, want >= %v", dupsAfter, dupsBefore+1)
	}
}
