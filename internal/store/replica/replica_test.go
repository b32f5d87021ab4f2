package replica

import (
	"path/filepath"
	"testing"
	"time"

	"copernicus/internal/obs"
	"copernicus/internal/overlay"
	"copernicus/internal/store"
)

// testPair wires a primary and a standby over an in-memory network.
type testPair struct {
	net            *overlay.MemNetwork
	primaryNode    *overlay.Node
	standbyNode    *overlay.Node
	primaryStore   *store.Store
	primary        *Peer
	standby        *Peer
	primaryDir     string
	standbyDir     string
	interval       time.Duration
	leaseTimeout   time.Duration
	promoteCalls   chan uint64
	promotedStores chan *store.Store
}

// noSync is a store.Options.SyncHook that skips the fsync: tests on
// throwaway dirs.
func noSync(func() error) error { return nil }

func newTestPair(t *testing.T, hooks bool) *testPair {
	t.Helper()
	tp := &testPair{
		net:            overlay.NewMemNetwork(),
		primaryDir:     t.TempDir(),
		standbyDir:     t.TempDir(),
		interval:       10 * time.Millisecond,
		leaseTimeout:   120 * time.Millisecond,
		promoteCalls:   make(chan uint64, 1),
		promotedStores: make(chan *store.Store, 1),
	}
	tp.primaryNode = overlay.NewNode(overlay.NewIdentityFromSeed(1), overlay.NewTrustStore(), tp.net.Transport())
	tp.standbyNode = overlay.NewNode(overlay.NewIdentityFromSeed(2), overlay.NewTrustStore(), tp.net.Transport())
	if err := tp.primaryNode.Listen("primary"); err != nil {
		t.Fatal(err)
	}
	if err := tp.standbyNode.Listen("standby"); err != nil {
		t.Fatal(err)
	}
	if _, err := tp.standbyNode.ConnectPeer("primary"); err != nil {
		t.Fatal(err)
	}

	var err error
	tp.primaryStore, err = store.Open(store.Options{Dir: tp.primaryDir, SyncHook: noSync, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}

	tp.primary, err = NewPeer(tp.primaryNode, tp.primaryStore, Config{
		Dir:          tp.primaryDir,
		Role:         store.RolePrimary,
		Interval:     tp.interval,
		LeaseTimeout: tp.leaseTimeout,
		StoreOptions: store.Options{SyncHook: noSync},
		Obs:          obs.New(),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	scfg := Config{
		Dir:          tp.standbyDir,
		Role:         store.RoleStandby,
		PeerID:       tp.primaryNode.ID(),
		PeerAddr:     "primary",
		SelfAddr:     "standby",
		Interval:     tp.interval,
		LeaseTimeout: tp.leaseTimeout,
		StoreOptions: store.Options{SyncHook: noSync},
		Obs:          obs.New(),
	}
	if hooks {
		scfg.Hooks.Promote = func(st *store.Store, epoch uint64) ([]string, error) {
			tp.promoteCalls <- epoch
			tp.promotedStores <- st
			return []string{"proj"}, nil
		}
	}
	tp.standby, err = NewPeer(tp.standbyNode, nil, scfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		tp.primary.Close()
		tp.standby.Close()
		tp.primaryNode.Close()
		tp.standbyNode.Close()
		tp.primaryStore.Close()
	})
	return tp
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func appendRecords(t *testing.T, s *store.Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Append(store.Record{Type: store.RecCommandQueued,
			Project: "proj", Command: "cmd", Data: []byte("payload")}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRecordsReachStandby(t *testing.T) {
	tp := newTestPair(t, false)
	appendRecords(t, tp.primaryStore, 20)
	waitFor(t, 5*time.Second, "standby to apply 20 records", func() bool {
		return tp.standby.AckedSeq() == 20
	})
	// The replica directory recovers to the same record tail.
	rec, err := store.ReadAll(tp.standbyDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 20 || rec.Records[19].Seq != 20 {
		t.Fatalf("replica holds %d records", len(rec.Records))
	}
	if rec.Gap != "" {
		t.Fatalf("replica gap: %s", rec.Gap)
	}
}

func TestSnapshotBaselineCompactsStandby(t *testing.T) {
	tp := newTestPair(t, false)
	appendRecords(t, tp.primaryStore, 30)
	waitFor(t, 5*time.Second, "standby caught up", func() bool {
		return tp.standby.AckedSeq() == 30
	})
	// Primary snapshots; the baseline must reach the standby and compact
	// its replicated WAL.
	idx, last, err := tp.primaryStore.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.primaryStore.WriteSnapshot(idx, last, &store.Snapshot{
		Projects: []store.ProjectSnap{{Name: "proj"}}}); err != nil {
		t.Fatal(err)
	}
	appendRecords(t, tp.primaryStore, 5)
	waitFor(t, 5*time.Second, "standby to hold the baseline", func() bool {
		insp, err := store.Inspect(tp.standbyDir)
		return err == nil && insp.Baseline > 0 && insp.LastSeq == 35
	})
}

func TestLateJoinResyncsThroughSnapshot(t *testing.T) {
	// Records compacted before the standby ever joined must arrive via a
	// snapshot baseline, not a gap.
	net := overlay.NewMemNetwork()
	pNode := overlay.NewNode(overlay.NewIdentityFromSeed(1), overlay.NewTrustStore(), net.Transport())
	if err := pNode.Listen("primary"); err != nil {
		t.Fatal(err)
	}
	pDir := t.TempDir()
	ps, err := store.Open(store.Options{Dir: pDir, SyncHook: noSync, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	appendRecords(t, ps, 10)
	idx, last, err := ps.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.WriteSnapshot(idx, last, &store.Snapshot{
		Projects: []store.ProjectSnap{{Name: "proj"}}}); err != nil {
		t.Fatal(err)
	}
	appendRecords(t, ps, 4)

	pp, err := NewPeer(pNode, ps, Config{
		Dir: pDir, Role: store.RolePrimary,
		Interval: 10 * time.Millisecond, LeaseTimeout: 120 * time.Millisecond,
		Obs: obs.New(),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pp.Close()

	sNode := overlay.NewNode(overlay.NewIdentityFromSeed(2), overlay.NewTrustStore(), net.Transport())
	if err := sNode.Listen("standby"); err != nil {
		t.Fatal(err)
	}
	if _, err := sNode.ConnectPeer("primary"); err != nil {
		t.Fatal(err)
	}
	sDir := t.TempDir()
	sp, err := NewPeer(sNode, nil, Config{
		Dir: sDir, Role: store.RoleStandby,
		PeerID: pNode.ID(), PeerAddr: "primary", SelfAddr: "standby",
		Interval: 10 * time.Millisecond, LeaseTimeout: 120 * time.Millisecond,
		StoreOptions: store.Options{SyncHook: noSync},
		Obs:          obs.New(),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	defer sNode.Close()
	defer pNode.Close()

	waitFor(t, 5*time.Second, "late joiner to catch up", func() bool {
		return sp.AckedSeq() == 14
	})
	rec, err := store.ReadAll(sDir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot == nil || rec.Snapshot.LastSeq != 10 {
		t.Fatalf("standby baseline = %+v", rec.Snapshot)
	}
	if rec.Gap != "" {
		t.Fatalf("standby gap: %s", rec.Gap)
	}
}

func TestLeaseLapsePromotesStandby(t *testing.T) {
	tp := newTestPair(t, true)
	appendRecords(t, tp.primaryStore, 10)
	waitFor(t, 5*time.Second, "standby caught up", func() bool {
		return tp.standby.AckedSeq() == 10
	})

	// Hard-kill the primary: node and store go away without ceremony.
	killed := time.Now()
	tp.primaryNode.Close()
	tp.primary.Close()

	select {
	case <-tp.standby.Promoted():
	case <-time.After(10 * tp.leaseTimeout):
		t.Fatal("standby did not promote after lease lapse")
	}
	if took := time.Since(killed); took > 5*tp.leaseTimeout {
		t.Errorf("promotion took %v, want within a few lease timeouts (%v)", took, tp.leaseTimeout)
	}
	epoch := <-tp.promoteCalls
	if epoch != 2 {
		t.Errorf("promotion epoch = %d, want 2", epoch)
	}
	st := <-tp.promotedStores
	defer st.Close()
	if st.Recovered() == nil || len(st.Recovered().Records) != 10 {
		t.Errorf("promoted store recovered %d records, want 10",
			len(st.Recovered().Records))
	}
	if tp.standby.Role() != store.RolePrimary {
		t.Errorf("standby role = %s after promotion", tp.standby.Role())
	}

	// The promotion is durable: the meta file says primary, epoch 2.
	meta, err := store.LoadReplicaMeta(tp.standbyDir)
	if err != nil || meta == nil {
		t.Fatalf("replica meta: %+v err=%v", meta, err)
	}
	if meta.Role != store.RolePrimary || meta.Epoch != 2 {
		t.Errorf("persisted meta = %+v", meta)
	}
}

func TestStalePrimaryIsFencedAndDemotes(t *testing.T) {
	tp := newTestPair(t, true)
	appendRecords(t, tp.primaryStore, 10)
	waitFor(t, 5*time.Second, "standby caught up", func() bool {
		return tp.standby.AckedSeq() == 10
	})

	// Partition the primary by killing only its node: the Peer (and its
	// store) stay alive, exactly like a server that lost its network.
	tp.primaryNode.Close()
	select {
	case <-tp.standby.Promoted():
	case <-time.After(10 * tp.leaseTimeout):
		t.Fatal("standby did not promote")
	}
	<-tp.promoteCalls
	st := <-tp.promotedStores
	defer st.Close()

	// The ex-primary comes back: new node, same identity, same state dir.
	// Its meta says "primary, epoch 1, standby = <peer>", so it resumes
	// shipping, is refused with epoch 2, and demotes. A restart means the
	// old process is gone: its Peer must stop first, or its ticks keep
	// redialling the standby under the same identity from a closed node,
	// and each such handshake evicts the reborn node's link.
	tp.primary.Close()
	reborn := overlay.NewNode(overlay.NewIdentityFromSeed(1), overlay.NewTrustStore(), tp.net.Transport())
	if err := reborn.Listen("primary"); err != nil {
		t.Fatal(err)
	}
	if _, err := reborn.ConnectPeer("standby"); err != nil {
		t.Fatal(err)
	}
	demoteCh := make(chan uint64, 1)
	meta, err := store.LoadReplicaMeta(tp.primaryDir)
	if err != nil || meta == nil {
		t.Fatalf("ex-primary's replica metadata: %+v, %v", meta, err)
	}
	p2, err := NewPeer(reborn, tp.primaryStore, Config{
		Dir:          tp.primaryDir,
		Role:         store.RolePrimary,
		Interval:     tp.interval,
		LeaseTimeout: tp.leaseTimeout,
		StoreOptions: store.Options{SyncHook: noSync},
		Hooks: Hooks{Demote: func(epoch uint64, newPrimary string) error {
			demoteCh <- epoch
			return tp.primaryStore.Close()
		}},
		Obs: obs.New(),
	}, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	defer reborn.Close()

	select {
	case e := <-demoteCh:
		if e != 2 {
			t.Errorf("demotion epoch = %d, want 2", e)
		}
	case <-time.After(10 * tp.leaseTimeout):
		t.Fatal("fenced ex-primary did not demote")
	}
	select {
	case <-p2.Demoted():
	case <-time.After(10 * tp.leaseTimeout):
		t.Fatal("Demoted channel did not close")
	}
	waitFor(t, 5*time.Second, "ex-primary to finish demotion", func() bool {
		return p2.Role() == store.RoleStandby
	})

	// The divergent directory was archived and a fresh replica dir exists.
	matches, err := filepath.Glob(tp.primaryDir + ".fenced-e*")
	if err != nil || len(matches) == 0 {
		t.Errorf("no fenced archive of %s (err=%v)", tp.primaryDir, err)
	}

	// Roles swapped: the promoted node ships to its new standby, which
	// catches up to the full history.
	appendRecords(t, st, 3)
	waitFor(t, 10*time.Second, "demoted node to re-sync as standby", func() bool {
		return p2.AckedSeq() == st.LastSeq()
	})

	// No split-brain: exactly one primary.
	if tp.standby.Role() != store.RolePrimary || p2.Role() != store.RoleStandby {
		t.Errorf("roles: standby=%s exPrimary=%s", tp.standby.Role(), p2.Role())
	}
}
