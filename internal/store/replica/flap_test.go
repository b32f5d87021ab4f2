package replica

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"copernicus/internal/chaos"
	"copernicus/internal/obs"
	"copernicus/internal/overlay"
	"copernicus/internal/store"
	"copernicus/internal/wire"
)

// chaosPair is a primary and a standby whose links run through chaos
// transports, so a test can partition and heal them.
type chaosPair struct {
	peers        [2]*Peer // primary, standby at the start
	chaos        [2]*chaos.Transport
	primaryStore *store.Store
	interval     time.Duration
	leaseTimeout time.Duration
}

func newChaosPair(t *testing.T, primaryHooks, standbyHooks Hooks) *chaosPair {
	t.Helper()
	net := overlay.NewMemNetwork()
	cp := &chaosPair{interval: 10 * time.Millisecond, leaseTimeout: 120 * time.Millisecond}
	var nodes [2]*overlay.Node
	for i, addr := range []string{"primary", "standby"} {
		cp.chaos[i] = chaos.New(net.Transport(), chaos.Config{}, nil)
		nodes[i] = overlay.NewNode(overlay.NewIdentityFromSeed(uint64(i+1)), overlay.NewTrustStore(), cp.chaos[i])
		if err := nodes[i].Listen(addr); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nodes[1].ConnectPeer("primary"); err != nil {
		t.Fatal(err)
	}
	primaryDir := t.TempDir()
	var err error
	if cp.primaryStore, err = store.Open(store.Options{Dir: primaryDir, SyncHook: noSync, Obs: obs.New()}); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Interval: cp.interval, LeaseTimeout: cp.leaseTimeout, StoreOptions: store.Options{SyncHook: noSync}}
	pcfg, scfg := cfg, cfg
	pcfg.Dir, pcfg.Role, pcfg.Hooks, pcfg.Obs = primaryDir, store.RolePrimary, primaryHooks, obs.New()
	scfg.Dir, scfg.Role, scfg.Hooks, scfg.Obs = t.TempDir(), store.RoleStandby, standbyHooks, obs.New()
	scfg.PeerID, scfg.PeerAddr, scfg.SelfAddr = nodes[0].ID(), "primary", "standby"
	if cp.peers[0], err = NewPeer(nodes[0], cp.primaryStore, pcfg, nil); err != nil {
		t.Fatal(err)
	}
	if cp.peers[1], err = NewPeer(nodes[1], nil, scfg, nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for i := range cp.peers {
			cp.peers[i].Close()
			nodes[i].Close()
		}
		cp.primaryStore.Close()
	})
	return cp
}

// partition cuts the link both ways: every connection closes and neither
// side can dial the other until heal.
func (cp *chaosPair) partition() {
	cp.chaos[0].Partition("standby")
	cp.chaos[1].Partition("primary")
}

func (cp *chaosPair) heal() {
	cp.chaos[0].Heal("standby")
	cp.chaos[1].Heal("primary")
}

// TestFailedPromotionKeepsPrimaryServing: a standby whose Promote hook fails
// gives its epoch back, so when the partition heals the primary that kept
// serving is neither fenced nor demoted, and replication resumes.
func TestFailedPromotionKeepsPrimaryServing(t *testing.T) {
	var attempts atomic.Int32
	demoted := make(chan uint64, 1)
	cp := newChaosPair(t,
		Hooks{Demote: func(epoch uint64, _ string) error { demoted <- epoch; return nil }},
		Hooks{Promote: func(*store.Store, uint64) ([]string, error) {
			attempts.Add(1)
			return nil, errors.New("serving layer refused")
		}})
	primary, standby := cp.peers[0], cp.peers[1]
	appendRecords(t, cp.primaryStore, 10)
	waitFor(t, 5*time.Second, "standby caught up", func() bool { return standby.AckedSeq() == 10 })

	cp.partition()
	waitFor(t, 10*cp.leaseTimeout, "a promotion attempt", func() bool { return attempts.Load() > 0 })
	cp.heal()
	appendRecords(t, cp.primaryStore, 5)
	waitFor(t, 5*time.Second, "standby to resume applying", func() bool { return standby.AckedSeq() == 15 })

	select {
	case e := <-demoted:
		t.Fatalf("the serving primary was demoted to epoch %d by a failed promotion", e)
	case <-primary.Demoted():
		t.Fatal("the serving primary's Demoted channel closed")
	case <-standby.Promoted():
		t.Fatal("a failed promotion closed Promoted")
	default:
	}
	if role, epoch := primary.Role(), primary.Epoch(); role != store.RolePrimary || epoch != 1 {
		t.Errorf("primary is %s at epoch %d, want primary at epoch 1", role, epoch)
	}
	if role, epoch := standby.Role(), standby.Epoch(); role != store.RoleStandby || epoch != 1 {
		t.Errorf("standby is %s at epoch %d, want standby at epoch 1", role, epoch)
	}
	if meta, err := store.LoadReplicaMeta(standby.cfg.Dir); err != nil || meta.Role != store.RoleStandby || meta.Epoch != 1 {
		t.Errorf("standby's durable metadata = %+v (err %v), want standby at epoch 1", meta, err)
	}
}

// TestLinkFlapping partitions and heals the link every few Intervals while
// records are written to whichever node is primary. Every record the
// standby acknowledged must be in the final primary's journal, and the pair
// must settle on one primary with a caught-up standby. Flaps are shorter
// than the lease, so usually nobody promotes; when a slow scheduler lets a
// lease lapse, the promotion must keep the same promises.
func TestLinkFlapping(t *testing.T) {
	var (
		mu      sync.Mutex
		serving [2]*store.Store // what each node serves; nil while a standby
		prim    int             // the node writes go to
	)
	hooks := func(i int) Hooks {
		return Hooks{
			Promote: func(st *store.Store, _ uint64) ([]string, error) {
				mu.Lock()
				defer mu.Unlock()
				serving[i], prim = st, i
				return nil, nil
			},
			Demote: func(uint64, string) error {
				mu.Lock()
				defer mu.Unlock()
				err := serving[i].Close()
				serving[i] = nil
				return err
			},
		}
	}
	cp := newChaosPair(t, hooks(0), hooks(1))
	mu.Lock()
	serving[0] = cp.primaryStore
	mu.Unlock()
	t.Cleanup(func() {
		cp.peers[0].Close()
		cp.peers[1].Close()
		if st := serving[1]; st != nil {
			st.Close() // a promoted standby's store is the serving side's to close
		}
	})

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			mu.Lock()
			if st := serving[prim]; st != nil {
				// A failed write was never acknowledged, so it is no loss.
				_ = st.Append(store.Record{Type: store.RecCommandQueued, Project: "proj", Data: []byte(fmt.Sprint(n))})
			}
			mu.Unlock()
		}
	}()

	// acked collects the records the primary has seen the standby apply.
	acked := map[string]bool{}
	sample := func() {
		mu.Lock()
		defer mu.Unlock()
		p, st := cp.peers[prim], serving[prim]
		upTo := p.AckedSeq()
		if st == nil || p.Role() != store.RolePrimary {
			return
		}
		recs, _, err := st.ReadSince(0, 0)
		if err != nil {
			return
		}
		for _, r := range recs {
			if r.Seq <= upTo {
				acked[string(r.Data)] = true
			}
		}
	}
	for range 8 {
		cp.partition()
		time.Sleep(3 * cp.interval)
		cp.heal()
		time.Sleep(3 * cp.interval)
		sample()
	}
	close(stop)
	writer.Wait()

	var final *store.Store
	waitFor(t, 10*time.Second, "one primary and a caught-up standby", func() bool {
		mu.Lock()
		defer mu.Unlock()
		p, s := cp.peers[prim], cp.peers[1-prim]
		final = serving[prim]
		return p.Role() == store.RolePrimary && s.Role() == store.RoleStandby &&
			final != nil && s.AckedSeq() == final.LastSeq()
	})
	recs, _, err := final.ReadSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, r := range recs {
		have[string(r.Data)] = true
	}
	for id := range acked {
		if !have[id] {
			t.Errorf("record %s was acknowledged by the standby but is not in the final primary's journal", id)
		}
	}
	if len(acked) == 0 {
		t.Error("the standby acknowledged no record while the link flapped")
	}
	t.Logf("%d records acknowledged, %d in the final journal, primary: node %d", len(acked), len(recs), prim)
}

// TestRejoinKeepsCatchUp: a caught-up standby whose link goes quiet rejoins
// the same primary in the same epoch and stays eligible, so a lapse right
// after promotes it; a join that brings a new epoch or a new primary starts
// the catch-up over. A standby that lost eligibility on every quiet-link
// rejoin would, when its primary died in that window, never take over:
// after the declined lapse nothing re-arms the lease.
func TestRejoinKeepsCatchUp(t *testing.T) {
	caughtUp := func() state {
		s, _ := step(boot(store.RoleStandby, 1, "p", "primary", 10, time.Second), evTick{})
		s, _ = step(s, evJoined{id: "p", ack: wire.ReplAck{Epoch: 1}})
		s, _ = step(s, evApplied{applied: 10, tail: 10})
		for k := 0; k < quietTicks; k++ {
			s, _ = step(s, evTick{})
		}
		if !s.caughtUp || !s.joining {
			t.Fatalf("setup: caughtUp %v joining %v, want a caught-up standby rejoining", s.caughtUp, s.joining)
		}
		return s
	}
	for _, c := range []struct {
		name    string
		id      string
		epoch   uint64
		promote bool
	}{
		{"same primary and epoch", "p", 1, true},
		{"new epoch", "p", 2, false},
		{"new primary", "q", 1, false},
	} {
		s, _ := step(caughtUp(), evJoined{id: c.id, ack: wire.ReplAck{Epoch: c.epoch}})
		s, _ = step(s, evLapse{})
		if got := s.role == store.RolePrimary; got != c.promote {
			t.Errorf("%s: lapse after the rejoin promoted = %v, want %v", c.name, got, c.promote)
		}
	}
}
