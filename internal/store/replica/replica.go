// Package replica streams a primary server's write-ahead log to a standby
// over the overlay and drives the heartbeat-lease failover protocol between
// them. It is the first half of the horizontal scale-out path: a project
// survives the loss of its server because a warm, replayable copy of every
// journaled record already lives on another node.
//
// The protocol has three message types (see internal/wire):
//
//   - ReplJoin: the standby registers with its primary, reporting the
//     highest WAL sequence it has applied; the primary resumes shipping
//     exactly there.
//   - ReplBatch → ReplAck: the primary ships contiguous record batches (and
//     snapshot baselines, so the standby's copy stays compact) every
//     Interval. An empty batch is a pure heartbeat. Every non-refused ack
//     renews the lease in both directions.
//   - Promoted: a standby whose lease lapsed announces, after replaying its
//     tail and re-seeding the queue through the normal recovery path, that
//     it now owns the primary's projects.
//
// Fencing is by epoch: every promotion increments a durable epoch counter,
// and a batch or ack carrying a higher epoch than the receiver's proves the
// receiver has been superseded. A fenced ex-primary demotes — its owner
// tears down the serving side, the divergent state directory is archived,
// and the node rejoins the new primary as a fresh standby — instead of
// split-braining. The divergent tail it may have accumulated while fenced
// is the same loss class as a crash before replication shipped: records
// acknowledged by exactly one node. A standby promotes only if, since it
// last (re)joined, it applied everything its primary had journaled as of
// some batch, so a lagging standby never fences the node with the history.
//
// Every decision — role, epoch, lease, fencing — is made by step, a pure
// function of a peer's state and one event that returns the actions to
// run. Peer is the shell around it: one goroutine owns the state and the
// store, feeds step and runs the actions; overlay handlers hand it their
// message and wait for its reply.
package replica

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"copernicus/internal/obs"
	"copernicus/internal/overlay"
	"copernicus/internal/store"
	"copernicus/internal/wire"
)

// Lease-state gauge values (copernicus_replica_lease_state).
const (
	// LeaseUnknown: no contact with the peer yet.
	LeaseUnknown = 0.0
	// LeaseHeld: the lease is current (acks/batches inside the timeout).
	LeaseHeld = 1.0
	// LeaseLapsed: the timeout passed with no contact — a standby in this
	// state promotes; a primary keeps serving but expects to be fenced.
	LeaseLapsed = -1.0
	// LeaseFenced: this node discovered a higher epoch and is demoting.
	LeaseFenced = -2.0
)

// Hooks connect the protocol to the serving layer without this package
// importing it. Both are called from the Peer's own goroutine, never from
// an overlay handler.
type Hooks struct {
	// Promote is called after a lapsed lease, once the replica store has
	// been re-opened through the normal recovery path (torn-tail handling,
	// snapshot + tail replay image ready). The hook builds the serving side
	// on top — replaying the image re-seeds the queue and requeues orphans —
	// and returns the names of the projects now owned, for the ownership
	// announcement. Ownership of st transfers to the hook's caller side:
	// the Peer keeps using it for shipping but never closes it. A hook that
	// fails must leave st as it found it: the Peer stays a standby on it.
	Promote func(st *store.Store, epoch uint64) (projects []string, err error)
	// Demote is called when this node, acting as primary, discovers a
	// higher epoch. It must tear down the serving side: close the server
	// and close the store it was given. After it returns, the Peer archives
	// the state directory and rejoins the new primary as standby.
	Demote func(epoch uint64, newPrimaryID string) error
}

// Config parameterises a Peer. Dir is required; it is the primary's own
// state directory or the standby's replica directory, depending on Role.
type Config struct {
	// Dir is the state directory this peer replicates from (primary) or
	// into (standby). The replica-meta.json inside it, handed to NewPeer,
	// overrides Role, PeerID and PeerAddr, so a restarted process resumes
	// its last role.
	Dir string
	// Role is store.RolePrimary or store.RoleStandby.
	Role string
	// PeerID is the overlay node ID of the counterpart (a standby without
	// one learns it by dialling PeerAddr; a primary from the ReplJoin).
	PeerID string
	// PeerAddr is the counterpart's transport address, which a standby dials
	// until first contact and re-dials when the replication link goes quiet.
	PeerAddr string
	// SelfAddr is this node's listen address, carried in ReplJoin so the
	// primary can find us again after a restart.
	SelfAddr string
	// Interval is the ship/heartbeat cadence. Default 1s.
	Interval time.Duration
	// LeaseTimeout is how long either side waits without contact before
	// concluding the other is gone. Default 5×Interval. The primary's value
	// is authoritative: it is piggybacked on every batch and adopted by the
	// standby.
	LeaseTimeout time.Duration
	// StoreOptions configure replica-store opens (standby role and
	// promotion). Dir is overridden with Config.Dir.
	StoreOptions store.Options
	Hooks        Hooks
	// Obs receives the copernicus_replica_* metrics; nil selects a silent
	// bundle.
	Obs *obs.Obs
}

func (c *Config) fill() {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = 5 * c.Interval
	}
	if c.Obs == nil {
		c.Obs = obs.New()
	}
	c.StoreOptions.Dir = c.Dir
	c.StoreOptions.Obs = cmp.Or(c.StoreOptions.Obs, c.Obs)
}

// batchMax caps records per shipment.
const batchMax = 256

type replicaMetrics struct {
	lag        *obs.Gauge
	shipSec    *obs.Histogram
	leaseState *obs.Gauge
	shippedRec *obs.Counter
	appliedRec *obs.Counter
	batchesTx  *obs.Counter
	batchesRx  *obs.Counter
	resyncs    *obs.Counter
	snapsTx    *obs.Counter
	promotions *obs.Counter
	fencings   *obs.Counter
}

func newReplicaMetrics(o *obs.Obs, node string) replicaMetrics {
	l := obs.L("node", node)
	m := o.Metrics
	return replicaMetrics{
		lag: m.Gauge("copernicus_replica_lag_records",
			"Records the standby has not yet acknowledged (primary view).", l),
		shipSec: m.Histogram("copernicus_replica_ship_seconds",
			"Round-trip latency of replication batches.", nil, l),
		leaseState: m.Gauge("copernicus_replica_lease_state",
			"Lease health: 0 no contact yet, 1 held, -1 lapsed, -2 fenced.", l),
		shippedRec: m.Counter("copernicus_replica_shipped_records_total",
			"WAL records shipped to the standby.", l),
		appliedRec: m.Counter("copernicus_replica_applied_records_total",
			"Replicated WAL records applied locally.", l),
		batchesTx: m.Counter("copernicus_replica_batches_total",
			"Replication batches exchanged.", obs.L("node", node, "dir", "tx")),
		batchesRx: m.Counter("copernicus_replica_batches_total",
			"Replication batches exchanged.", obs.L("node", node, "dir", "rx")),
		resyncs: m.Counter("copernicus_replica_resyncs_total",
			"Times the shipper restarted from the standby's frontier.", l),
		snapsTx: m.Counter("copernicus_replica_snapshots_shipped_total",
			"Snapshot baselines shipped to the standby.", l),
		promotions: m.Counter("copernicus_replica_promotions_total",
			"Standby self-promotions after a lapsed lease.", l),
		fencings: m.Counter("copernicus_replica_fencings_total",
			"Times this node was fenced by a higher epoch and demoted.", l),
	}
}

// Peer is one node's half of a replication pair. It is created in either
// role and switches roles over its lifetime: a standby promotes when its
// lease on the primary lapses and it has caught up; a primary demotes when
// it is fenced by a higher epoch. Its network round trips run on goroutines
// of their own that touch no state and report back through run's inbox.
type Peer struct {
	node *overlay.Node
	cfg  Config
	log  *obs.Logger
	met  replicaMetrics

	inbox chan func()           // work for run: feeding a message or a result
	view  atomic.Pointer[state] // a copy of s, for Role, Epoch and AckedSeq

	// Owned by run.
	s        state
	st       *store.Store // a standby's own replica store, a primary's serving store
	deadline time.Time    // the lease timer; zero when stopped

	promoted  chan struct{}
	demoted   chan struct{}
	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// Resume applies a node's durable replica metadata over its configuration:
// the metadata's Role, PeerID and PeerAddr win where set, so a restarted
// ex-primary resumes with its old standby and can discover it was fenced,
// and a demoted node comes back as standby even if its flags still say
// primary. meta is nil for a directory without metadata.
func Resume(cfg Config, meta *store.ReplicaMeta) Config {
	if meta != nil {
		cfg.Role = cmp.Or(meta.Role, cfg.Role)
		cfg.PeerID = cmp.Or(meta.PeerID, cfg.PeerID)
		cfg.PeerAddr = cmp.Or(meta.PeerAddr, cfg.PeerAddr)
	}
	return cfg
}

// NewPeer builds a Peer on node. meta is what cfg.Dir's replica-meta.json
// holds (store.LoadReplicaMeta; nil for none): the Peer resumes at its epoch
// and applies it over cfg (Resume). For the primary role, st is the serving
// store (owned by the caller); for the standby role st must be nil — the
// Peer opens its own replica store inside cfg.Dir. The Peer registers the
// replication handlers on node and starts its protocol loop immediately.
func NewPeer(node *overlay.Node, st *store.Store, cfg Config, meta *store.ReplicaMeta) (*Peer, error) {
	cfg = Resume(cfg, meta)
	cfg.fill()
	if cfg.Dir == "" {
		return nil, errors.New("replica: Config.Dir is required")
	}
	p := &Peer{
		node:     node,
		cfg:      cfg,
		log:      cfg.Obs.Log.Named("replica").With("node", node.ID()),
		met:      newReplicaMetrics(cfg.Obs, node.ID()),
		inbox:    make(chan func()),
		promoted: make(chan struct{}),
		demoted:  make(chan struct{}),
		stop:     make(chan struct{}),
	}
	epoch := uint64(1)
	if meta != nil {
		epoch = meta.Epoch
	}
	switch cfg.Role {
	case store.RolePrimary:
		if st == nil {
			return nil, errors.New("replica: primary role requires the serving store")
		}
		p.st = st
	case store.RoleStandby:
		if st != nil {
			return nil, errors.New("replica: standby role opens its own store; pass nil")
		}
		if cfg.PeerID == "" && cfg.PeerAddr == "" {
			return nil, errors.New("replica: a standby needs its primary's PeerID or PeerAddr")
		}
		var err error
		if p.st, err = store.Open(p.cfg.StoreOptions); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("replica: unknown role %q", cfg.Role)
	}
	p.s = boot(cfg.Role, epoch, cfg.PeerID, cfg.PeerAddr, p.st.LastSeq(), cfg.LeaseTimeout)
	p.publish()

	node.Handle(wire.MsgReplicate, handler(p, func(b *wire.ReplBatch) event {
		p.met.batchesRx.Inc()
		return evBatch{b}
	}))
	node.Handle(wire.MsgReplJoin, handler(p, func(j *wire.ReplJoin) event { return evJoin{*j} }))
	node.Handle(wire.MsgPromoted, handler(p, func(a *wire.Promoted) event { return evAnnounce{*a} }))

	p.wg.Add(1)
	go p.run()
	return p, nil
}

// Role returns the current role (store.RolePrimary or store.RoleStandby).
func (p *Peer) Role() string { return p.view.Load().role }

// Epoch returns the current fencing epoch.
func (p *Peer) Epoch() uint64 { return p.view.Load().epoch }

// AckedSeq returns the peer's last acknowledged applied sequence (primary
// view); on a standby it is the local applied frontier.
func (p *Peer) AckedSeq() uint64 {
	s := p.view.Load()
	if s.role == store.RoleStandby {
		return s.applied
	}
	return s.acked
}

// CaughtUp reports whether this standby has applied a batch's whole tail
// since it began following its primary in the current epoch: until it has,
// a lapsed lease does not promote it.
func (p *Peer) CaughtUp() bool { return p.view.Load().caughtUp }

// Promoted is closed when this peer promotes itself to primary.
func (p *Peer) Promoted() <-chan struct{} { return p.promoted }

// Demoted is closed when this peer is fenced and demotes to standby.
func (p *Peer) Demoted() <-chan struct{} { return p.demoted }

// Close stops the protocol loop and closes the replica store if this peer
// owns one. It does not touch a serving store handed in by the owner.
func (p *Peer) Close() error {
	var err error
	p.closeOnce.Do(func() {
		close(p.stop)
		p.wg.Wait()
		if p.s.role == store.RoleStandby {
			err = p.st.Close()
		}
	})
	return err
}

// --- the run loop ---

func (p *Peer) run() {
	defer p.wg.Done()
	ticker := time.NewTicker(p.cfg.Interval)
	defer ticker.Stop()
	p.feed(evTick{}, nil) // introduce ourselves now rather than a tick from now
	for {
		select {
		case <-p.stop:
			return
		case f := <-p.inbox:
			f()
		case now := <-ticker.C:
			if !p.deadline.IsZero() && now.After(p.deadline) {
				p.deadline = time.Time{}
				p.feed(evLapse{}, nil)
			}
			p.feed(evTick{}, nil)
		}
	}
}

// feed steps the state through ev and runs the actions, stepping again on
// each event an action reports back, until nothing is left. reply, for a
// message, always gets the ack step answered with, nil if it answered none.
func (p *Peer) feed(ev event, reply chan *wire.ReplAck) {
	for queue := []event{ev}; len(queue) > 0; queue = queue[1:] {
		var acts []action
		p.s, acts = step(p.s, queue[0])
		p.publish()
		for _, a := range acts {
			if r, ok := a.(actReply); ok && reply != nil {
				reply <- &r.ack
				reply = nil
			} else if next := p.do(a); next != nil {
				queue = append(queue, next)
			}
		}
	}
	if reply != nil {
		reply <- nil
	}
}

func (p *Peer) publish() {
	s := p.s
	p.view.Store(&s)
	p.met.leaseState.Set(s.lease)
}

// do runs one action and returns the event it reports, if it reports one
// now; a network round trip reports later, through the inbox.
func (p *Peer) do(a action) event {
	switch a := a.(type) {
	case actApply:
		return p.apply(a.b)
	case actShip:
		st := p.st
		p.async(func() event { return p.ship(a, st) })
	case actJoin:
		a.msg.StandbyID, a.msg.Addr = p.node.ID(), p.cfg.SelfAddr
		p.async(func() event {
			var ev evJoined
			if ev.id, ev.err = p.dial(a.addr, a.to); ev.err == nil {
				ev.err = p.request(ev.id, wire.MsgReplJoin, a.msg, &ev.ack)
			}
			if ev.err != nil {
				p.log.Debug("join attempt failed", "primary", ev.id, "addr", a.addr, "err", ev.err)
			}
			return ev
		})
	case actPersist:
		if err := store.SaveReplicaMeta(p.cfg.Dir, &a.meta); err != nil {
			p.log.Error("persisting replica metadata", "err", err)
		}
	case actArm:
		p.deadline = time.Time{}
		if a.d > 0 {
			p.deadline = time.Now().Add(a.d)
		}
	case actPromote:
		return p.promote(a.epoch)
	case actDemote:
		p.demote(a)
	case actResync:
		p.met.resyncs.Inc()
		p.log.Info("standby refused batch; resyncing", "reason", a.ack.Reason, "frontier", a.ack.AppliedSeq)
	case actLog:
		p.log.Log(a.level, a.msg, a.kv...)
	}
	return nil
}

// async runs f on its own goroutine and hands the event it returns to the
// run loop. f must touch no Peer state.
func (p *Peer) async(f func() event) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		if ev := f(); ev != nil {
			select {
			case p.inbox <- func() { p.feed(ev, nil) }:
			case <-p.stop:
			}
		}
	}()
}

// dial links this node to addr unless a link to id is up, and returns the
// ID the handshake named (id when no dial was needed).
func (p *Peer) dial(addr, id string) (string, error) {
	if addr == "" || (id != "" && slices.Contains(p.node.Peers(), id)) {
		return id, nil
	}
	return p.node.ConnectPeer(addr)
}

// request is one replication round trip to the counterpart.
func (p *Peer) request(to string, t wire.MsgType, msg any, ack *wire.ReplAck) error {
	raw, err := p.node.RequestTimeout(to, t, msg, p.requestTimeout())
	if err != nil {
		return err
	}
	return wire.Unmarshal(raw, ack)
}

// requestTimeout bounds one replication round trip: long enough for a fat
// batch, short enough that a dead link cannot eat the whole lease.
func (p *Peer) requestTimeout() time.Duration {
	return max(p.cfg.LeaseTimeout/2, p.cfg.Interval)
}

// --- primary side ---

// ship reads the batch a.from calls for (possibly a pure heartbeat) from
// the serving store and sends it to the standby, off the loop. When the
// round trip fails the link itself may be gone: the standby dialled us, and
// if that connection died in a partition nobody else re-dials. Do it from
// this side, or a promoted standby and its fenced ex-primary stay split
// forever.
func (p *Peer) ship(a actShip, st *store.Store) event {
	batch, snapLast, err := p.batch(a, st)
	ev := evShipped{epoch: a.epoch, snapLast: snapLast, err: err}
	if err != nil {
		p.log.Warn("building replication batch", "err", err)
		return ev
	}
	if a.synced {
		p.met.lag.Set(float64(batch.TailSeq - min(a.from, batch.TailSeq)))
	}
	start := time.Now()
	if ev.err = p.request(a.to, wire.MsgReplicate, batch, &ev.ack); ev.err != nil {
		_, _ = p.dial(a.addr, a.to) // best effort: the next tick ships again either way
		return ev
	}
	p.met.shipSec.Observe(time.Since(start).Seconds())
	p.met.batchesTx.Inc()
	if !ev.ack.Refused {
		p.met.shippedRec.Add(uint64(batch.Count))
		if batch.Snapshot != nil {
			p.met.snapsTx.Inc()
		}
	}
	return ev
}

// batch builds the shipment for a: the records above a.from, led by a
// snapshot baseline when compaction has removed the ones right above it.
func (p *Peer) batch(a actShip, st *store.Store) (b wire.ReplBatch, snapLast uint64, err error) {
	b = wire.ReplBatch{PrimaryID: p.node.ID(), Epoch: a.epoch, LeaseTimeoutMillis: a.leaseFor.Milliseconds(),
		TailSeq: st.LastSeq()}
	if !a.synced {
		return b, 0, nil
	}
	recs, gap, err := st.ReadSince(a.from, batchMax)
	if err != nil {
		return b, 0, fmt.Errorf("reading WAL tail: %w", err)
	}
	if gap {
		// The records right after the standby's frontier were compacted
		// into a snapshot; ship the baseline plus the tail above it.
		var blob []byte
		if snapLast, blob, err = st.NewestSnapshot(); err != nil || blob == nil {
			return b, 0, fmt.Errorf("WAL gap but no usable snapshot to ship: %v", err)
		}
		b.Snapshot, b.SnapLastSeq = blob, snapLast
		if recs, _, err = st.ReadSince(snapLast, batchMax); err != nil {
			return b, 0, fmt.Errorf("reading post-snapshot tail: %w", err)
		}
	} else if last, blob, serr := st.NewestSnapshot(); serr == nil && blob != nil &&
		last > a.snapSeq && last <= a.from {
		// Compaction aid: the standby already has every record this
		// baseline covers, so installing it lets the replica WAL shrink.
		b.Snapshot, b.SnapLastSeq, snapLast = blob, last, last
	}
	if len(recs) > 0 {
		if b.Records, err = wire.Marshal(recs); err != nil {
			return b, 0, fmt.Errorf("encoding records: %w", err)
		}
		b.Count, b.FirstSeq, b.LastSeq = len(recs), recs[0].Seq, recs[len(recs)-1].Seq
	}
	b.TailSeq = st.LastSeq() // read last: appends since ReadSince only raise it
	return b, snapLast, nil
}

// --- standby side ---

// apply installs a batch's baseline and appends its records to the replica
// store.
func (p *Peer) apply(b *wire.ReplBatch) event {
	ev := evApplied{tail: b.TailSeq}
	if b.Snapshot != nil {
		if _, err := p.st.InstallSnapshot(b.Snapshot); err != nil {
			ev.reason = fmt.Sprintf("snapshot install: %v", err)
		}
	}
	if ev.reason == "" && b.Count > 0 {
		var recs []store.Record
		if err := wire.Unmarshal(b.Records, &recs); err != nil {
			ev.reason = fmt.Sprintf("undecodable records: %v", err)
		} else {
			n, err := p.st.AppendReplicatedBatch(recs)
			p.met.appliedRec.Add(uint64(n))
			if err != nil {
				ev.reason = err.Error()
			}
		}
	}
	ev.applied = p.st.LastSeq()
	return ev
}

// promote re-opens the replica store through the normal recovery path and
// hands it to the serving layer.
func (p *Peer) promote(epoch uint64) event {
	p.log.Warn("lease on primary lapsed; promoting", "epoch", epoch)
	// Seal the replica store so every applied record is on disk, then
	// re-open the directory exactly like a restarted server would: snapshot
	// + tail replay, torn-tail tolerance, orphan requeue — promotion IS a
	// recovery, just on a different machine.
	if err := p.st.Close(); err != nil {
		p.log.Warn("closing replica store before promotion", "err", err)
	}
	st, err := store.Open(p.cfg.StoreOptions)
	if err != nil {
		p.log.Error("promotion failed: cannot re-open replica store", "err", err)
		return evPromoteDone{err: err}
	}
	var projects []string
	if p.cfg.Hooks.Promote != nil {
		if projects, err = p.cfg.Hooks.Promote(st, epoch); err != nil {
			p.log.Error("promotion hook failed", "err", err)
			p.st = st // still the standby's
			return evPromoteDone{err: err}
		}
	}
	p.st = st // the serving layer owns it now
	p.met.promotions.Inc()
	p.log.Info("promoted to primary", "epoch", epoch, "projects", len(projects), "fenced_primary", p.s.peerID)
	// Claim ownership loudly: the fenced ex-primary (if back) demotes,
	// workers re-home, clients retarget.
	ann := wire.Promoted{NodeID: p.node.ID(), Epoch: epoch, Projects: projects}
	p.async(func() event {
		p.node.NotifyPeers(wire.MsgPromoted, ann, p.requestTimeout())
		return nil
	})
	close(p.promoted)
	return evPromoteDone{}
}

// demote tears down the serving side, archives the divergent state
// directory and starts a fresh replica directory.
func (p *Peer) demote(a actDemote) {
	p.met.fencings.Inc()
	epoch, newPrimary := a.meta.Epoch, a.meta.PeerID
	p.log.Warn("fenced by a newer primary; demoting to standby", "epoch", epoch, "new_primary", newPrimary)
	if p.cfg.Hooks.Demote != nil {
		if err := p.cfg.Hooks.Demote(epoch, newPrimary); err != nil {
			p.log.Error("demotion hook failed", "err", err)
		}
	}
	// Our WAL may hold a divergent tail (records acknowledged here but
	// never replicated before the standby promoted). Replaying it on top of
	// the new primary's history would resurrect conflicting state, so the
	// directory is archived for operators and replication restarts from a
	// clean slate + full resync.
	if err := archiveDir(p.cfg.Dir, epoch); err != nil {
		p.log.Error("archiving fenced state directory", "err", err)
	}
	if st, err := store.Open(p.cfg.StoreOptions); err != nil {
		p.log.Error("demotion failed: cannot open fresh replica store", "err", err)
	} else {
		p.st = st
	}
	p.do(actPersist{a.meta}) // into the fresh directory, before anyone sees Demoted
	close(p.demoted)
}

// archiveDir renames a fenced primary's state directory out of the way so
// the evidence of the divergent tail survives for operators.
func archiveDir(dir string, epoch uint64) error {
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		return nil
	}
	base := fmt.Sprintf("%s.fenced-e%d", dir, epoch)
	target := base
	for i := 2; ; i++ {
		if _, err := os.Stat(target); os.IsNotExist(err) {
			break
		}
		target = fmt.Sprintf("%s-%d", base, i)
	}
	return os.Rename(dir, target)
}

// handler decodes a message of type M, hands the event toEvent makes of it
// to the run loop and returns the encoded reply.
func handler[M any](p *Peer, toEvent func(*M) event) overlay.Handler {
	return func(_ string, payload []byte) ([]byte, error) {
		var m M
		if err := wire.Unmarshal(payload, &m); err != nil {
			return nil, err
		}
		reply := make(chan *wire.ReplAck, 1)
		select {
		case p.inbox <- func() { p.feed(toEvent(&m), reply) }:
		case <-p.stop:
			return nil, errors.New("replica: peer closed")
		}
		ack := <-reply
		if ack == nil {
			return []byte{}, nil
		}
		ack.ResponderID = p.node.ID()
		return wire.Marshal(ack)
	}
}
