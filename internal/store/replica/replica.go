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
// acknowledged by exactly one node.
package replica

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
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
	// the Peer keeps using it for shipping but never closes it.
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
// lease on the primary lapses; a primary demotes when it is fenced by a
// higher epoch.
type Peer struct {
	node *overlay.Node
	cfg  Config
	log  *obs.Logger
	met  replicaMetrics

	mu       sync.Mutex
	role     string
	epoch    uint64
	peerID   string
	peerAddr string
	st       *store.Store
	ownStore bool // standby role: the Peer opened (and closes) st itself

	acked          uint64 // primary: standby's applied frontier
	synced         bool   // primary: acked is known (join or probe seen)
	shippedSnapSeq uint64 // primary: LastSeq of the newest shipped baseline
	lastContact    time.Time
	leaseTimeout   time.Duration // standby: adopted from batches
	leaseLogged    bool

	// pendingDemote is set by overlay handlers (which must not run role
	// transitions) and consumed by the run loop.
	pendingDemote *demotion

	promoted chan struct{}
	demoted  chan struct{}
	stop     chan struct{}
	closed   bool
	wg       sync.WaitGroup
}

type demotion struct {
	epoch      uint64
	newPrimary string
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
		node:         node,
		cfg:          cfg,
		log:          cfg.Obs.Log.Named("replica").With("node", node.ID()),
		met:          newReplicaMetrics(cfg.Obs, node.ID()),
		role:         cfg.Role,
		epoch:        1,
		peerID:       cfg.PeerID,
		peerAddr:     cfg.PeerAddr,
		leaseTimeout: cfg.LeaseTimeout,
		promoted:     make(chan struct{}),
		demoted:      make(chan struct{}),
		stop:         make(chan struct{}),
	}
	if meta != nil {
		p.epoch = meta.Epoch
	}
	switch p.role {
	case store.RolePrimary:
		if st == nil {
			return nil, errors.New("replica: primary role requires the serving store")
		}
		p.st = st
	case store.RoleStandby:
		if st != nil {
			return nil, errors.New("replica: standby role opens its own store; pass nil")
		}
		if p.peerID == "" && p.peerAddr == "" {
			return nil, errors.New("replica: a standby needs its primary's PeerID or PeerAddr")
		}
		rs, err := p.openReplicaStore()
		if err != nil {
			return nil, err
		}
		p.st = rs
		p.ownStore = true
	default:
		return nil, fmt.Errorf("replica: unknown role %q", p.role)
	}
	p.met.leaseState.Set(LeaseUnknown)

	node.Handle(wire.MsgReplicate, p.handleReplicate)
	node.Handle(wire.MsgReplJoin, p.handleJoin)
	node.Handle(wire.MsgPromoted, p.handlePromoted)

	p.wg.Add(1)
	go p.run()
	return p, nil
}

func (p *Peer) openReplicaStore() (*store.Store, error) {
	opts := p.cfg.StoreOptions
	opts.Dir = p.cfg.Dir
	if opts.Obs == nil {
		opts.Obs = p.cfg.Obs
	}
	return store.Open(opts)
}

// Role returns the current role (store.RolePrimary or store.RoleStandby).
func (p *Peer) Role() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.role
}

// Epoch returns the current fencing epoch.
func (p *Peer) Epoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epoch
}

// AckedSeq returns the peer's last acknowledged applied sequence (primary
// view); on a standby it is the local applied frontier.
func (p *Peer) AckedSeq() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.role == store.RoleStandby && p.st != nil {
		return p.st.LastSeq()
	}
	return p.acked
}

// Promoted is closed when this peer promotes itself to primary.
func (p *Peer) Promoted() <-chan struct{} { return p.promoted }

// Demoted is closed when this peer is fenced and demotes to standby.
func (p *Peer) Demoted() <-chan struct{} { return p.demoted }

// Close stops the protocol loop and closes the replica store if this peer
// owns one. It does not touch a serving store handed in by the owner.
func (p *Peer) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	close(p.stop)
	p.wg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ownStore && p.st != nil {
		return p.st.Close()
	}
	return nil
}

// --- protocol loop ---

func (p *Peer) run() {
	defer p.wg.Done()
	ticker := time.NewTicker(p.cfg.Interval)
	defer ticker.Stop()
	// A standby introduces itself immediately rather than waiting a tick.
	if p.Role() == store.RoleStandby {
		p.standbyTick()
	}
	for {
		select {
		case <-p.stop:
			return
		case <-ticker.C:
		}
		p.mu.Lock()
		pd := p.pendingDemote
		p.pendingDemote = nil
		role := p.role
		p.mu.Unlock()
		if pd != nil && role == store.RolePrimary {
			p.demote(pd.epoch, pd.newPrimary)
			continue
		}
		switch role {
		case store.RolePrimary:
			p.shipOnce()
		case store.RoleStandby:
			p.standbyTick()
		}
	}
}

// requestTimeout bounds one replication round trip: long enough for a fat
// batch, short enough that a dead link cannot eat the whole lease.
func (p *Peer) requestTimeout() time.Duration {
	t := p.cfg.LeaseTimeout / 2
	if t < p.cfg.Interval {
		t = p.cfg.Interval
	}
	return t
}

// --- primary side ---

// shipOnce ships one batch (possibly a pure heartbeat) to the standby and
// processes the acknowledgement.
func (p *Peer) shipOnce() {
	p.mu.Lock()
	peerID := p.peerID
	acked := p.acked
	synced := p.synced
	epoch := p.epoch
	st := p.st
	shippedSnap := p.shippedSnapSeq
	p.mu.Unlock()
	if peerID == "" || st == nil {
		return // no standby registered yet; nothing to lease against
	}

	batch := wire.ReplBatch{
		PrimaryID:          p.node.ID(),
		Epoch:              epoch,
		LeaseTimeoutMillis: p.cfg.LeaseTimeout.Milliseconds(),
	}
	var snapLast uint64
	if synced {
		recs, gap, err := st.ReadSince(acked, batchMax)
		if err != nil {
			p.log.Warn("reading WAL tail for shipping", "err", err)
			return
		}
		if gap {
			// The records right after the standby's frontier were compacted
			// into a snapshot; ship the baseline plus the tail above it.
			var blob []byte
			snapLast, blob, err = st.NewestSnapshot()
			if err != nil || blob == nil {
				p.log.Error("WAL gap but no usable snapshot to ship", "err", err)
				return
			}
			batch.Snapshot = blob
			batch.SnapLastSeq = snapLast
			recs, _, err = st.ReadSince(snapLast, batchMax)
			if err != nil {
				p.log.Warn("reading post-snapshot tail", "err", err)
				return
			}
		} else if last, blob, serr := st.NewestSnapshot(); serr == nil && blob != nil &&
			last > shippedSnap && last <= acked {
			// Compaction aid: the standby already has every record this
			// baseline covers, so installing it lets the replica WAL shrink.
			batch.Snapshot = blob
			batch.SnapLastSeq = last
			snapLast = last
		}
		if len(recs) > 0 {
			encoded, err := wire.Marshal(recs)
			if err != nil {
				p.log.Error("encoding replication batch", "err", err)
				return
			}
			batch.Records = encoded
			batch.Count = len(recs)
			batch.FirstSeq = recs[0].Seq
			batch.LastSeq = recs[len(recs)-1].Seq
		}
	}
	payload, err := wire.Marshal(batch)
	if err != nil {
		p.log.Error("encoding replication envelope", "err", err)
		return
	}

	start := time.Now()
	raw, err := p.node.RequestTimeout(peerID, wire.MsgReplicate, payload, p.requestTimeout())
	if err != nil {
		p.noteNoContact("shipping to standby", err)
		// The link itself may be gone: the standby dialled us originally, and
		// if that connection died in a partition nobody else re-establishes
		// it. Re-dial from this side so a healed partition lets shipping (and
		// with it, fencing of whichever side lost) resume — otherwise a
		// promoted standby and its fenced ex-primary stay split forever.
		if addr := p.currentPeerAddr(); addr != "" {
			_, _ = p.node.ConnectPeer(addr)
		}
		return
	}
	p.met.shipSec.Observe(time.Since(start).Seconds())
	p.met.batchesTx.Inc()
	var ack wire.ReplAck
	if err := wire.Unmarshal(raw, &ack); err != nil {
		p.log.Warn("undecodable replication ack", "err", err)
		return
	}
	p.handleAck(&ack, &batch, snapLast)
}

func (p *Peer) handleAck(ack *wire.ReplAck, batch *wire.ReplBatch, snapLast uint64) {
	p.mu.Lock()
	if ack.Refused && ack.Epoch > p.epoch {
		// A newer primary exists: we were fenced while unreachable.
		epoch := ack.Epoch
		newPrimary := ack.ResponderID
		p.mu.Unlock()
		p.demote(epoch, newPrimary)
		return
	}
	if ack.Refused {
		// Sequence mismatch (standby restarted, batch raced a resync, ...):
		// restart shipping from the standby's reported frontier.
		p.acked = ack.AppliedSeq
		p.synced = true
		p.met.resyncs.Inc()
		p.log.Info("standby refused batch; resyncing",
			"reason", ack.Reason, "frontier", ack.AppliedSeq)
		p.mu.Unlock()
		return
	}
	p.acked = ack.AppliedSeq
	p.synced = true
	p.lastContact = time.Now()
	p.leaseLogged = false
	if batch.Count > 0 {
		p.met.shippedRec.Add(uint64(batch.Count))
	}
	if batch.Snapshot != nil {
		p.met.snapsTx.Inc()
		if snapLast > p.shippedSnapSeq {
			p.shippedSnapSeq = snapLast
		}
	}
	lag := float64(0)
	if last := p.st.LastSeq(); last > p.acked {
		lag = float64(last - p.acked)
	}
	p.mu.Unlock()
	p.met.lag.Set(lag)
	p.met.leaseState.Set(LeaseHeld)
}

// noteNoContact records a failed exchange with the peer and flips the lease
// gauge once the timeout passes. A primary does NOT step down on a lapsed
// lease — it keeps serving (availability over consistency during a
// partition) and accepts being fenced when the standby's promotion becomes
// visible.
func (p *Peer) noteNoContact(what string, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	since := time.Since(p.lastContact)
	if !p.lastContact.IsZero() && since > p.leaseTimeoutLocked() {
		p.met.leaseState.Set(LeaseLapsed)
		if !p.leaseLogged {
			p.leaseLogged = true
			p.log.Warn("replication lease lapsed", "what", what,
				"since_contact", since.Round(time.Millisecond), "err", err)
		}
	}
}

func (p *Peer) leaseTimeoutLocked() time.Duration {
	if p.role == store.RoleStandby && p.leaseTimeout > 0 {
		return p.leaseTimeout
	}
	return p.cfg.LeaseTimeout
}

// --- standby side ---

// join introduces this standby to its primary so shipping (re)starts at the
// right frontier. A successful join counts as lease contact.
func (p *Peer) join() {
	p.mu.Lock()
	if p.role != store.RoleStandby || p.peerID == "" {
		p.mu.Unlock()
		return
	}
	peerID := p.peerID
	join := wire.ReplJoin{
		StandbyID:  p.node.ID(),
		Addr:       p.cfg.SelfAddr,
		Epoch:      p.epoch,
		AppliedSeq: p.st.LastSeq(),
	}
	p.mu.Unlock()
	payload, err := wire.Marshal(join)
	if err != nil {
		return
	}
	raw, err := p.node.RequestTimeout(peerID, wire.MsgReplJoin, payload, p.requestTimeout())
	if err != nil {
		p.log.Debug("join attempt failed", "primary", peerID, "err", err)
		return
	}
	var ack wire.ReplAck
	if err := wire.Unmarshal(raw, &ack); err != nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if ack.Refused {
		p.log.Warn("primary refused join", "reason", ack.Reason, "epoch", ack.Epoch)
		return
	}
	if ack.Epoch > p.epoch {
		p.epoch = ack.Epoch
		p.persistMetaLocked()
	}
	p.lastContact = time.Now()
	p.met.leaseState.Set(LeaseHeld)
}

// standbyTick monitors the lease and heals the replication link. The lease
// only arms after first contact: a standby that has never reached its
// primary has nothing to promote.
func (p *Peer) standbyTick() {
	p.mu.Lock()
	last := p.lastContact
	timeout := p.leaseTimeoutLocked()
	p.mu.Unlock()

	switch {
	case last.IsZero():
		// Never been in contact: dial the primary until it answers — it may
		// not be up yet — and keep introducing ourselves.
		p.dialPrimary()
		p.join()
	case time.Since(last) > timeout:
		p.met.leaseState.Set(LeaseLapsed)
		p.log.Warn("lease on primary lapsed; promoting",
			"since_contact", time.Since(last).Round(time.Millisecond))
		p.promote()
	case time.Since(last) > 2*p.cfg.Interval:
		// Quiet link: try to re-dial and re-join before the lease runs out.
		if addr := p.currentPeerAddr(); addr != "" {
			if _, err := p.node.ConnectPeer(addr); err == nil {
				p.join()
			}
		}
	}
}

// dialPrimary links this standby to its primary's address unless a link is
// already up, learning the primary's ID from the handshake when neither the
// configuration nor the metadata named it.
func (p *Peer) dialPrimary() {
	p.mu.Lock()
	peerID := p.peerID
	p.mu.Unlock()
	addr := p.currentPeerAddr()
	if addr == "" || (peerID != "" && slices.Contains(p.node.Peers(), peerID)) {
		return
	}
	id, err := p.node.ConnectPeer(addr)
	if err != nil {
		p.log.Debug("dialling primary failed", "addr", addr, "err", err)
		return
	}
	p.mu.Lock()
	p.peerID = cmp.Or(p.peerID, id)
	p.mu.Unlock()
}

func (p *Peer) currentPeerAddr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.peerAddr != "" {
		return p.peerAddr
	}
	return p.cfg.PeerAddr
}

// promote turns this standby into the primary: bump and persist the epoch,
// re-open the replica store through the normal recovery path, hand it to
// the serving layer, and announce ownership on the overlay.
func (p *Peer) promote() {
	p.mu.Lock()
	if p.role != store.RoleStandby {
		p.mu.Unlock()
		return
	}
	oldStore := p.st
	exPrimaryID := p.peerID
	exPrimaryAddr := p.peerAddr
	p.epoch++
	epoch := p.epoch
	p.role = store.RolePrimary
	p.persistMetaLocked()
	p.mu.Unlock()

	// Seal the replica store so every applied record is on disk, then
	// re-open the directory exactly like a restarted server would: snapshot
	// + tail replay, torn-tail tolerance, orphan requeue — promotion IS a
	// recovery, just on a different machine.
	if oldStore != nil {
		if err := oldStore.Close(); err != nil {
			p.log.Warn("closing replica store before promotion", "err", err)
		}
	}
	st, err := p.openReplicaStore()
	if err != nil {
		p.log.Error("promotion failed: cannot re-open replica store", "err", err)
		p.fail()
		return
	}
	var projects []string
	if p.cfg.Hooks.Promote != nil {
		projects, err = p.cfg.Hooks.Promote(st, epoch)
		if err != nil {
			p.log.Error("promotion hook failed", "err", err)
			st.Close()
			p.fail()
			return
		}
	}

	p.mu.Lock()
	p.st = st
	p.ownStore = false // the serving layer owns it now
	p.peerID = exPrimaryID
	p.peerAddr = exPrimaryAddr
	p.acked = 0
	p.synced = false
	p.shippedSnapSeq = 0
	p.lastContact = time.Time{}
	p.leaseLogged = false
	select {
	case <-p.promoted:
	default:
		close(p.promoted)
	}
	p.mu.Unlock()

	p.met.promotions.Inc()
	p.met.leaseState.Set(LeaseHeld)
	p.log.Info("promoted to primary", "epoch", epoch, "projects", len(projects),
		"fenced_primary", exPrimaryID)

	// Claim ownership loudly: the fenced ex-primary (if back) demotes,
	// workers re-home, clients retarget.
	ann, err := wire.Marshal(wire.Promoted{NodeID: p.node.ID(), Epoch: epoch, Projects: projects})
	if err == nil {
		p.node.NotifyPeers(wire.MsgPromoted, ann, p.requestTimeout())
	}
}

// fail parks the peer after an unrecoverable promotion error. State on disk
// is intact; an operator restart retries the whole sequence.
func (p *Peer) fail() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.role = store.RoleStandby
	p.epoch--
	p.persistMetaLocked()
	p.lastContact = time.Now() // full lease of grace before the next attempt
}

// demote turns a fenced ex-primary into a standby of the node that fenced
// it: tear down the serving side, archive the divergent state directory,
// start a fresh replica directory, and rejoin.
func (p *Peer) demote(newEpoch uint64, newPrimaryID string) {
	p.mu.Lock()
	if p.role != store.RolePrimary {
		p.mu.Unlock()
		return
	}
	p.role = store.RoleStandby
	p.epoch = newEpoch
	oldPeerAddr := p.peerAddr
	p.mu.Unlock()
	p.met.fencings.Inc()
	p.met.leaseState.Set(LeaseFenced)
	p.log.Warn("fenced by a newer primary; demoting to standby",
		"epoch", newEpoch, "new_primary", newPrimaryID)

	if p.cfg.Hooks.Demote != nil {
		if err := p.cfg.Hooks.Demote(newEpoch, newPrimaryID); err != nil {
			p.log.Error("demotion hook failed", "err", err)
		}
	}

	// Our WAL may hold a divergent tail (records acknowledged here but
	// never replicated before the standby promoted). Replaying it on top of
	// the new primary's history would resurrect conflicting state, so the
	// directory is archived for operators and replication restarts from a
	// clean slate + full resync.
	if err := archiveDir(p.cfg.Dir, newEpoch); err != nil {
		p.log.Error("archiving fenced state directory", "err", err)
	}
	st, err := p.openReplicaStore()
	if err != nil {
		p.log.Error("demotion failed: cannot open fresh replica store", "err", err)
		return
	}

	p.mu.Lock()
	p.st = st
	p.ownStore = true
	p.peerID = newPrimaryID
	p.peerAddr = oldPeerAddr // the fencer is our old standby: same transport address
	p.acked = 0
	p.synced = false
	p.lastContact = time.Time{} // lease re-arms on first contact
	p.persistMetaLocked()
	select {
	case <-p.demoted:
	default:
		close(p.demoted)
	}
	p.mu.Unlock()
	p.join()
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

func (p *Peer) persistMetaLocked() {
	meta := &store.ReplicaMeta{
		Epoch:    p.epoch,
		Role:     p.role,
		PeerID:   p.peerID,
		PeerAddr: p.peerAddr,
	}
	if err := store.SaveReplicaMeta(p.cfg.Dir, meta); err != nil {
		p.log.Error("persisting replica metadata", "err", err)
	}
}

// --- overlay handlers ---

// handleJoin registers (or re-registers) a standby. Only a primary accepts.
func (p *Peer) handleJoin(from string, payload []byte) ([]byte, error) {
	var join wire.ReplJoin
	if err := wire.Unmarshal(payload, &join); err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	ack := wire.ReplAck{ResponderID: p.node.ID(), Epoch: p.epoch}
	switch {
	case p.role != store.RolePrimary:
		ack.Refused = true
		ack.Reason = "not a primary"
	case join.Epoch > p.epoch:
		ack.Refused = true
		ack.Reason = "joining standby has a newer epoch"
	default:
		p.peerID = join.StandbyID
		if join.Addr != "" {
			p.peerAddr = join.Addr
		}
		p.acked = join.AppliedSeq
		p.synced = true
		p.lastContact = time.Now()
		p.leaseLogged = false
		p.shippedSnapSeq = 0
		p.persistMetaLocked()
		ack.AppliedSeq = join.AppliedSeq
		p.met.leaseState.Set(LeaseHeld)
		p.log.Info("standby joined", "standby", join.StandbyID, "frontier", join.AppliedSeq)
	}
	return wire.Marshal(ack)
}

// handleReplicate applies a batch (standby) or detects a fencing conflict
// (primary receiving another primary's batches).
func (p *Peer) handleReplicate(from string, payload []byte) ([]byte, error) {
	var batch wire.ReplBatch
	if err := wire.Unmarshal(payload, &batch); err != nil {
		return nil, err
	}
	p.met.batchesRx.Inc()

	p.mu.Lock()
	if p.role == store.RolePrimary {
		ack := wire.ReplAck{ResponderID: p.node.ID(), Epoch: p.epoch, Refused: true}
		if batch.Epoch > p.epoch {
			// The peer promoted while we were away: we are fenced. The run
			// loop performs the demotion; refuse batches until it has.
			ack.Reason = "fenced; demoting"
			if p.pendingDemote == nil || batch.Epoch > p.pendingDemote.epoch {
				p.pendingDemote = &demotion{epoch: batch.Epoch, newPrimary: batch.PrimaryID}
			}
		} else {
			// A stale primary is still shipping: fence it.
			ack.Reason = "fenced: stale epoch"
		}
		p.mu.Unlock()
		return wire.Marshal(ack)
	}

	// Standby path.
	ack := wire.ReplAck{ResponderID: p.node.ID(), Epoch: p.epoch}
	if batch.Epoch < p.epoch {
		ack.Refused = true
		ack.Reason = "fenced: stale epoch"
		ack.AppliedSeq = p.st.LastSeq()
		p.mu.Unlock()
		return wire.Marshal(ack)
	}
	if batch.Epoch > p.epoch {
		p.epoch = batch.Epoch
		ack.Epoch = p.epoch
		p.persistMetaLocked()
	}
	if batch.PrimaryID != "" && batch.PrimaryID != p.peerID {
		// Follow the current epoch's primary (e.g. roles swapped around us).
		p.peerID = batch.PrimaryID
		p.persistMetaLocked()
	}
	if ms := batch.LeaseTimeoutMillis; ms > 0 {
		p.leaseTimeout = time.Duration(ms) * time.Millisecond
	}
	st := p.st

	if batch.Snapshot != nil {
		if _, err := st.InstallSnapshot(batch.Snapshot); err != nil {
			ack.Refused = true
			ack.Reason = fmt.Sprintf("snapshot install: %v", err)
			ack.AppliedSeq = st.LastSeq()
			p.mu.Unlock()
			return wire.Marshal(ack)
		}
	}
	if batch.Count > 0 {
		var recs []store.Record
		if err := wire.Unmarshal(batch.Records, &recs); err != nil {
			ack.Refused = true
			ack.Reason = fmt.Sprintf("undecodable records: %v", err)
			ack.AppliedSeq = st.LastSeq()
			p.mu.Unlock()
			return wire.Marshal(ack)
		}
		n, err := st.AppendReplicatedBatch(recs)
		if n > 0 {
			p.met.appliedRec.Add(uint64(n))
		}
		if err != nil {
			ack.Refused = true
			if errors.Is(err, store.ErrReplicaGap) {
				ack.Reason = "gap"
			} else {
				ack.Reason = err.Error()
			}
			ack.AppliedSeq = st.LastSeq()
			p.mu.Unlock()
			return wire.Marshal(ack)
		}
	}
	p.lastContact = time.Now()
	ack.AppliedSeq = st.LastSeq()
	p.mu.Unlock()
	p.met.leaseState.Set(LeaseHeld)
	return wire.Marshal(ack)
}

// handlePromoted reacts to an ownership announcement: a primary with a
// lower epoch schedules its own demotion; a standby adopts the new primary.
func (p *Peer) handlePromoted(from string, payload []byte) ([]byte, error) {
	var ann wire.Promoted
	if err := wire.Unmarshal(payload, &ann); err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if ann.Epoch <= p.epoch {
		return []byte{}, nil // stale or our own echo
	}
	switch p.role {
	case store.RolePrimary:
		if p.pendingDemote == nil || ann.Epoch > p.pendingDemote.epoch {
			p.pendingDemote = &demotion{epoch: ann.Epoch, newPrimary: ann.NodeID}
		}
	case store.RoleStandby:
		p.epoch = ann.Epoch
		p.peerID = ann.NodeID
		p.persistMetaLocked()
	}
	return []byte{}, nil
}
