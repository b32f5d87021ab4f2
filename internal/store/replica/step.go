package replica

import (
	"cmp"
	"time"

	"copernicus/internal/obs"
	"copernicus/internal/store"
	"copernicus/internal/wire"
)

// state is everything the protocol decides on: one peer's role, epoch,
// lease and replication frontier. Only step changes it. It holds no
// pointers, slices or clocks: states compare with ==.
type state struct {
	role     string // store.RolePrimary or store.RoleStandby
	epoch    uint64
	peerID   string // the counterpart's overlay node ID
	peerAddr string // and its transport address
	lease    float64
	// ownLease is this node's configured lease timeout, which it ships as a
	// primary; leaseTimeout is the one a standby arms, adopted from batches.
	ownLease, leaseTimeout time.Duration

	// Primary side.
	acked    uint64 // the standby's applied frontier
	synced   bool   // acked is known (a join or an ack was seen)
	snapSeq  uint64 // LastSeq of the newest baseline shipped
	shipping bool   // a batch is in flight

	// Standby side.
	applied  uint64 // the local applied frontier
	caughtUp bool   // since the last (re)join, applied reached a batch's TailSeq
	joining  bool   // a dial or join is in flight
	quiet    int    // ticks since the last contact, saturating at quietTicks
}

// quietTicks is how many ticks without contact make a standby re-dial and
// re-join before its lease runs out.
const quietTicks = 3

// boot is a peer's state at process start: what replica-meta.json and the
// store on disk say, and nothing else. Leases, frontiers learned from the
// counterpart and catch-up are volatile, so a restart begins without them.
func boot(role string, epoch uint64, peerID, peerAddr string, applied uint64, lease time.Duration) state {
	return state{role: role, epoch: epoch, peerID: peerID, peerAddr: peerAddr,
		lease: LeaseUnknown, ownLease: lease, leaseTimeout: lease, applied: applied}
}

// Events: what step reacts to — the ticker, the lease timer, the messages
// the overlay handlers receive, and the results of the actions run.
type (
	event any

	evTick  struct{} // every Interval
	evLapse struct{} // the lease timer armed by the last actArm ran out
	// evBatch, evJoin and evAnnounce are messages from the counterpart;
	// step answers the first two with an actReply.
	evBatch    struct{ b *wire.ReplBatch }
	evJoin     struct{ j wire.ReplJoin }
	evAnnounce struct{ a wire.Promoted }
	// evApplied reports an actApply: the frontier after it, the batch's
	// TailSeq, and why it was refused ("" when it was not).
	evApplied struct {
		applied, tail uint64
		reason        string
	}
	// evShipped reports an actShip: the ack, or the error that stood for
	// it, and the baseline the batch carried (0: none).
	evShipped struct {
		epoch, snapLast uint64
		ack             wire.ReplAck
		err             error
	}
	// evJoined reports an actJoin: the primary's node ID and its ack, or
	// the error that stood for them.
	evJoined struct {
		id  string
		ack wire.ReplAck
		err error
	}
	evPromoteDone struct{ err error }
)

// Actions: what step asks the shell to do. Those marked → report back with
// the named event.
type (
	action any

	actReply   struct{ ack wire.ReplAck }  // answer the message being handled
	actApply   struct{ b *wire.ReplBatch } // install and append → evApplied
	actPersist struct{ meta store.ReplicaMeta }
	actArm     struct{ d time.Duration } // (re)start the lease timer; 0 stops it
	// actShip sends the records above from (a heartbeat unless synced),
	// re-dialling addr if the round trip fails → evShipped.
	actShip struct {
		to, addr             string
		epoch, from, snapSeq uint64
		synced               bool
		leaseFor             time.Duration
	}
	// actJoin introduces the standby to its primary, dialling addr first
	// unless a link to it is up (to is "" until a handshake names it) →
	// evJoined.
	actJoin struct {
		addr, to string
		msg      wire.ReplJoin // the shell fills in StandbyID and Addr
	}
	// actPromote re-opens the replica store, runs Hooks.Promote and, if it
	// succeeds, announces the projects on the overlay and closes Promoted →
	// evPromoteDone.
	actPromote struct{ epoch uint64 }
	// actDemote runs Hooks.Demote, archives the state directory, opens a
	// fresh replica store in its place, writes meta (the new primary's
	// epoch and ID) into it and closes Demoted.
	actDemote struct{ meta store.ReplicaMeta }
	actResync struct{ ack wire.ReplAck } // the standby's refusal
	actLog    struct {
		level obs.Level
		msg   string
		kv    []any
	}
)

// mayPromote is the promotion-eligibility rule: a standby whose lease lapsed
// promotes only if, since it last (re)joined, its applied frontier reached
// the primary's tail as a batch reported it (ReplBatch.TailSeq). The lease
// alone is not enough: a freshly demoted peer with an empty directory arms
// its lease on its first batch, and if it then promoted it would fence the
// primary holding the history.
var mayPromote = func(s state) bool { return s.caughtUp }

// step is the replication protocol: every change of role, epoch, lease or
// fencing state happens here. It does no I/O, reads no clock and starts no
// goroutine; the Peer shell runs the actions it returns.
func step(s state, ev event) (state, []action) {
	primary := s.role == store.RolePrimary
	switch ev := ev.(type) {
	case evTick:
		if primary {
			if s.peerID == "" || s.shipping {
				return s, nil // no standby registered yet, or a batch still out
			}
			s.shipping = true
			return s, []action{actShip{to: s.peerID, addr: s.peerAddr, epoch: s.epoch, from: s.acked,
				synced: s.synced, snapSeq: s.snapSeq, leaseFor: s.ownLease}}
		}
		s.quiet = min(s.quiet+1, quietTicks)
		// Dial and introduce ourselves until first contact (the primary may
		// not be up yet), and again whenever the link goes quiet.
		if s.joining || (s.lease != LeaseUnknown && s.quiet < quietTicks) {
			return s, nil
		}
		return s.join()

	case evJoined:
		if primary || !s.joining {
			return s, nil
		}
		s.joining, s.peerID = false, cmp.Or(s.peerID, ev.id)
		switch {
		case ev.err != nil:
			return s, nil
		case ev.ack.Refused:
			return s, []action{actLog{level: obs.LevelWarn, msg: "primary refused join",
				kv: []any{"reason", ev.ack.Reason, "epoch", ev.ack.Epoch}}}
		}
		s.caughtUp = false // a (re)join starts a new catch-up
		var acts []action
		if ev.ack.Epoch > s.epoch {
			s.epoch = ev.ack.Epoch
			acts = append(acts, actPersist{s.meta()})
		}
		return s.contact(acts...)

	case evLapse:
		s.lease = LeaseLapsed
		switch {
		case primary:
			// A primary does not step down on a lapsed lease: it keeps
			// serving (availability over consistency during a partition)
			// and accepts being fenced once the promotion is visible.
			return s, []action{actLog{level: obs.LevelWarn, msg: "replication lease lapsed"}}
		case !mayPromote(s):
			return s, []action{actLog{level: obs.LevelWarn, msg: "lease on primary lapsed; not promoting, the standby has not caught up",
				kv: []any{"applied", s.applied}}}
		}
		s.role, s.epoch = store.RolePrimary, s.epoch+1
		s.acked, s.synced, s.snapSeq, s.shipping, s.joining = 0, false, 0, false, false
		return s, []action{actPersist{s.meta()}, actPromote{epoch: s.epoch}}

	case evPromoteDone:
		if ev.err != nil {
			// Give the epoch back. Nothing was shipped or announced under
			// it, and a standby keeping it would refuse the still healthy
			// primary's batches as stale; that refusal fences the primary.
			// So the epochs a peer has acted on still never decrease. The
			// retry waits a full lease.
			s.role, s.epoch = store.RoleStandby, s.epoch-1
			return s.contact(actPersist{s.meta()})
		}
		s.lease = LeaseHeld
		return s, nil

	case evShipped:
		if !primary || ev.epoch != s.epoch {
			return s, nil // shipped in an earlier term
		}
		s.shipping = false
		switch {
		case ev.err != nil:
			return s, nil
		case ev.ack.Refused && ev.ack.Epoch > s.epoch:
			return s.demote(ev.ack.Epoch, ev.ack.ResponderID) // fenced while unreachable
		case ev.ack.Refused:
			// Sequence mismatch (standby restarted, batch raced a resync,
			// ...): restart shipping from the standby's reported frontier.
			s.acked, s.synced = ev.ack.AppliedSeq, true
			return s, []action{actResync{ev.ack}}
		}
		s.acked, s.synced, s.snapSeq = ev.ack.AppliedSeq, true, max(s.snapSeq, ev.snapLast)
		return s.contact()

	case evJoin:
		ack := wire.ReplAck{Epoch: s.epoch}
		switch {
		case !primary:
			ack.Refused, ack.Reason = true, "not a primary"
		case ev.j.Epoch > s.epoch:
			ack.Refused, ack.Reason = true, "joining standby has a newer epoch"
		}
		if ack.Refused {
			return s, []action{actReply{ack}}
		}
		s.peerID, s.peerAddr = ev.j.StandbyID, cmp.Or(ev.j.Addr, s.peerAddr)
		s.acked, s.synced, s.snapSeq = ev.j.AppliedSeq, true, 0
		ack.AppliedSeq = ev.j.AppliedSeq
		return s.contact(actPersist{s.meta()}, actReply{ack},
			actLog{level: obs.LevelInfo, msg: "standby joined", kv: []any{"standby", ev.j.StandbyID, "frontier", ev.j.AppliedSeq}})

	case evBatch:
		b := ev.b
		ack := wire.ReplAck{Epoch: s.epoch, Refused: true}
		switch {
		case primary && b.Epoch > s.epoch:
			// The sender promoted while we were away: we are fenced.
			ack.Reason = "fenced; demoting"
			s, acts := s.demote(b.Epoch, b.PrimaryID)
			return s, append([]action{actReply{ack}}, acts...)
		case primary, b.Epoch < s.epoch:
			// A stale primary is still shipping: fence it.
			ack.Reason, ack.AppliedSeq = "fenced: stale epoch", s.applied
			return s, []action{actReply{ack}}
		}
		var acts []action
		if b.Epoch > s.epoch || (b.PrimaryID != "" && b.PrimaryID != s.peerID) {
			// A new epoch, or a new primary: follow it (roles swapped around
			// us), and catch up with it before promoting over it.
			s.epoch, s.peerID, s.caughtUp = b.Epoch, cmp.Or(b.PrimaryID, s.peerID), false
			acts = append(acts, actPersist{s.meta()})
		}
		if ms := b.LeaseTimeoutMillis; ms > 0 {
			s.leaseTimeout = time.Duration(ms) * time.Millisecond
		}
		return s, append(acts, actApply{b})

	case evApplied:
		s.applied = ev.applied
		ack := wire.ReplAck{Epoch: s.epoch, AppliedSeq: ev.applied}
		if ev.reason != "" {
			ack.Refused, ack.Reason = true, ev.reason
			return s, []action{actReply{ack}}
		}
		s.caughtUp = s.caughtUp || ev.applied >= ev.tail
		return s.contact(actReply{ack})

	case evAnnounce:
		if ev.a.Epoch <= s.epoch {
			return s, nil // stale, or our own echo
		}
		if primary {
			return s.demote(ev.a.Epoch, ev.a.NodeID)
		}
		s.epoch, s.peerID, s.caughtUp = ev.a.Epoch, ev.a.NodeID, false
		return s, []action{actPersist{s.meta()}}
	}
	return s, nil
}

// contact renews the lease: it is held, and the timer restarts.
func (s state) contact(acts ...action) (state, []action) {
	s.lease, s.quiet = LeaseHeld, 0
	d := s.leaseTimeout
	if s.role == store.RolePrimary {
		d = s.ownLease
	}
	return s, append(acts, actArm{d})
}

// demote turns a fenced primary into a fresh standby of the node that fenced
// it, at that node's epoch, and rejoins.
func (s state) demote(epoch uint64, newPrimary string) (state, []action) {
	// The fencer is our old standby: same transport address.
	s = boot(store.RoleStandby, epoch, newPrimary, s.peerAddr, 0, s.ownLease)
	s.lease = LeaseFenced
	s, join := s.join()
	return s, append([]action{actArm{0}, actDemote{s.meta()}}, join...)
}

func (s state) join() (state, []action) {
	s.joining = true
	return s, []action{actJoin{addr: s.peerAddr, to: s.peerID,
		msg: wire.ReplJoin{Epoch: s.epoch, AppliedSeq: s.applied}}}
}

func (s state) meta() store.ReplicaMeta {
	return store.ReplicaMeta{Epoch: s.epoch, Role: s.role, PeerID: s.peerID, PeerAddr: s.peerAddr}
}
