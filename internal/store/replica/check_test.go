package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"os"
	"reflect"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"copernicus/internal/store"
	"copernicus/internal/wire"
)

// An explicit-state model checker for step, in the manner of TLC: two peers
// and a client, every interleaving of their events walked breadth-first to a
// depth bound, each distinct world visited once (by hash). The worlds are
// built from step's own state and a small model of what the Peer shell does
// with each action — a log of record IDs for a store, message slots for the
// overlay. Timers are abstract: an armed lease may lapse at any moment, which
// covers every schedule of real timeouts.
//
// Besides the safety invariants (check), the checker holds the promotion
// rule to what it is for: a standby that has caught up with its primary in
// the epoch it follows it, since it last started, and whose log holds every
// record that primary acknowledged, may promote once the primary is down.
// The model tracks that catch-up itself (mPeer.caughtAt), apart from the
// standby's own flag, so a step that forgets it — say, when the standby
// rejoins, in the same epoch, the primary it already follows — is found.
//
// Not modelled: snapshot baselines (a batch that installs one is, to step,
// a batch like any other) and crashes inside one feed of the run loop.

const (
	mRecords   = 2 // client writes in a run
	mBatch     = 1 // records per shipment, so a standby can be partly caught up
	mCrashes   = 1 // peer crashes in a run
	mHookFails = 1 // failed Promote hooks in a run
	mLease     = time.Second
)

var (
	names = [2]string{"A", "B"}
	addrs = [2]string{"a", "b"}
)

// Message slots: each peer has one ship, one join and one announcement in
// flight at most (step keeps one batch and one join out at a time; a newer
// one replaces an older one, which is the older one being lost).
const (
	slotShip = iota
	slotJoin
	slotAnnounce
	nSlots
)

const (
	kNone = iota
	kRequest
	kReply
)

// mMsg is a message in flight, in small integers to keep worlds small.
type mMsg struct {
	kind  uint8
	epoch uint8 // the sender's, as in ReplBatch/ReplJoin/Promoted.Epoch
	from  uint8 // ship: the frontier shipped above; join: the applied frontier
	recs  [mBatch]uint8
	count uint8
	tail  uint8 // ReplBatch.TailSeq
	// A reply: ReplAck's Epoch, AppliedSeq and Refused.
	ackEpoch, ackApplied uint8
	refused              bool
}

func (m *mMsg) ack(from int) wire.ReplAck {
	return wire.ReplAck{ResponderID: names[other(from)], Epoch: uint64(m.ackEpoch),
		AppliedSeq: uint64(m.ackApplied), Refused: m.refused}
}

type mLog struct {
	n   uint8
	ids [mRecords]uint8
}

func (l mLog) mask() (m uint8) {
	for _, id := range l.ids[:l.n] {
		m |= 1 << id
	}
	return m
}

type mPeer struct {
	up      bool
	s       state
	log     mLog
	meta    store.ReplicaMeta
	armed   bool
	serving bool   // the serving side is up: it takes client writes
	seen    uint64 // the highest epoch a primary or a refusal has shown this peer
	acted   uint64 // the highest epoch this peer has shipped or announced under
	// caughtAt is the epoch in which this peer, since it last started,
	// applied a batch up to the tail its primary reported (0: none).
	caughtAt uint64
}

type world struct {
	p         [2]mPeer
	net       [2][nSlots]mMsg // by sender
	linkDown  bool
	writes    uint8
	crashes   uint8
	hookFails uint8
	both      uint8 // record IDs both peers' logs have held at once
}

func initialWorld() world {
	var w world
	w.p[0] = mPeer{up: true, serving: true, s: boot(store.RolePrimary, 1, "", "", 0, mLease),
		meta: store.ReplicaMeta{Epoch: 1, Role: store.RolePrimary}}
	w.p[1] = mPeer{up: true, s: boot(store.RoleStandby, 1, "", addrs[0], 0, mLease),
		meta: store.ReplicaMeta{Epoch: 1, Role: store.RoleStandby, PeerAddr: addrs[0]}}
	return w
}

// Labels name one event of the world; label/2 is the kind, label%2 the peer
// it happens at (for deliveries, the sender of the message).
const (
	lWrite = iota
	lTick
	lLapse
	lLapseHookFails
	lCrash
	lRestart
	lDeliverShip
	lDeliverJoin
	lDeliverAnnounce
	lDrop
	lHeal
	nKinds
)

var kindNames = [nKinds]string{"client write at", "tick at", "lease lapses at",
	"lease lapses (Promote hook fails) at", "crash of", "restart of",
	"ship message from", "join message from", "announcement from", "link drops", "link heals"}

func (w *world) enabled(l int) bool {
	i := l % 2
	p := &w.p[i]
	switch l / 2 {
	case lWrite:
		return p.up && p.serving && w.writes < mRecords
	case lTick:
		return p.up
	case lLapse:
		return p.up && p.armed
	case lLapseHookFails:
		return p.up && p.armed && w.hookFails < mHookFails && p.s.role == store.RoleStandby && mayPromote(p.s)
	case lCrash:
		return p.up && w.crashes < mCrashes
	case lRestart:
		return !p.up
	case lDeliverShip, lDeliverJoin, lDeliverAnnounce:
		return w.net[i][l/2-lDeliverShip].kind != kNone
	case lDrop:
		return i == 0 && !w.linkDown
	case lHeal:
		return i == 0 && w.linkDown
	}
	return false
}

func other(i int) int { return 1 - i }

func index(name string) int {
	for i, n := range names {
		if n == name {
			return i
		}
	}
	return -1
}

// reachable says a message from i can reach the peer named to now.
func (w *world) reachable(i int, to string) bool {
	j := index(to)
	return j == other(i) && !w.linkDown && w.p[j].up
}

var errDown = errors.New("unreachable")

// apply runs event l on w and returns the first invariant it breaks.
func (w *world) apply(l int) error {
	i := l % 2
	p := &w.p[i]
	var err error
	switch l / 2 {
	case lWrite:
		w.writes++
		p.log.ids[p.log.n] = w.writes
		p.log.n++
	case lTick:
		err = w.feed(i, evTick{}, nil, false)
	case lLapse, lLapseHookFails:
		p.armed = false
		err = w.feed(i, evLapse{}, nil, l/2 == lLapseHookFails)
	case lCrash:
		w.crashes++
		p.up, p.serving, p.armed, p.caughtAt = false, false, false, 0
		for k := range w.net[i] {
			w.net[i][k] = mMsg{} // its own requests and the replies it awaits
		}
		err = w.lose(other(i))
	case lRestart:
		m := p.meta
		p.up, p.serving = true, m.Role == store.RolePrimary
		p.s = boot(m.Role, m.Epoch, m.PeerID, m.PeerAddr, uint64(p.log.n), mLease)
	case lDeliverShip, lDeliverJoin, lDeliverAnnounce:
		err = w.deliver(i, l/2-lDeliverShip)
	case lDrop:
		w.linkDown = true
		if err = w.lose(0); err == nil {
			err = w.lose(1)
		}
	case lHeal:
		w.linkDown = false
	}
	if err != nil {
		return err
	}
	return w.check()
}

// lose drops every message peer i has in flight; it learns of the failed
// round trips (an announcement is fire-and-forget).
func (w *world) lose(i int) error {
	ship, join := w.net[i][slotShip], w.net[i][slotJoin]
	w.net[i] = [nSlots]mMsg{}
	if !w.p[i].up {
		return nil
	}
	if ship.kind != kNone {
		if err := w.feed(i, evShipped{epoch: uint64(ship.epoch), err: errDown}, nil, false); err != nil {
			return err
		}
	}
	if join.kind != kNone {
		return w.feed(i, evJoined{err: errDown}, nil, false)
	}
	return nil
}

// deliver hands the message in i's slot to its receiver: a request to the
// other peer's handler, a reply back to i.
func (w *world) deliver(i, slot int) error {
	m := &w.net[i][slot]
	epoch := uint64(m.epoch)
	if m.kind == kReply {
		ack := m.ack(i)
		*m = mMsg{}
		if ack.Refused && ack.Epoch > w.p[i].s.epoch {
			w.p[i].seen = max(w.p[i].seen, ack.Epoch)
		}
		if slot == slotShip {
			return w.feed(i, evShipped{epoch: epoch, ack: ack}, nil, false)
		}
		return w.feed(i, evJoined{id: ack.ResponderID, ack: ack}, nil, false)
	}
	j := other(i)
	switch slot {
	case slotShip:
		w.p[j].seen = max(w.p[j].seen, epoch)
		b := &wire.ReplBatch{PrimaryID: names[i], Epoch: epoch, Count: int(m.count), FirstSeq: uint64(m.from) + 1,
			LeaseTimeoutMillis: mLease.Milliseconds(), TailSeq: uint64(m.tail)}
		return w.feed(j, evBatch{b}, m, false)
	case slotJoin:
		return w.feed(j, evJoin{wire.ReplJoin{StandbyID: names[i], Addr: addrs[i], Epoch: epoch, AppliedSeq: uint64(m.from)}}, m, false)
	}
	w.p[j].seen = max(w.p[j].seen, epoch)
	*m = mMsg{}
	return w.feed(j, evAnnounce{wire.Promoted{NodeID: names[i], Epoch: epoch}}, nil, false)
}

// feed is the model of Peer.feed: step, then each action in order, stepping
// again on what an action reports back. in is the request being handled.
func (w *world) feed(i int, ev event, in *mMsg, hookFails bool) error {
	p := &w.p[i]
	for queue := []event{ev}; len(queue) > 0; queue = queue[1:] {
		var acts []action
		p.s, acts = step(p.s, queue[0])
		for _, a := range acts {
			next, err := w.do(i, a, in, hookFails)
			if err != nil {
				return err
			}
			if next != nil {
				queue = append(queue, next)
			}
		}
	}
	return nil
}

func (w *world) do(i int, a action, in *mMsg, hookFails bool) (event, error) {
	p := &w.p[i]
	switch a := a.(type) {
	case actReply:
		if in != nil {
			in.kind, in.ackEpoch, in.ackApplied, in.refused = kReply, uint8(a.ack.Epoch), uint8(a.ack.AppliedSeq), a.ack.Refused
		}
	case actApply:
		ev := evApplied{tail: a.b.TailSeq}
		for k := range int(in.count) {
			switch seq := uint64(in.from) + 1 + uint64(k); {
			case seq <= uint64(p.log.n): // already applied
			case seq == uint64(p.log.n)+1:
				p.log.ids[p.log.n] = in.recs[k]
				p.log.n++
			default:
				ev.reason = "replica gap"
			}
			if ev.reason != "" {
				break
			}
		}
		ev.applied = uint64(p.log.n)
		if ev.reason == "" && ev.applied >= ev.tail {
			p.caughtAt = p.s.epoch
		}
		return ev, nil
	case actPersist:
		p.meta = a.meta
	case actArm:
		p.armed = a.d > 0
	case actShip:
		if a.epoch < p.acted {
			return nil, fmt.Errorf("%s shipped under epoch %d after acting under %d", names[i], a.epoch, p.acted)
		}
		p.acted = a.epoch
		if !w.reachable(i, a.to) {
			return evShipped{epoch: a.epoch, err: errDown}, nil
		}
		m := mMsg{kind: kRequest, epoch: uint8(a.epoch), from: uint8(a.from), tail: p.log.n}
		for k := a.from; a.synced && k < a.from+mBatch && k < uint64(p.log.n); k++ {
			m.recs[m.count] = p.log.ids[k]
			m.count++
		}
		w.net[i][slotShip] = m
	case actJoin:
		j := other(i)
		if (a.to != names[j] && a.addr != addrs[j]) || !w.reachable(i, names[j]) {
			return evJoined{id: a.to, err: errDown}, nil
		}
		w.net[i][slotJoin] = mMsg{kind: kRequest, epoch: uint8(a.msg.Epoch), from: uint8(a.msg.AppliedSeq)}
	case actPromote:
		if hookFails {
			w.hookFails++
			return evPromoteDone{err: errors.New("hook failed")}, nil
		}
		if a.epoch < p.acted {
			return nil, fmt.Errorf("%s announced epoch %d after acting under %d", names[i], a.epoch, p.acted)
		}
		p.serving, p.acted = true, a.epoch
		if j := other(i); !w.linkDown && w.p[j].up {
			w.net[i][slotAnnounce] = mMsg{kind: kRequest, epoch: uint8(a.epoch)}
		}
		return evPromoteDone{}, nil
	case actDemote:
		p.serving, p.meta = false, a.meta
		p.log = mLog{} // archived; a fresh replica directory
	}
	return nil, nil
}

// check asserts the invariants on w.
func (w *world) check() error {
	w.both |= w.p[0].log.mask() & w.p[1].log.mask()
	for i := range w.p {
		p := &w.p[i]
		if !p.up || !p.serving {
			continue
		}
		if p.s.role != store.RolePrimary {
			return fmt.Errorf("%s serves as %s", names[i], p.s.role)
		}
		if lost := w.both &^ p.log.mask(); lost != 0 {
			return fmt.Errorf("%s is primary at epoch %d without records %s that both peers held",
				names[i], p.s.epoch, ids(lost))
		}
		if p.seen > p.s.epoch {
			return fmt.Errorf("%s takes client writes at epoch %d after seeing epoch %d", names[i], p.s.epoch, p.seen)
		}
		if q := &w.p[other(i)]; i == 0 && q.up && q.serving && q.s.epoch == p.s.epoch {
			return fmt.Errorf("two unfenced primaries at epoch %d", p.s.epoch)
		}
	}
	for i := range w.p {
		p, q := &w.p[i], &w.p[other(i)]
		if p.up && p.s.role == store.RoleStandby && p.s.peerID == names[other(i)] && p.caughtAt == p.s.epoch &&
			!q.up && q.meta.Role == store.RolePrimary && q.meta.Epoch == p.s.epoch &&
			q.log.mask()&^p.log.mask() == 0 && !mayPromote(p.s) {
			return fmt.Errorf("%s caught up at epoch %d and holds every record of down primary %s, but may not promote",
				names[i], p.s.epoch, names[other(i)])
		}
	}
	return nil
}

func ids(m uint8) string {
	var out []string
	for ; m != 0; m &= m - 1 {
		out = append(out, "r"+strconv.Itoa(bits.TrailingZeros8(m)))
	}
	return "{" + strings.Join(out, ",") + "}"
}

func (w *world) String() string {
	var b strings.Builder
	for i, p := range w.p {
		if i > 0 {
			b.WriteString(" | ")
		}
		if !p.up {
			fmt.Fprintf(&b, "%s down log=%s", names[i], ids(p.log.mask()))
			continue
		}
		lease := map[float64]string{LeaseUnknown: "unknown", LeaseHeld: "held", LeaseLapsed: "lapsed", LeaseFenced: "fenced"}[p.s.lease]
		fmt.Fprintf(&b, "%s %s e%d log=%s lease=%s", names[i], p.s.role, p.s.epoch, ids(p.log.mask()), lease)
		if p.s.role == store.RoleStandby && p.s.caughtUp {
			b.WriteString(" caught-up")
		}
	}
	if w.linkDown {
		b.WriteString(" | link down")
	}
	return b.String()
}

func describe(l int) string {
	switch l / 2 {
	case lDrop, lHeal:
		return kindNames[l/2]
	}
	return kindNames[l/2] + " " + names[l%2]
}

// search walks every interleaving from start up to depth events, breadth
// first, each distinct world once. It returns the number of worlds reached
// and, for the first event that makes stop return an error, the shortest
// list of events to it and that error.
func search(start world, depth int, stop func(w *world, err error) error) (int, []int, error) {
	type edge struct {
		parent uint64
		label  int
	}
	// Two levels of worlds are live at once; hold the heap close to them.
	defer debug.SetGCPercent(debug.SetGCPercent(20))
	seed := maphash.MakeSeed()
	var buf []byte
	hash := func(w *world) uint64 {
		buf = appendValue(buf[:0], reflect.ValueOf(w).Elem())
		return maphash.Bytes(seed, buf)
	}
	root := hash(&start)
	visited := map[uint64]edge{root: {label: -1}}
	path := func(h uint64) (labels []int) {
		for e := visited[h]; e.label >= 0; e = visited[e.parent] {
			labels = append([]int{e.label}, labels...)
		}
		return labels
	}
	frontier := []world{start}
	for d := 0; d < depth && len(frontier) > 0; d++ {
		var next []world
		for _, w := range frontier {
			h := hash(&w)
			for l := range 2 * nKinds {
				if !w.enabled(l) {
					continue
				}
				w2 := w
				if err := stop(&w2, w2.apply(l)); err != nil {
					return len(visited), append(path(h), l), err
				}
				h2 := hash(&w2)
				if _, ok := visited[h2]; !ok {
					visited[h2] = edge{h, l}
					next = append(next, w2)
				}
			}
		}
		frontier = next
	}
	return len(visited), nil, nil
}

// appendValue appends an unambiguous encoding of v, a world or part of one,
// to b: the visited set hashes these bytes.
func appendValue(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			b = appendValue(b, v.Field(i))
		}
	case reflect.Array:
		for i := range v.Len() {
			b = appendValue(b, v.Index(i))
		}
	case reflect.String:
		b = append(binary.AppendUvarint(b, uint64(v.Len())), v.String()...)
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Int, reflect.Int64:
		b = binary.AppendVarint(b, v.Int())
	case reflect.Uint8, reflect.Uint64:
		b = binary.AppendUvarint(b, v.Uint())
	case reflect.Float64:
		b = binary.AppendUvarint(b, math.Float64bits(v.Float()))
	default:
		panic("appendValue: no encoding for " + v.Type().String())
	}
	return b
}

func invariants(_ *world, err error) error { return err }

// lost stops at the first world where a record both peers held is in
// neither log.
func lost(w *world, _ error) error {
	if m := w.both &^ (w.p[0].log.mask() | w.p[1].log.mask()); m != 0 {
		return fmt.Errorf("records %s are in no peer's log", ids(m))
	}
	return nil
}

// explore checks every interleaving up to depth events. It returns the number
// of distinct worlds reached and, if an invariant broke, the shortest trace
// to it, followed by the shortest way on from there to losing the records.
func explore(depth int) (states int, trace []string) {
	states, labels, err := search(initialWorld(), depth, invariants)
	if err == nil {
		return states, nil
	}
	w := initialWorld()
	trace = append(trace, "   "+w.String())
	n := 0
	replay := func(labels []int) {
		for _, l := range labels {
			w.apply(l)
			n++
			trace = append(trace, fmt.Sprintf("%2d %s → %s", n, describe(l), w.String()))
		}
	}
	replay(labels)
	trace = append(trace, "violated: "+err.Error())
	if _, labels, err := search(w, 4, lost); err != nil {
		replay(labels)
		trace = append(trace, "then: "+err.Error())
	}
	return states, trace
}

// checkDepth is the tier-1 depth; CPC_CHECK_DEPTH asks for another.
func checkDepth(t *testing.T) int {
	if s := os.Getenv("CPC_CHECK_DEPTH"); s != "" {
		d, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("CPC_CHECK_DEPTH=%q: %v", s, err)
		}
		return d
	}
	return 12
}

// TestCheckerPromotionRule: with the catch-up rule, no interleaving up to
// the depth bound breaks an invariant, and a caught-up standby holding
// every record of its down primary may always promote.
func TestCheckerPromotionRule(t *testing.T) {
	depth := checkDepth(t)
	start := time.Now()
	states, trace := explore(depth)
	if trace != nil {
		t.Fatalf("counterexample:\n%s", strings.Join(trace, "\n"))
	}
	t.Logf("depth %d: %d states, no counterexample (%v)", depth, states, time.Since(start).Round(time.Millisecond))
}

// TestCheckerFindsRefusedPromotion: a rule that never promotes keeps every
// record, and leaves a down primary's caught-up standby unable to take
// over. The checker must find that, or it checks only safety.
func TestCheckerFindsRefusedPromotion(t *testing.T) {
	defer func(rule func(state) bool) { mayPromote = rule }(mayPromote)
	mayPromote = func(state) bool { return false }
	states, trace := explore(12)
	if trace == nil {
		t.Fatalf("no counterexample in %d states", states)
	}
	t.Logf("counterexample after %d states:\n%s", states, strings.Join(trace, "\n"))
}

// TestCheckerFindsLeaseOnlyPromotion: the rule before catch-up — a lapsed
// lease alone promotes — loses records both peers held. The checker must
// find that, or it checks nothing.
func TestCheckerFindsLeaseOnlyPromotion(t *testing.T) {
	defer func(rule func(state) bool) { mayPromote = rule }(mayPromote)
	mayPromote = func(state) bool { return true }
	states, trace := explore(12)
	if trace == nil {
		t.Fatalf("no counterexample in %d states", states)
	}
	t.Logf("counterexample after %d states:\n%s", states, strings.Join(trace, "\n"))
}
