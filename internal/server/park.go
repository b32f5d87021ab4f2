package server

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"copernicus/internal/obs"
	"copernicus/internal/overlay"
	"copernicus/internal/retry"
	"copernicus/internal/wire"
)

// Event-driven dispatch. A direct announce the local queue cannot serve is
// parked: its handler (which the overlay runs on a goroutine of its own)
// waits, the worker's request stays open, and the announce ends in exactly
// one of five ways:
//
//	local       a queue event woke it and its re-match found commands
//	relayed     the overlay search started on its behalf brought a workload
//	expired     the hold ran out: empty workload, the worker announces again
//	superseded  the same worker announced again: empty workload, never matched
//	closed      the server is shutting down, or the worker's link closed
//	            while it waited: empty workload
//
// Every transition happens under parking.mu, so "exactly one" is the lock's
// doing; so does all matching and the push of a returned handler's commands
// (admit): a match sees all of a handler's commands or none, a push after a
// miss finds the waiter in line, and no match waits for a handler. Lock
// order: p.mu → parking.mu → q.mu; nothing takes p.mu under parking.mu.

type parkOutcome int

const (
	parkLocal parkOutcome = iota
	parkRelayed
	parkExpired
	parkSuperseded
	parkClosed // nobody left to serve, not a dispatch outcome: not in the histogram
)

// outcomeLabels are the hold histogram's outcome label values.
var outcomeLabels = [parkClosed]string{"local", "relayed", "expired", "superseded"}

// waiter is one parked announce.
type waiter struct {
	req      wire.AnnounceRequest
	parkedAt time.Time
	deadline time.Time
	elem     *list.Element // position in parking.line; nil once resolved
	link     string        // the worker's node, if it announced over a direct link
	done     chan struct{} // closed by resolveLocked

	// Set under parking.mu before done is closed, read after it.
	outcome parkOutcome
	wl      wire.Workload // parkLocal: what the re-match took from the queue
	reply   []byte        // parkRelayed: the remote server's encoded workload
}

// parking is the server's line of parked announces and what the dispatcher
// needs to serve it.
type parking struct {
	mu       sync.Mutex
	line     *list.List         // *waiter, in arrival order
	byWorker map[string]*waiter // one waiter per worker ID
	closed   bool
	// wanted records that another server's search went away from here with
	// nothing since the last work-available notice: someone out there has a
	// worker parked, so a notice has a reader.
	wanted bool

	// ready wakes the dispatcher; edge is set with it when the event put a
	// command into an empty queue.
	ready chan struct{}
	edge  atomic.Bool

	hold [parkClosed]*obs.Histogram // by outcome
}

// holdBuckets span an in-process wake (microseconds) to the longest hold.
var holdBuckets = []float64{.0001, .001, .005, .01, .05, .1, .25, .5, 1, 2, 5}

func (s *Server) initParking() {
	p := &s.park
	p.line = list.New()
	p.byWorker = make(map[string]*waiter)
	p.ready = make(chan struct{}, 1)
	m, node := s.cfg.Obs.Metrics, s.node.ID()
	m.GaugeFunc("copernicus_server_parked_announces",
		"Idle workers' announces held open until work turns up.", obs.L("node", node),
		func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return float64(p.line.Len())
		})
	for o, name := range outcomeLabels {
		p.hold[o] = m.Histogram("copernicus_server_announce_hold_seconds",
			"How long a parked announce was held, by how it ended.",
			holdBuckets, obs.L("node", node, "outcome", name))
	}
}

// queueReady is the queue's readiness hook: it only nudges the dispatcher,
// because the caller may hold a project lock and parking.mu.
func (s *Server) queueReady(first bool) {
	if first {
		s.park.edge.Store(true)
	}
	select {
	case s.park.ready <- struct{}{}:
	default:
	}
}

// admit, the fxAdmit effect, pushes a returned handler's batch in one hold
// of parking.mu: a worker takes one workload and does not announce again
// until it has run it, so it must be offered the whole batch. Each command
// passes admission in submit order; on a refusal those already pushed are
// removed before the lock is released. A terminated command is not pushed.
func (s *Server) admit(batch []*cmdState) error {
	s.park.mu.Lock()
	defer s.park.mu.Unlock()
	for i, cs := range batch {
		if cs.status != cmdQueued {
			continue
		}
		err := s.q.CheckStorage(cs.spec.Tenant, int64(len(cs.spec.Payload)))
		if err != nil {
			err = fmt.Errorf("server: submitting command %q: %w", cs.spec.ID, err)
		} else if err = s.q.Push(cs.spec); err == nil {
			continue
		}
		for _, prev := range batch[:i] {
			if prev.status == cmdQueued {
				s.q.Remove(prev.spec.ID)
			}
		}
		return err
	}
	return nil
}

// runDispatcher serves the line whenever the queue reports an event.
func (s *Server) runDispatcher() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case <-s.park.ready:
			s.wakeParked()
		}
	}
}

// wakeParked offers the queue to the line, head first. A waiter whose match
// finds commands leaves with them; one that cannot use what is queued goes to
// the back, until the queue is empty or everyone has passed — k pushes cost
// about k matches. If commands are left, this event put the first into an
// empty queue, and another server has been looking, the overlay is told
// once. A waiter whose link has closed is answered empty.
func (s *Server) wakeParked() {
	p := &s.park
	edge := p.edge.Swap(false)
	p.mu.Lock()
	defer p.mu.Unlock()
	for passed := 0; p.line.Len() > 0 && passed < p.line.Len() && s.q.Len() > 0; {
		w := p.line.Front().Value.(*waiter)
		if w.link != "" && !slices.Contains(s.node.Peers(), w.link) {
			s.resolveLocked(w, parkClosed)
			continue
		}
		wl := s.q.Match(w.req.Info)
		if len(wl.Commands) == 0 {
			p.line.MoveToBack(w.elem)
			passed++
			continue
		}
		passed = 0
		w.wl = wl
		s.resolveLocked(w, parkLocal)
	}
	if edge && p.wanted && s.q.Len() > 0 {
		p.wanted = false
		s.node.Flood(wire.MsgWorkAvailable, nil)
	}
}

// matchOrPark serves a direct announce: the worker's older announce is
// answered first, then the queue is tried, and on a miss the announce joins
// the line for RelayTimeout or the worker's budget, whichever is shorter.
// The waiter is nil on a hit and when closing. A wake checks the link to
// from, the announcing node, if it is linked to this one.
func (s *Server) matchOrPark(from string, req *wire.AnnounceRequest) (wire.Workload, *waiter) {
	p := &s.park
	p.mu.Lock()
	defer p.mu.Unlock()
	if old := p.byWorker[req.Info.ID]; old != nil {
		s.resolveLocked(old, parkSuperseded)
	}
	wl := s.q.Match(req.Info)
	if len(wl.Commands) > 0 || p.closed {
		return wl, nil
	}
	hold := s.cfg.RelayTimeout
	if budget := time.Duration(req.WaitSeconds * float64(time.Second)); budget > 0 && budget < hold {
		hold = budget
	}
	now := time.Now()
	w := &waiter{req: *req, parkedAt: now, deadline: now.Add(hold), done: make(chan struct{})}
	if slices.Contains(s.node.Peers(), from) {
		w.link = from
	}
	w.elem = p.line.PushBack(w)
	p.byWorker[req.Info.ID] = w
	return wl, w
}

// matchRelayed serves another server's search. Relayed announces are never
// parked — two servers could both end up answering one request and the
// second workload would be lost — so a miss is only remembered: the searcher
// has a worker waiting, which is what makes a later notice worth sending.
func (s *Server) matchRelayed(info wire.WorkerInfo) wire.Workload {
	p := &s.park
	p.mu.Lock()
	defer p.mu.Unlock()
	wl := s.q.Match(info)
	if len(wl.Commands) == 0 {
		p.wanted = true
	}
	return wl
}

// resolveLocked ends a parked announce with the given outcome, unless it
// has been answered already.
func (s *Server) resolveLocked(w *waiter, o parkOutcome) {
	p := &s.park
	if w.elem == nil {
		return
	}
	p.line.Remove(w.elem)
	w.elem = nil
	delete(p.byWorker, w.req.Info.ID)
	w.outcome = o
	if o != parkClosed {
		p.hold[o].Observe(time.Since(w.parkedAt).Seconds())
	}
	close(w.done)
}

// await blocks the announce's handler until the waiter is resolved, expiring
// it when the hold runs out.
func (s *Server) await(w *waiter) {
	t := time.NewTimer(time.Until(w.deadline))
	defer t.Stop()
	select {
	case <-w.done:
	case <-t.C:
		s.park.mu.Lock()
		s.resolveLocked(w, parkExpired)
		s.park.mu.Unlock()
	}
}

// releaseParked answers every parked announce at once and refuses new ones;
// Close calls it.
func (s *Server) releaseParked() {
	p := &s.park
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for p.line.Len() > 0 {
		s.resolveLocked(p.line.Front().Value.(*waiter), parkClosed)
	}
}

// search looks for work in the overlay for a parked worker, in the
// background: a relayed copy of the announce goes out anycast until a server
// answers or the hold ends. Only transport failures are retried: a deadline
// or a missing route means "no server has work", and a remote error will not
// change. A workload that comes back is recorded against the worker; if the
// waiter is gone, the worker's next announce takes the commands for orphans
// and hands them back to their origin (touchWorker, recoverOrphans).
func (s *Server) search(w *waiter) {
	select {
	case <-w.done:
		return
	default:
	}
	s.goAsync(func() {
		relay := w.req
		relay.Relayed = true
		payload, err := wire.Marshal(&relay)
		if err != nil {
			return
		}
		ctx, cancel := context.WithDeadline(s.ctx, w.deadline)
		defer cancel()
		var reply []byte
		err = s.rpol.Do(ctx, "announce_relay", func(ctx context.Context) error {
			r, err := s.node.Request(ctx, "", wire.MsgAnnounce, payload)
			if err != nil {
				var remote *overlay.RemoteError
				if errors.As(err, &remote) ||
					errors.Is(err, context.DeadlineExceeded) ||
					errors.Is(err, overlay.ErrNoRoute) {
					return retry.Permanent(err)
				}
				return err
			}
			reply = r
			return nil
		})
		if err != nil {
			return
		}
		var remote wire.Workload
		if err := wire.Unmarshal(reply, &remote); err != nil || len(remote.Commands) == 0 {
			return
		}
		s.recordRelayedWorkload(w.req.Info, &remote)
		s.park.mu.Lock()
		delivered := w.elem != nil
		if delivered {
			w.reply = reply
			s.resolveLocked(w, parkRelayed)
		}
		s.park.mu.Unlock()
		if !delivered {
			s.log.Info("relayed workload arrived after its announce was answered; left for orphan recovery",
				"worker", w.req.Info.ID, "commands", len(remote.Commands))
		}
	})
}

// handleWorkAvailable receives another server's notice that it has commands
// nobody there took: every parked worker gets a fresh search. Declining the
// notice lets the overlay carry it on to the servers behind this one.
func (s *Server) handleWorkAvailable(from string, payload []byte) ([]byte, error) {
	p := &s.park
	p.mu.Lock()
	waiters := make([]*waiter, 0, p.line.Len())
	for e := p.line.Front(); e != nil; e = e.Next() {
		waiters = append(waiters, e.Value.(*waiter))
	}
	p.mu.Unlock()
	for _, w := range waiters {
		s.search(w)
	}
	return nil, overlay.ErrNotHandled
}
