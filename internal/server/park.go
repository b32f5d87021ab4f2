package server

import (
	"container/list"
	"fmt"
	"sync"
	"time"

	"copernicus/internal/obs"
	"copernicus/internal/wire"
)

// Event-driven dispatch. A direct announce the local queue cannot serve is
// parked: it joins the core's line, the worker's request stays open, and the
// announce ends in exactly one of five ways:
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
// Whoever hosts the core decides when the line is woken and its holds end.

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

// Waiter is one parked announce.
type Waiter struct {
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

// Worker, Deadline and Workload are whose announce w is, when its hold runs
// out, and what a wake's re-match took from the queue for it.
func (w *Waiter) Worker() wire.WorkerInfo { return w.req.Info }
func (w *Waiter) Deadline() time.Time     { return w.deadline }
func (w *Waiter) Workload() wire.Workload { return w.wl }

// parking is the core's line of parked announces.
type parking struct {
	mu       sync.Mutex
	line     *list.List         // *Waiter, in arrival order
	byWorker map[string]*Waiter // one waiter per worker ID
	closed   bool
	// wanted records that another server's search went away from here with
	// nothing since the last work-available notice: someone out there has a
	// worker parked, so a notice has a reader.
	wanted bool
	woken  []*Waiter // Wake's result, reused

	hold [parkClosed]*obs.Histogram // by outcome
}

// holdBuckets span an in-process wake (microseconds) to the longest hold.
var holdBuckets = []float64{.0001, .001, .005, .01, .05, .1, .25, .5, 1, 2, 5}

func (c *Core) initParking(node string) {
	p := &c.park
	p.line = list.New()
	p.byWorker = make(map[string]*Waiter)
	m := c.cfg.Obs.Metrics
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

// admit, the fxAdmit effect, pushes a returned handler's batch in one hold
// of parking.mu: a worker takes one workload and does not announce again
// until it has run it, so it must be offered the whole batch. Each command
// passes admission in submit order; on a refusal those already pushed are
// removed before the lock is released. A terminated command is not pushed.
func (c *Core) admit(batch []*cmdState) error {
	c.park.mu.Lock()
	defer c.park.mu.Unlock()
	for i, cs := range batch {
		if cs.status != cmdQueued {
			continue
		}
		err := c.q.CheckStorage(cs.spec.Tenant, int64(len(cs.spec.Payload)))
		if err != nil {
			err = fmt.Errorf("server: submitting command %q: %w", cs.spec.ID, err)
		} else if err = c.q.Push(cs.spec); err == nil {
			continue
		}
		for _, prev := range batch[:i] {
			if prev.status == cmdQueued {
				c.q.Remove(prev.spec.ID)
			}
		}
		return err
	}
	return nil
}

// Wake offers the queue to the line, head first. A waiter whose match finds
// commands leaves with them; one that cannot use what is queued goes to the
// back, until the queue is empty or everyone has passed — k pushes cost
// about k matches. A waiter whose link is no longer up is answered empty.
// It returns the waiters it woke with commands, valid until the next Wake,
// and whether other servers should be told that work is available: commands
// are left, edge says this event put the first into an empty queue, and
// another server has been looking.
func (c *Core) Wake(edge bool, linked func(link string) bool) (woken []*Waiter, notify bool) {
	p := &c.park
	p.mu.Lock()
	defer p.mu.Unlock()
	clear(p.woken)
	p.woken = p.woken[:0]
	for passed := 0; p.line.Len() > 0 && passed < p.line.Len() && c.q.Len() > 0; {
		w := p.line.Front().Value.(*Waiter)
		if w.link != "" && !linked(w.link) {
			c.resolveLocked(w, parkClosed)
			continue
		}
		wl := c.q.Match(w.req.Info)
		if len(wl.Commands) == 0 {
			p.line.MoveToBack(w.elem)
			passed++
			continue
		}
		passed = 0
		w.wl = wl
		c.resolveLocked(w, parkLocal)
		p.woken = append(p.woken, w)
	}
	if edge && p.wanted && c.q.Len() > 0 {
		p.wanted, notify = false, true
	}
	return p.woken, notify
}

// Announce serves a direct announce: the worker's older announce is
// answered first, then the queue is tried, and on a miss the announce joins
// the line until RelayTimeout or the worker's budget, whichever is shorter.
// The waiter is nil on a hit and when closing. link names the node the
// worker announced over, if it is linked to this one: a wake checks it.
func (c *Core) Announce(req *wire.AnnounceRequest, link string) (wire.Workload, *Waiter) {
	p := &c.park
	p.mu.Lock()
	defer p.mu.Unlock()
	if old := p.byWorker[req.Info.ID]; old != nil {
		c.resolveLocked(old, parkSuperseded)
	}
	wl := c.q.Match(req.Info)
	if len(wl.Commands) > 0 || p.closed {
		return wl, nil
	}
	hold := c.cfg.RelayTimeout
	if budget := time.Duration(req.WaitSeconds * float64(time.Second)); budget > 0 && budget < hold {
		hold = budget
	}
	now := c.env.now()
	w := &Waiter{req: *req, parkedAt: now, deadline: now.Add(hold), link: link, done: make(chan struct{})}
	w.elem = p.line.PushBack(w)
	p.byWorker[req.Info.ID] = w
	return wl, w
}

// matchRelayed serves another server's search: with what the worker's
// record here holds (reoffer), or else from the queue. Relayed announces are
// never parked — two servers could both end up answering one request and the
// second workload would be lost — so a miss is only remembered: the searcher
// has a worker waiting, which is what makes a later notice worth sending.
func (c *Core) matchRelayed(info wire.WorkerInfo) wire.Workload {
	if wl := c.reoffer(info); len(wl.Commands) > 0 {
		return wl
	}
	p := &c.park
	p.mu.Lock()
	defer p.mu.Unlock()
	wl := c.q.Match(info)
	if len(wl.Commands) == 0 {
		p.wanted = true
	}
	return wl
}

// resolveLocked ends a parked announce with the given outcome, unless it
// has been answered already.
func (c *Core) resolveLocked(w *Waiter, o parkOutcome) {
	p := &c.park
	if w.elem == nil {
		return
	}
	p.line.Remove(w.elem)
	w.elem = nil
	delete(p.byWorker, w.req.Info.ID)
	w.outcome = o
	if o != parkClosed {
		p.hold[o].Observe(c.env.now().Sub(w.parkedAt).Seconds())
	}
	close(w.done)
}

// resolve ends w with outcome o, carrying reply (a relayed workload), if it
// is still parked, and reports whether it was.
func (c *Core) resolve(w *Waiter, o parkOutcome, reply []byte) bool {
	c.park.mu.Lock()
	defer c.park.mu.Unlock()
	if w.elem == nil {
		return false
	}
	w.reply = reply
	c.resolveLocked(w, o)
	return true
}

// Expire ends w's hold, if it is still parked, and reports whether it was:
// the worker is answered empty and announces again.
func (c *Core) Expire(w *Waiter) bool { return c.resolve(w, parkExpired, nil) }

// releaseParked answers every parked announce at once and refuses new ones.
func (c *Core) releaseParked() {
	p := &c.park
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for p.line.Len() > 0 {
		c.resolveLocked(p.line.Front().Value.(*Waiter), parkClosed)
	}
}

// parked returns the waiters in line, head first.
func (c *Core) parked() []*Waiter {
	p := &c.park
	p.mu.Lock()
	defer p.mu.Unlock()
	waiters := make([]*Waiter, 0, p.line.Len())
	for e := p.line.Front(); e != nil; e = e.Next() {
		waiters = append(waiters, e.Value.(*Waiter))
	}
	return waiters
}
