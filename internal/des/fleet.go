// The virtual-clock worker fleet both queue scenarios (tenants.go,
// repex.go) run on. It dispatches from the real internal/queue the way the
// server does (internal/server/park.go): a worker announces its free cores,
// and on a miss it parks in a line. Every queue readiness event
// (queue.Config.Ready) wakes the line head first at the same virtual
// instant, once the event that fired it is over, so a handler's whole batch
// is offered together. A parked worker announces again when its hold runs
// out after holdSeconds, the server's default RelayTimeout; that is what
// serves conditions that clear with time alone (WAL pressure decaying). A
// worker kill releases and then requeues its running commands, the server's
// order, with their progress banked to the last checkpoint.
//
// One departure from the server: a worker here announces each core as it
// frees, where the real worker announces only once its whole workload has
// finished (ROADMAP's per-slot refill item would close the gap).
package des

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"time"

	"copernicus/internal/queue"
	"copernicus/internal/wire"
)

// holdSeconds is how long a parked announce is held before the worker
// announces again: the server's default RelayTimeout.
const holdSeconds = 2.0

// event is one entry of the fleet's virtual-time heap.
type event struct {
	at  float64
	seq uint64 // scheduling order breaks ties at one instant
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// scenario is told when its commands start and finish.
type scenario interface {
	// runTime is cmd's run time, asked at its first dispatch only.
	runTime(cmd wire.CommandSpec) float64
	// started is told of every dispatch of cmd.
	started(cmd wire.CommandSpec)
	// finished is told that cmd ran to completion; it is already released.
	finished(cmd wire.CommandSpec, seconds float64)
}

type fworker struct {
	id     string
	free   int
	alive  bool
	parked bool
	hold   int // parks so far; an expiry of an earlier hold is stale
}

// dispatch is one run of a command on a worker.
type dispatch struct {
	cmd     wire.CommandSpec
	wi      int
	cores   int
	started float64
}

// fleet is the engine state: one virtual clock, one event heap, one queue.
type fleet struct {
	now    float64
	seq    uint64
	events eventHeap
	q      *queue.Queue
	sc     scenario

	exe        []string // what every worker can run
	cores      int      // per worker
	checkpoint float64  // seconds between checkpoints; 0 banks all progress at a kill
	workers    []fworker
	line       []int // parked workers, in arrival order
	ready      bool  // the queue fired Ready during the current event

	rem     map[string]float64 // run time still owed, from a command's first dispatch
	running map[string]*dispatch

	// Scorecard.
	granted  int     // cores held by running commands
	busy     float64 // core-seconds run: finished commands plus progress banked at kills
	kills    int
	requeued int
}

// newFleet builds a fleet of workers with cores each over a queue tuned by
// cfg, whose Clock and Ready the fleet supplies.
func newFleet(cfg queue.Config, workers, cores int, exe string, sc scenario) *fleet {
	f := &fleet{
		sc: sc, exe: []string{exe}, cores: cores,
		rem: make(map[string]float64), running: make(map[string]*dispatch),
	}
	epoch := time.Unix(1_700_000_000, 0)
	cfg.Clock = func() time.Time { return epoch.Add(time.Duration(f.now * float64(time.Second))) }
	cfg.Ready = func(bool) { f.ready = true }
	f.q = queue.NewWithConfig(cfg)
	for wi := 0; wi < workers; wi++ {
		f.workers = append(f.workers, fworker{id: fmt.Sprintf("w%03d", wi), free: cores, alive: true})
	}
	return f
}

// at schedules fn at virtual time t.
func (f *fleet) at(t float64, fn func()) {
	heap.Push(&f.events, event{at: t, seq: f.seq, fn: fn})
	f.seq++
}

// run announces every worker, then plays events in time order until done
// says so, the next event lies past horizon, or none is left.
func (f *fleet) run(horizon float64, done func() bool) {
	for wi := range f.workers {
		f.announce(wi)
	}
	f.settle()
	for !done() && f.events.Len() > 0 && f.events[0].at <= horizon {
		ev := heap.Pop(&f.events).(event)
		f.now = ev.at
		ev.fn()
		f.settle()
	}
}

// settle wakes the line if the event just played made the queue ready.
func (f *fleet) settle() {
	if f.ready {
		f.ready = false
		f.wake()
	}
}

// announce is worker wi announcing its free cores: a hold of its own is
// superseded, then it takes what the queue matches or, on a miss, parks.
func (f *fleet) announce(wi int) {
	f.unpark(wi)
	w := &f.workers[wi]
	if !w.alive || w.free < 1 || f.match(wi) {
		return
	}
	w.parked = true
	w.hold++
	f.line = append(f.line, wi)
	hold := w.hold
	f.at(f.now+holdSeconds, func() {
		if w.parked && w.hold == hold {
			f.announce(wi)
		}
	})
}

func (f *fleet) unpark(wi int) {
	if !f.workers[wi].parked {
		return
	}
	f.workers[wi].parked = false
	for i, x := range f.line {
		if x == wi {
			f.line = append(f.line[:i], f.line[i+1:]...)
			return
		}
	}
}

// wake offers the queue to the line head first, as the server's wakeParked
// does: a worker whose match finds commands leaves the line with them; one
// that cannot use what is queued goes to the back, until the queue is empty
// or everyone in line has passed.
func (f *fleet) wake() {
	for passed := 0; len(f.line) > 0 && passed < len(f.line) && f.q.Len() > 0; {
		wi := f.line[0]
		f.line = f.line[1:]
		if f.match(wi) {
			f.workers[wi].parked = false
			passed = 0
			continue
		}
		f.line = append(f.line, wi)
		passed++
	}
}

// match offers worker wi's free cores to the queue and starts whatever comes
// back, reporting whether anything did.
func (f *fleet) match(wi int) bool {
	w := &f.workers[wi]
	wl := f.q.Match(wire.WorkerInfo{ID: w.id, Platform: "smp", Cores: w.free, Executables: f.exe})
	for _, c := range wl.Commands {
		d := &dispatch{cmd: c, wi: wi, cores: wl.Cores[c.ID], started: f.now}
		w.free -= d.cores
		f.granted += d.cores
		if _, ok := f.rem[c.ID]; !ok {
			f.rem[c.ID] = f.sc.runTime(c)
		}
		f.running[c.ID] = d
		f.sc.started(c)
		f.at(f.now+f.rem[c.ID], func() { f.complete(d) })
	}
	return len(wl.Commands) > 0
}

// complete finishes d, unless a kill took its command off the worker since;
// the worker then announces the freed cores.
func (f *fleet) complete(d *dispatch) {
	id := d.cmd.ID
	if f.running[id] != d {
		return
	}
	delete(f.running, id)
	delete(f.rem, id)
	secs := f.now - d.started
	f.busy += secs * float64(d.cores)
	f.granted -= d.cores
	f.workers[d.wi].free += d.cores
	f.q.Release(id, secs)
	f.sc.finished(d.cmd, secs)
	f.announce(d.wi)
}

// kill takes worker wi down. Each running command is released and then
// requeued, the server's order, keeping the progress up to its last
// checkpoint (all of it when checkpoint is 0).
func (f *fleet) kill(wi int) {
	w := &f.workers[wi]
	if !w.alive {
		return
	}
	f.unpark(wi)
	w.alive, w.free = false, 0
	f.kills++
	var ids []string
	for id, d := range f.running {
		if d.wi == wi {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids) // requeue order decides dispatch order
	for _, id := range ids {
		d := f.running[id]
		elapsed := f.now - d.started
		banked := elapsed
		if f.checkpoint > 0 {
			banked = math.Floor(elapsed/f.checkpoint) * f.checkpoint
		}
		f.busy += banked * float64(d.cores)
		f.rem[id] = math.Max(0, f.rem[id]-banked)
		f.granted -= d.cores
		delete(f.running, id)
		f.q.Release(id, elapsed)
		if err := f.q.Requeue(d.cmd); err != nil {
			panic(fmt.Sprintf("des: requeue: %v", err)) // it was just dispatched: must fit
		}
		f.requeued++
	}
}

// revive brings dead worker wi back with all its cores free.
func (f *fleet) revive(wi int) {
	if w := &f.workers[wi]; !w.alive {
		w.alive, w.free = true, f.cores
		f.announce(wi)
	}
}
