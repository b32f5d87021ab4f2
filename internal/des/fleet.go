// The virtual-clock worker fleet both queue scenarios (tenants.go,
// repex.go) run on. It dispatches through the server's own core
// (server.Core) on the fleet's clock: a worker announces its free cores, the
// core matches them or parks the announce; every queue readiness event wakes
// the line at the same virtual instant, once the event that fired it is over,
// so a handler's whole batch is offered together; a parked announce's hold
// (the server's RelayTimeout) runs out on the fleet's clock. A kill banks
// the worker's running commands' progress to the last checkpoint and reports
// them lost, as a relay server's WorkerFailed does: the core requeues each
// or, its retry budget spent, fails it to its controller. Each scenario
// decides what a finished command means.
//
// One departure from the server: a worker here announces each core as it
// frees, where the real worker announces only once its whole workload has
// finished (ROADMAP's per-slot refill item), so the fleet keeps no liveness
// record per worker: its next announce would take running commands for
// orphans.
package des

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"time"

	"copernicus/internal/controller"
	"copernicus/internal/queue"
	"copernicus/internal/server"
	"copernicus/internal/wire"
)

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
	// finished is told that cmd ran to completion on worker.
	finished(cmd wire.CommandSpec, worker string, seconds float64)
}

type fworker struct {
	id    string
	free  int
	alive bool
}

// dispatch is one run of a command on a worker.
type dispatch struct {
	cmd     wire.CommandSpec
	wi      int
	cores   int
	started float64
}

// fleet is the engine state: one virtual clock, one event heap, one core.
type fleet struct {
	now    float64
	seq    uint64
	events eventHeap
	clock  func() time.Time // the core's: now, on a fixed epoch
	core   *server.Core
	q      *queue.Queue
	sc     scenario

	exe        []string // what every worker can run
	cores      int      // per worker
	checkpoint float64  // seconds between checkpoints; 0 banks all progress at a kill
	workers    []fworker
	byID       map[string]int
	ready      bool // the queue fired Ready during the current event

	rem     map[string]float64 // run time still owed, from a command's first dispatch
	running map[string]*dispatch

	// Scorecard.
	granted int     // cores held by running commands
	busy    float64 // core-seconds run: finished commands plus progress banked at kills
	kills   int
	lost    int // runs killed: each requeued, or failed once its retry budget is spent
}

// newFleet builds a fleet of workers with cores each around a core tuned by
// cfg and h, whose Clock and Ready the fleet supplies; reg holds the
// controllers of the projects a scenario submits to it.
func newFleet(cfg server.Config, h server.Hooks, reg *controller.Registry, workers, cores int, exe string, sc scenario) *fleet {
	f := &fleet{
		sc: sc, exe: []string{exe}, cores: cores, byID: make(map[string]int),
		rem: make(map[string]float64), running: make(map[string]*dispatch),
	}
	epoch := time.Unix(1_700_000_000, 0)
	f.clock = func() time.Time { return epoch.Add(time.Duration(f.now * float64(time.Second))) }
	h.Clock, h.Ready = f.clock, func(bool) { f.ready = true }
	f.core = server.NewCore(reg, cfg, h)
	f.q = f.core.Queue()
	for wi := 0; wi < workers; wi++ {
		id := fmt.Sprintf("w%03d", wi)
		f.workers = append(f.workers, fworker{id: id, free: cores, alive: true})
		f.byID[id] = wi
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

// settle wakes the core's line if the event just played made the queue
// ready, and starts what the woken workers were handed.
func (f *fleet) settle() {
	if !f.ready {
		return
	}
	f.ready = false
	// A worker's link is up while it lives: a killed worker's announce is
	// answered empty.
	woken, _ := f.core.Wake(false, func(id string) bool { return f.workers[f.byID[id]].alive })
	for _, w := range woken {
		f.start(f.byID[w.Worker().ID], w.Workload())
	}
}

// announce is worker wi announcing its free cores to the core: it takes
// what the queue matches or, on a miss, parks until a wake or its hold's
// end, when it announces again.
func (f *fleet) announce(wi int) {
	w := &f.workers[wi]
	if !w.alive || w.free < 1 {
		return
	}
	info := wire.WorkerInfo{ID: w.id, Platform: "smp", Cores: w.free, Executables: f.exe}
	wl, parked := f.core.Announce(&wire.AnnounceRequest{Info: info}, w.id)
	if parked == nil {
		f.start(wi, wl)
		return
	}
	hold := parked.Deadline().Sub(f.clock()).Seconds()
	f.at(f.now+hold, func() {
		if f.core.Expire(parked) {
			f.announce(wi)
		}
	})
}

// start hands worker wi the workload the core matched for it and runs it.
func (f *fleet) start(wi int, wl wire.Workload) {
	w := &f.workers[wi]
	f.core.Assign(wire.WorkerInfo{ID: w.id}, wl)
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
	f.sc.finished(d.cmd, f.workers[d.wi].id, secs)
	f.announce(d.wi)
}

// kill takes worker wi down. Each running command keeps the progress up to
// its last checkpoint (all of it when checkpoint is 0), and the core hears
// that the worker was lost while running them, in command-ID order: requeue
// order decides dispatch order.
func (f *fleet) kill(wi int) {
	w := &f.workers[wi]
	if !w.alive {
		return
	}
	w.alive, w.free = false, 0
	f.kills++
	var ids []string
	for id, d := range f.running {
		if d.wi == wi {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		d := f.running[id]
		banked := f.now - d.started
		if f.checkpoint > 0 {
			banked = math.Floor(banked/f.checkpoint) * f.checkpoint
		}
		f.busy += banked * float64(d.cores)
		f.rem[id] = math.Max(0, f.rem[id]-banked)
		f.granted -= d.cores
		delete(f.running, id)
	}
	f.lost += len(ids)
	f.core.WorkerFailed(wire.WorkerFailed{WorkerID: w.id, CommandIDs: ids})
}

// revive brings dead worker wi back with all its cores free.
func (f *fleet) revive(wi int) {
	if w := &f.workers[wi]; !w.alive {
		w.alive, w.free = true, f.cores
		f.announce(wi)
	}
}
