// The virtual-clock worker fleet every queue scenario (des.go's scaling
// study, tenants.go, repex.go) runs on: the server's core (server.Core) and
// a worker core (worker.Core) per worker, called on the fleet's clock in the
// order their shells call them. A worker that holds no run announces; the
// core matches it or parks the announce until a queue readiness event
// (played once the event that fired it is over, so a handler's batch is
// offered whole) or its hold's end on the fleet's clock. An engine run is a
// timed event: at its end the scenario reports the result to the core, and
// the worker core's refill (Core.Refill) starts at once, its cores that
// nothing fills joining the worker's idle pool. So a busy worker never
// announces or parks, and the server's worker records hold as in
// production. A kill banks each running command's progress to its last
// checkpoint and reports the runs lost through WorkerFailed, the core's
// reaper path (requeue, or fail once the retry budget is spent); a revive
// starts a fresh worker core. Heartbeats and the reaper are not simulated.
// Each scenario decides what a finished command means.
package des

import (
	"container/heap"
	"fmt"
	"math"
	"time"

	"copernicus/internal/controller"
	"copernicus/internal/obs"
	"copernicus/internal/queue"
	"copernicus/internal/server"
	"copernicus/internal/wire"
	"copernicus/internal/worker"
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
	// finished is told that cmd ran to completion on worker, and reports its
	// result to the core.
	finished(cmd wire.CommandSpec, worker string, seconds float64)
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

	home       string         // the core's node ID: every worker's home
	exe        []string       // what every worker can run
	cores      int            // per worker
	checkpoint float64        // seconds between checkpoints; 0 banks all progress at a kill
	workers    []*worker.Core // nil while dead
	byID       map[string]int
	ready      bool // the queue fired Ready during the current event

	rem     map[string]float64 // run time still owed, from a command's first dispatch
	running map[string]*dispatch

	// Scorecard.
	granted   int     // cores held by running commands
	busy      float64 // core-seconds run: finished commands plus progress banked at kills
	announces int     // matched or parked
	kills     int
	lost      int // runs killed: each requeued, or failed once its retry budget is spent
}

// newFleet builds a fleet of workers with cores each around a core tuned by
// cfg and h, whose Clock and Ready the fleet supplies; reg holds the
// controllers of the projects a scenario submits to it. A cfg without an Obs
// gets one without a tracer: no scenario reads the core's spans.
func newFleet(cfg server.Config, h server.Hooks, reg *controller.Registry, workers, cores int, exe string, sc scenario) *fleet {
	if cfg.Obs == nil {
		cfg.Obs = &obs.Obs{Metrics: obs.NewRegistry(), Log: obs.NewLogger(nil, obs.LevelOff)}
	}
	f := &fleet{
		sc: sc, home: h.Origin, exe: []string{exe}, cores: cores, byID: make(map[string]int),
		workers: make([]*worker.Core, workers),
		rem:     make(map[string]float64), running: make(map[string]*dispatch),
	}
	epoch := time.Unix(1_700_000_000, 0)
	f.clock = func() time.Time { return epoch.Add(time.Duration(f.now * float64(time.Second))) }
	h.Clock, h.Ready = f.clock, func(bool) { f.ready = true }
	f.core = server.NewCore(reg, cfg, h)
	f.q = f.core.Queue()
	for wi := range f.workers {
		f.hire(wi)
	}
	return f
}

// hire gives worker wi a fresh worker core, idle.
func (f *fleet) hire(wi int) {
	id := fmt.Sprintf("w%03d", wi)
	f.byID[id] = wi
	f.workers[wi] = worker.NewCore(wire.WorkerInfo{ID: id, Cores: f.cores, Executables: f.exe}, f.home)
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
	woken, _ := f.core.Wake(false, func(id string) bool { return f.workers[f.byID[id]] != nil })
	for _, w := range woken {
		f.begin(f.byID[w.Worker().ID], w.Workload())
	}
}

// announce is worker wi announcing, if it lives and holds no run: it takes
// what the queue matches or, on a miss, parks until a wake or its hold's
// end, when it announces again.
func (f *fleet) announce(wi int) {
	w := f.workers[wi]
	if w == nil || !w.Idle() {
		return
	}
	f.announces++
	info := w.Info()
	wl, parked := f.core.Announce(&wire.AnnounceRequest{Info: info}, info.ID)
	f.core.TouchWorker(info)
	if parked == nil {
		f.begin(wi, wl)
		return
	}
	hold := parked.Deadline().Sub(f.clock()).Seconds()
	f.at(f.now+hold, func() {
		if f.core.Expire(parked) {
			f.announce(wi)
		}
	})
}

// begin assigns worker wi the workload its announce took, and starts it.
func (f *fleet) begin(wi int, wl wire.Workload) {
	w := f.workers[wi]
	wl = f.core.Assign(w.Info(), wl)
	w.Begin(&wl)
	f.start(wi, wl)
}

// start runs the commands of a workload worker wi holds, each for the run
// time it still owes.
func (f *fleet) start(wi int, wl wire.Workload) {
	for _, c := range wl.Commands {
		d := &dispatch{cmd: c, wi: wi, cores: wl.Cores[c.ID], started: f.now}
		f.granted += d.cores
		if _, ok := f.rem[c.ID]; !ok {
			f.rem[c.ID] = f.sc.runTime(c)
		}
		f.running[c.ID] = d
		f.sc.started(c)
		f.at(f.now+f.rem[c.ID], func() { f.complete(d) })
	}
}

// complete finishes d, unless a kill took its command off the worker since:
// the scenario reports the result, the refill the worker core asks for
// starts, and a worker left holding nothing announces.
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
	w := f.workers[d.wi]
	wid := w.Info().ID
	refill := w.Refill(id)
	f.sc.finished(d.cmd, wid, secs)
	// The reported result as Refill reads it; a refill of 0 takes nothing.
	next, _ := f.core.Refill(&wire.CommandResult{CommandID: id, Project: d.cmd.Project,
		WorkerID: wid, OK: true, Refill: refill})
	w.Replied(id, refill, &next)
	f.start(d.wi, next)
	f.announce(d.wi)
}

// kill takes worker wi down. Each running command keeps the progress up to
// its last checkpoint (all of it when checkpoint is 0), and the core hears
// that the worker was lost while running them, in command-ID order: requeue
// order decides dispatch order.
func (f *fleet) kill(wi int) {
	w := f.workers[wi]
	if w == nil {
		return
	}
	f.workers[wi] = nil
	f.kills++
	ids := w.Running()
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
	f.core.WorkerFailed(wire.WorkerFailed{WorkerID: w.Info().ID, CommandIDs: ids})
}

// revive brings dead worker wi back with a fresh worker core.
func (f *fleet) revive(wi int) {
	if f.workers[wi] == nil {
		f.hire(wi)
		f.announce(wi)
	}
}
