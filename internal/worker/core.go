// The worker's core (see the package comment) imports no transport, starts
// no goroutine and never reads the wall clock: TestWorkerCoreIsTransportFree.
package worker

import (
	"cmp"
	"sort"

	"copernicus/internal/wire"
)

// Core is a worker's state and every decision it makes about it: which runs
// it holds and where their heartbeats go, what a finished run's result asks
// to be refilled, which runs a heartbeat ack aborts, and when the worker is
// idle and announces. It has no lock of its own: whoever drives it — the
// shell under its mutex, or the discrete-event fleet on its one goroutine —
// serialises the calls.
type Core struct {
	info    wire.WorkerInfo // what every announce carries
	home    string          // node ID of the home server
	running map[string]run
	// idle counts the cores no run holds and no result's refill has claimed:
	// the next result that asks for a refill claims them with its own.
	idle int
}

// run is one command the worker holds, from its workload's arrival until
// its result is answered.
type run struct {
	origin string // the server that holds the command, "" for home
	cores  int
	abort  func() // set once the engine starts; nil before, and in a simulator
}

// NewCore returns the core of an idle worker announcing info to home.
func NewCore(info wire.WorkerInfo, home string) *Core {
	return &Core{info: info, home: home, running: make(map[string]run)}
}

// Info is the worker's announcement: its ID, cores and executables.
func (c *Core) Info() wire.WorkerInfo { return c.info }

// Home is the node ID of the server the worker announces to.
func (c *Core) Home() string { return c.home }

// SetHome adopts another home server: a rehome or a promotion.
func (c *Core) SetHome(id string) { c.home = id }

// Idle reports that the worker holds no run: then, and only then, it
// announces. A run is held until its result is answered, and a refill's
// commands are held from that answer on, so a worker whose results keep
// being refilled never announces.
func (c *Core) Idle() bool { return len(c.running) == 0 }

// Running returns the IDs of the commands the worker holds, sorted.
func (c *Core) Running() []string {
	ids := make([]string, 0, len(c.running))
	for id := range c.running {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Begin takes the workload an announce brought: its commands are held, and
// the cores they leave free are idle.
func (c *Core) Begin(wl *wire.Workload) { c.idle = c.info.Cores - c.hold(wl) }

// hold holds wl's commands, each on the cores it was assigned, and returns
// how many cores they take.
func (c *Core) hold(wl *wire.Workload) (n int) {
	for _, cmd := range wl.Commands {
		cores := cmp.Or(wl.Cores[cmd.ID], cmd.MinCores)
		c.running[cmd.ID] = run{origin: cmd.Origin, cores: cores}
		n += cores
	}
	return n
}

// Start is told that cmd's engine starts on cores (its MinCores if none was
// assigned), abortable by abort. It returns the cores the run holds.
func (c *Core) Start(cmd wire.CommandSpec, cores int, abort func()) int {
	if cores <= 0 {
		cores = cmd.MinCores
	}
	c.running[cmd.ID] = run{origin: cmd.Origin, cores: cores, abort: abort}
	return cores
}

// Refill is the refill a final OK result of id's run asks for, while the
// worker goes on: the run's cores and every idle one, which stay claimed
// until Replied. A result bound for another server than home asks for none:
// only home may hand the worker its next command.
func (c *Core) Refill(id string) int {
	r, ok := c.running[id]
	if !ok || (r.origin != "" && r.origin != c.home) {
		return 0
	}
	n := r.cores + c.idle
	c.idle = 0
	return n
}

// Replied is told that id's run is over and its result answered, or that
// there is no result to send. The cores it held — or, if its result asked
// for a refill, the refill's — go back to the idle pool, less those of
// next, the refill that came back, whose commands are held from now on.
func (c *Core) Replied(id string, refill int, next *wire.Workload) {
	free := c.running[id].cores
	delete(c.running, id)
	if refill > 0 {
		free = refill
	}
	if next != nil {
		free -= c.hold(next)
	}
	c.idle += free
}

// Heartbeats returns, per server, the commands the worker's next heartbeat
// to it names: home hears of every run, and each other origin of the runs
// it holds, since only the server that holds a command tracks its worker and
// can abort it.
func (c *Core) Heartbeats() map[string][]string {
	live := map[string][]string{c.home: nil}
	for id, r := range c.running {
		live[c.home] = append(live[c.home], id)
		if r.origin != "" && r.origin != c.home {
			live[r.origin] = append(live[r.origin], id)
		}
	}
	return live
}

// Abort aborts the started runs among those a heartbeat ack names, and
// returns their IDs.
func (c *Core) Abort(ids []string) (aborted []string) {
	for _, id := range ids {
		if r, ok := c.running[id]; ok && r.abort != nil {
			r.abort()
			aborted = append(aborted, id)
		}
	}
	return aborted
}
