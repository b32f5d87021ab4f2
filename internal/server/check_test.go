package server

import (
	"fmt"
	"hash/maphash"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"copernicus/internal/controller"
	"copernicus/internal/obs"
	"copernicus/internal/store"
	"copernicus/internal/wire"
)

// An explicit-state model checker for the command lifecycle, in the manner
// of store/replica's: one project on a Core — the real transitions and the
// real effect shell over a real in-memory queue, on a clock that moves only
// when a worker falls silent, with no overlay and no store — driven by a
// scripted controller and two one-core workers through every order of their
// events, breadth first to a depth bound, each distinct world visited once
// (by hash). A world is rebuilt by re-running the events that reach it on a
// fresh core, so nothing is ever copied.
//
// The events: a worker announces, directly or by another server's relayed
// search (and is assigned what the queue matches), checkpoints, returns an
// OK result, returns one that asks for a refill (and runs what the refill
// assigns), returns one whose refill reply is lost so that it retries the
// result, reports a failure, is lost, or falls silent past two heartbeat
// intervals, so the reaper takes it; a lost, silent or preempted worker's
// result arrives late; the last OK result is delivered again; a
// checkpointed command is preempted; the server restarts from its journal.
// The controller's Start submits c1 and c2; c1's result submits c3 and
// terminates c2; c3's result finishes the project.
//
// After every event the journal so far is replayed into another core,
// and the checker asks that replay rebuild the live image, journaling and
// queueing nothing of its own; that every command is queued exactly when the
// queue holds it and never leaves a settled status; that the controller hears
// of each command at most once; that no command is retried past its budget;
// that the in-flight charge is zero whenever nothing runs; that every
// running command is on the liveness record of the worker it runs on, and
// every entry on a record runs on that worker unsettled or is marked stop;
// that a worker is told to abort its run at its next heartbeat exactly when
// the run's command is settled; and that a worker whose run was preempted is
// told to abort it at its next heartbeat, unless the command has since been
// handed back to it.
//
// A preempted worker is modelled as stopping at once, free to announce,
// while it still owes the preempted run's abort a hearing: until it hears it
// at a heartbeat, announces idle (so it stopped), reports the run, is
// reaped, or the server restarts (records are not durable).
//
// The clock decides nothing but reaping: the one tenant's commands all have
// one priority, so the queue's starvation order is its FIFO order. Every
// record is refreshed at the clock's current reading, so a world is what
// the records hold, not when they were seen.

const lcRetries = 1 // the retry budget

var lcWorkers = [2]string{"w1", "w2"}

// lcController is the checker's controller. It logs what it hears.
type lcController struct{ heard []string }

func (c *lcController) Name() string { return "test" }

func (c *lcController) Start(ctx controller.Context, _ []byte) error {
	if err := ctx.Submit(cmdSpec("c1")); err != nil {
		return err
	}
	return ctx.Submit(cmdSpec("c2"))
}

func (c *lcController) CommandFinished(ctx controller.Context, res *wire.CommandResult) error {
	c.heard = append(c.heard, "finished "+res.CommandID)
	switch res.CommandID {
	case "c1":
		ctx.Terminate("c2")
		return ctx.Submit(cmdSpec("c3"))
	case "c3":
		ctx.Finish([]byte("done"))
	}
	return nil
}

func (c *lcController) CommandFailed(_ controller.Context, cmd wire.CommandSpec, _ string) error {
	c.heard = append(c.heard, "failed "+cmd.ID)
	return nil
}

// testObs is every testCore's: the checker builds a core per world, and
// registering its series once keeps that cheap.
var testObs = obs.NewWith(obs.Options{TraceCapacity: 64})

// testCore is a Core with no store, on clock, registering newCtl as
// controller "test", with the journal appended to *journal (not kept when
// nil). Nothing in it starts a goroutine.
func testCore(newCtl func() controller.Controller, clock func() time.Time, journal *[]store.Record) *Core {
	reg := controller.NewRegistry()
	reg.Register("test", newCtl)
	h := Hooks{Origin: "bare", Clock: clock}
	if journal != nil {
		h.Stage = func(r store.Record) (uint64, error) {
			*journal = append(*journal, r)
			return uint64(len(*journal)), nil
		}
	}
	return NewCore(reg, Config{Obs: testObs}, h)
}

var lcEpoch = time.Unix(1_000_000_000, 0)

func lcClock() time.Time { return lcEpoch }

// Worker events take label kind*2 + worker; the others follow them.
const (
	eAnnounce = iota
	eCheckpoint
	eOK
	eFail
	eLose
	eLate
	ePreempt
	eRelayed
	eSilent
	eRefill
	eRetried
	nWorkerKinds
	eDuplicate = 2 * nWorkerKinds
	eRestart   = eDuplicate + 1
	nLabels    = eRestart + 1
)

var lcKindNames = [nWorkerKinds]string{"announces", "checkpoints", "returns OK", "reports a failure",
	"is lost", "returns a late OK", "is preempted", "announces by relay", "falls silent past 2×HB",
	"returns OK with a refill", "loses its refill reply and retries the result"}

func describeEvent(l int) string {
	switch l {
	case eDuplicate:
		return "the last OK result is delivered again"
	case eRestart:
		return "the server restarts"
	}
	return lcWorkers[l%2] + " " + lcKindNames[l/2]
}

type lcWorker struct {
	run   string // the command it runs, "" when idle
	ckpt  bool   // it has checkpointed this run
	ghost string // a run taken from it, lost or preempted, whose result may still come
	// evicted is a run preempted from it whose abort it has not yet heard.
	evicted string
}

type lcWorld struct {
	s        *Core
	now      time.Time // the core's clock
	ctl      *lcController
	journal  []store.Record
	w        [2]lcWorker
	last     *wire.CommandResult // the last OK result delivered
	restarts int
	settled  map[string]cmdStatus
}

// core returns a core journaling into w.journal, with the checker's retry
// budget, whose controller, once made, is w.ctl.
func (w *lcWorld) core() *Core {
	c := testCore(func() controller.Controller {
		w.ctl = &lcController{}
		return w.ctl
	}, func() time.Time { return w.now }, &w.journal)
	c.env.retries = lcRetries
	return c
}

func newWorld() *lcWorld {
	w := &lcWorld{now: lcEpoch, settled: make(map[string]cmdStatus)}
	w.s = w.core()
	if _, err := w.s.Submit(&wire.ProjectSubmit{Name: "proj", Controller: "test"}); err != nil {
		panic(err)
	}
	return w
}

// command is the named command's state, nil if the project has none.
func (w *lcWorld) command(id string) *cmdState {
	p := w.s.project("proj")
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.commands[id]
}

func (w *lcWorld) enabled(l int) bool {
	switch l {
	case eDuplicate:
		return w.last != nil
	case eRestart:
		return w.restarts < 1
	}
	k := &w.w[l%2]
	switch l / 2 {
	case eAnnounce:
		return k.run == ""
	case eRelayed:
		return true // while the worker runs, a stale copy
	case eCheckpoint:
		return k.run != "" && !k.ckpt
	case eLate:
		return k.ghost != ""
	case ePreempt:
		// Only a checkpointed run is evictable, as in preemptForStarved.
		cs := w.command(k.run)
		return cs != nil && cs.runningOn(lcWorkers[l%2]) && len(cs.checkpoint) > 0
	}
	return k.run != ""
}

// deliver hands one result message to the core, as the shell does.
func (w *lcWorld) deliver(res *wire.CommandResult) {
	payload, err := wire.Marshal(res)
	if err != nil {
		panic(err)
	}
	w.s.Result(res, payload)
}

// refill asks for res's refill, as the shell does after a result its worker
// sent itself, and returns the commands it assigned.
func (w *lcWorld) refill(res *wire.CommandResult) []wire.CommandSpec {
	wl, _ := w.s.Refill(res)
	return wl.Commands
}

// step runs event l and returns a broken invariant about settled commands,
// which only the path to a world can show.
func (w *lcWorld) step(l int) error {
	switch l {
	case eDuplicate:
		res := *w.last
		w.deliver(&res)
	case eRestart:
		w.restarts++
		recs := slices.Clone(w.journal)
		w.s = w.core()
		w.s.replay(&store.Recovered{Records: recs})
		if len(w.journal) != len(recs) {
			return fmt.Errorf("replay journaled %s", journalLines(w.journal[len(recs):]))
		}
		w.s.reseedQueue()
	default:
		k, name := &w.w[l%2], lcWorkers[l%2]
		ok := &wire.CommandResult{Project: "proj", WorkerID: name, OK: true}
		switch l / 2 {
		case eAnnounce, eRelayed:
			// As the shell serves a direct announce (match, touch, assign) and
			// a relayed one (re-offer or match, assign what it found).
			info := wire.WorkerInfo{ID: name, Platform: "smp", Cores: 1, Executables: []string{"sim"}}
			busy := k.run
			running := busy != "" && w.command(busy).runningOn(name)
			var wl wire.Workload
			if l/2 == eAnnounce {
				wl = w.s.q.Match(info)
				w.s.TouchWorker(info)
				k.evicted = "" // idle: it stopped the run
			} else {
				wl = w.s.matchRelayed(info)
			}
			if len(wl.Commands) > 0 {
				wl = w.s.Assign(info, wl)
			}
			if busy != "" {
				// A stale relayed copy: its home drops the reply, and the
				// worker runs on. The command it runs stays its.
				if running && !w.command(busy).runningOn(name) {
					return fmt.Errorf("a stale relayed announce took %s off %s, which runs it", busy, name)
				}
				break
			}
			for _, cmd := range wl.Commands {
				k.run, k.ckpt = cmd.ID, false
			}
		case eCheckpoint:
			k.ckpt = true
			w.deliver(&wire.CommandResult{Project: "proj", CommandID: k.run, WorkerID: name,
				OK: true, Partial: true, Checkpoint: []byte("half-" + k.run + "-" + name)})
		case eOK:
			ok.CommandID, ok.Output, k.run = k.run, []byte("out"), ""
			w.deliver(ok)
			w.last = ok
		case eRefill, eRetried:
			ok.CommandID, ok.Output, ok.Refill, k.run = k.run, []byte("out"), 1, ""
			w.deliver(ok)
			if l/2 == eRetried {
				w.refill(ok) // its reply is lost; the worker sends the result again
				w.deliver(ok)
			}
			for _, cmd := range w.refill(ok) {
				k.run, k.ckpt = cmd.ID, false
			}
			w.last = ok
		case eFail:
			w.deliver(&wire.CommandResult{Project: "proj", CommandID: k.run, WorkerID: name, Error: "boom"})
			k.run = ""
		case eLose:
			w.s.WorkerFailed(wire.WorkerFailed{WorkerID: name, CommandIDs: []string{k.run}})
			k.ghost, k.run = k.run, ""
		case eSilent:
			// Past two intervals of silence; the other worker, if busy,
			// heartbeats in time.
			w.now = w.now.Add(2*w.s.cfg.HeartbeatInterval + time.Second)
			if other := &w.w[1-l%2]; other.run != "" || other.evicted != "" {
				hb := &wire.Heartbeat{WorkerID: lcWorkers[1-l%2]}
				for _, id := range []string{other.run, other.evicted} {
					if id != "" {
						hb.CommandIDs = append(hb.CommandIDs, id)
					}
				}
				if slices.Contains(w.s.heartbeat(hb).AbortCommandIDs, other.evicted) {
					other.evicted = ""
				}
			}
			w.s.reapDeadWorkers()
			k.ghost, k.run, k.evicted = k.run, "", ""
		case eLate:
			ok.CommandID, ok.Output, k.ghost = k.ghost, []byte("late"), ""
			if ok.CommandID == k.evicted {
				k.evicted = ""
			}
			w.deliver(ok)
			w.last = ok
		case ePreempt:
			// As preemptForStarved evicts.
			p := w.s.project("proj")
			p.mu.Lock()
			w.s.evict(p, p.commands[k.run])
			p.mu.Unlock()
			k.ghost, k.evicted, k.run = k.run, k.run, ""
		}
	}
	for i := range w.w {
		if k := &w.w[i]; k.evicted != "" && (l == eRestart || w.command(k.evicted).runningOn(lcWorkers[i])) {
			k.evicted = "" // forgotten with the records, or handed back
		}
	}
	img := imageOf(w.s)["proj"]
	for id, was := range w.settled {
		if now, ok := img.Commands[id]; !ok || now.Status != was {
			return fmt.Errorf("%s left settled status %d (now %+v, known %v)", id, was, now, ok)
		}
	}
	for id, c := range img.Commands {
		if c.Status >= cmdDone {
			w.settled[id] = c.Status
		}
	}
	return nil
}

// check asserts the invariants a world shows by itself.
func (w *lcWorld) check() error {
	img := imageOf(w.s)["proj"]
	running := false
	for id, c := range img.Commands {
		if queued := c.Status == cmdQueued; queued != w.s.q.Contains(id) {
			return fmt.Errorf("%s has status %d, but in the queue: %v", id, c.Status, !queued)
		}
		if c.Retries > lcRetries {
			return fmt.Errorf("%s retried %d times, over its budget of %d", id, c.Retries, lcRetries)
		}
		if c.Status == cmdRunning && !w.onRecord(c.Worker, id) {
			return fmt.Errorf("%s runs on %s, but is not on its liveness record", id, c.Worker)
		}
		running = running || c.Status == cmdRunning
	}
	if n := w.s.q.InflightCores(""); !running && n != 0 {
		return fmt.Errorf("nothing runs, but %d cores are charged in flight", n)
	}
	for _, name := range lcWorkers {
		for _, id := range []string{"c1", "c2", "c3"} {
			c := img.Commands[id]
			if w.onRecord(name, id) && !w.markedStop(name, id) && (c.Status != cmdRunning || c.Worker != name) {
				return fmt.Errorf("%s is on %s's record unmarked, but has status %d on %q", id, name, c.Status, c.Worker)
			}
		}
	}
	for i, k := range w.w {
		if k.run == "" {
			continue
		}
		ack := w.s.heartbeat(&wire.Heartbeat{WorkerID: lcWorkers[i], CommandIDs: []string{k.run}})
		if aborted, settled := len(ack.AbortCommandIDs) > 0, img.Commands[k.run].Status >= cmdDone; aborted != settled {
			return fmt.Errorf("%s runs %s (status %d): its heartbeat ack aborts it = %v, want %v",
				lcWorkers[i], k.run, img.Commands[k.run].Status, aborted, settled)
		}
	}
	for i, k := range w.w {
		if k.evicted == "" {
			continue
		}
		ack := w.s.heartbeat(&wire.Heartbeat{WorkerID: lcWorkers[i], CommandIDs: []string{k.evicted}})
		if len(ack.AbortCommandIDs) == 0 {
			return fmt.Errorf("%s's run of %s was preempted, but its heartbeat ack does not abort it", lcWorkers[i], k.evicted)
		}
	}
	heard := make(map[string]bool)
	for _, h := range w.ctl.heard {
		_, id, _ := strings.Cut(h, " ")
		if heard[id] {
			return fmt.Errorf("the controller heard of %s twice: %v", id, w.ctl.heard)
		}
		heard[id] = true
	}
	var again []store.Record
	var ctl *lcController
	r := testCore(func() controller.Controller {
		ctl = &lcController{}
		return ctl
	}, lcClock, &again)
	r.env.retries = lcRetries
	r.replay(&store.Recovered{Records: w.journal})
	if len(again) > 0 {
		return fmt.Errorf("replaying the journal journaled %s", journalLines(again))
	}
	if n := r.q.Len(); n > 0 {
		return fmt.Errorf("replaying the journal queued %d commands", n)
	}
	if got, live := fmt.Sprint(imageOf(r)), fmt.Sprint(imageOf(w.s)); got != live {
		return fmt.Errorf("replaying the journal rebuilt\n   %s\n   live is %s", got, live)
	}
	if got := fmt.Sprint(ctl.heard); got != fmt.Sprint(w.ctl.heard) {
		return fmt.Errorf("the replayed controller heard %s, the live one %v", got, w.ctl.heard)
	}
	return nil
}

// onRecord reports whether the command is on the worker's liveness record.
func (w *lcWorld) onRecord(worker, id string) bool {
	w.s.mu.Lock()
	defer w.s.mu.Unlock()
	if ws := w.s.workers[worker]; ws != nil {
		_, on := ws.commands[id]
		return on
	}
	return false
}

// markedStop reports whether the worker's record marks the command stop.
func (w *lcWorld) markedStop(worker, id string) bool {
	w.s.mu.Lock()
	defer w.s.mu.Unlock()
	ws := w.s.workers[worker]
	return ws != nil && ws.commands[id].stop
}

// String renders everything that decides the world's future: the visited
// set hashes it.
func (w *lcWorld) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v heard=%v", imageOf(w.s)["proj"], w.ctl.heard)
	for _, id := range []string{"c1", "c2", "c3"} {
		if w.s.q.Contains(id) {
			b.WriteString(" q:" + id)
		}
	}
	fmt.Fprintf(&b, " inflight=%d workers=%+v restarts=%d", w.s.q.InflightCores(""), w.w, w.restarts)
	for _, name := range lcWorkers {
		var rec []string
		for _, id := range []string{"c1", "c2", "c3"} {
			if w.markedStop(name, id) {
				rec = append(rec, id+"!")
			} else if w.onRecord(name, id) {
				rec = append(rec, id)
			}
		}
		fmt.Fprintf(&b, " %s.record=%v", name, rec)
	}
	if w.last != nil {
		fmt.Fprintf(&b, " last=%s@%s", w.last.CommandID, w.last.WorkerID)
	}
	return b.String()
}

func (w *lcWorld) key() string {
	return w.String() + "\n" + strings.Join(journalLines(w.journal), "\n")
}

// rebuild runs path on a fresh world.
func rebuild(path []int) *lcWorld {
	w := newWorld()
	for _, l := range path {
		if err := w.step(l); err != nil {
			panic("a checked prefix broke: " + err.Error())
		}
	}
	return w
}

// exploreLifecycle checks every order of events up to depth. It returns the
// number of distinct worlds reached and, if an invariant broke, the shortest
// trace to it.
func exploreLifecycle(depth int) (states int, trace []string) {
	seed := maphash.MakeSeed()
	visited := map[uint64]bool{maphash.String(seed, newWorld().key()): true}
	frontier := [][]int{nil}
	for d := 0; d < depth && len(frontier) > 0; d++ {
		var next [][]int
		for _, path := range frontier {
			parent := rebuild(path)
			var labels []int
			for l := range nLabels {
				if parent.enabled(l) {
					labels = append(labels, l)
				}
			}
			for i, l := range labels {
				// The last child steps the parent itself; the others, rebuilds.
				w, child := parent, append(slices.Clone(path), l)
				if i < len(labels)-1 {
					w = rebuild(path)
				}
				err := w.step(l)
				if err == nil {
					err = w.check()
				}
				if err != nil {
					return len(visited), lcTrace(child, err)
				}
				if h := maphash.String(seed, w.key()); !visited[h] {
					visited[h] = true
					next = append(next, child)
				}
			}
		}
		frontier = next
	}
	return len(visited), nil
}

// lcTrace renders the events of path and the world after each.
func lcTrace(path []int, err error) []string {
	w := newWorld()
	trace := []string{"   " + w.String()}
	for i, l := range path {
		w.step(l)
		trace = append(trace, fmt.Sprintf("%2d %s → %s", i+1, describeEvent(l), w))
	}
	return append(trace, "violated: "+err.Error())
}

// lifecycleCheckDepth is the tier-1 depth; CPC_CHECK_DEPTH asks for another.
func lifecycleCheckDepth(t *testing.T) int {
	if s := os.Getenv("CPC_CHECK_DEPTH"); s != "" {
		d, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("CPC_CHECK_DEPTH=%q: %v", s, err)
		}
		return d
	}
	return 6
}

// TestCheckerLifecycle: no order of events up to the depth bound breaks an
// invariant.
func TestCheckerLifecycle(t *testing.T) {
	depth := lifecycleCheckDepth(t)
	start := time.Now()
	states, trace := exploreLifecycle(depth)
	if trace != nil {
		t.Fatalf("counterexample:\n%s", strings.Join(trace, "\n"))
	}
	t.Logf("depth %d: %d worlds, no counterexample (%v)", depth, states, time.Since(start).Round(time.Millisecond))
}
