// The core (see the package comment) imports no transport, starts no
// goroutine and never reads the wall clock: TestCoreIsTransportFree.
package server

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"
	"time"

	"copernicus/internal/controller"
	"copernicus/internal/obs"
	"copernicus/internal/queue"
	"copernicus/internal/store"
	"copernicus/internal/wire"
)

// maxRetries is how many times a command is requeued after worker failures
// before the controller sees a terminal failure.
const maxRetries = 2

// Config tunes a server. Zero values select the defaults noted per field.
type Config struct {
	// HeartbeatInterval is what workers are told to use; a worker is
	// declared dead after missing two intervals (§2.3). Default 120 s.
	HeartbeatInterval time.Duration
	// RelayTimeout is the longest an idle worker's announce is held open
	// waiting for work (a worker that states a shorter budget is held for
	// that), and with it the longest the overlay search on its behalf runs.
	// Default 2 s.
	RelayTimeout time.Duration
	// FSToken identifies the server's filesystem for the shared-FS
	// optimisation; empty disables it.
	FSToken string
	// MaxQueuedTotal bounds the command queue across all tenants; submits
	// beyond it are shed with wire.ErrAdmissionShed. 0 = unlimited.
	MaxQueuedTotal int
	// StarvationAge is how long a queued command may wait before it jumps
	// fair-share order (0 = the queue's 30 s default; negative disables).
	StarvationAge time.Duration
	// PreemptAge is how long a tenant may starve (queued work, nothing
	// running) before the server preempts a checkpointed command of the
	// dominant tenant at its last checkpoint boundary. 0 disables
	// preemption.
	PreemptAge time.Duration
	// WALSlowAppend is the store append-latency EWMA at which WAL
	// backpressure saturates: pressure = AppendLatency/WALSlowAppend,
	// clamped to [0,1] by the queue. Matching sheds entirely once pressure
	// reaches the queue's shed threshold. Only meaningful with Store set.
	// Default 100 ms.
	WALSlowAppend time.Duration
	// Store, when set, makes project state durable: every input and
	// dispatch decision is journaled to its write-ahead log before being
	// acknowledged, and New replays whatever the store recovered (snapshot +
	// WAL tail) before serving traffic, so projects resume across restarts.
	// The server does not own the store; the caller closes it after Close.
	Store *store.Store
	// Obs receives metrics, command-lifecycle spans and structured logs;
	// nil selects a silent obs.New(). Share one bundle across components
	// (as Fabric does) to see full lifecycles in one trace.
	Obs *obs.Obs
}

func (c *Config) fill() {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 120 * time.Second
	}
	if c.RelayTimeout <= 0 {
		c.RelayTimeout = 2 * time.Second
	}
	if c.WALSlowAppend <= 0 {
		c.WALSlowAppend = 100 * time.Millisecond
	}
	if c.Obs == nil {
		c.Obs = obs.New()
	}
}

// Hooks connect a Core to what hosts it: the overlay shell or a simulator.
type Hooks struct {
	Origin   string                             // node ID stamped on the commands controllers submit
	Clock    func() time.Time                   // the core's only time source; required
	Ready    func(first bool)                   // the queue's readiness hook (queue.Config.Ready)
	Pressure func() float64                     // WAL backpressure (queue.Config.Pressure); nil = none
	Stage    func(store.Record) (uint64, error) // writes a journal record; nil = no journal
}

// project is one controller-driven job, changed only by the transitions in
// lifecycle.go, and the Context its controller's handlers are given.
type project struct {
	mu         sync.Mutex
	name       string
	ctrl       controller.Controller
	tenant     string // fair-share account its commands bill to
	priority   int    // base priority commands inherit when they set none
	state      projState
	generation int
	note       string
	result     []byte
	failErr    string
	commands   map[string]*cmdState
	staged     []*cmdState // submitted by the last handler to run; see react
	finished   int
	failed     int
	done       chan struct{}
	seed       uint64
	env        *env
	fx         []effect // the transitions' effects, until the core applies them
}

// workerState is a server's liveness record for a worker that announced to
// it directly or runs commands it holds: only the server that holds a
// command recovers it, so a relayed worker has a record at each origin.
type workerState struct {
	info     wire.WorkerInfo
	lastSeen time.Time
	commands map[string]entry // held here and assigned to the worker
}

// entry is one command on a worker's record, the one source of its aborts:
// it runs there unsettled, or is marked stop (fxStop) for a heartbeat to abort.
type entry struct {
	p      *project
	cores  int
	stop   bool
	refill string // the result whose refill assigned it: a retry says the reply was lost (Refill)
}

// Core is the server's state and every decision it makes about it.
type Core struct {
	reg   *controller.Registry
	cfg   Config
	q     *queue.Queue
	log   *obs.Logger
	met   serverMetrics
	env   env // what the transitions read; every project points here
	stage func(store.Record) (uint64, error)

	mu       sync.Mutex
	projects map[string]*project
	workers  map[string]*workerState

	// park holds the announces of idle workers; see park.go.
	park parking
}

// NewCore builds a core with an empty queue tuned by cfg.
func NewCore(reg *controller.Registry, cfg Config, h Hooks) *Core {
	cfg.fill()
	c := &Core{
		reg:      reg,
		cfg:      cfg,
		log:      cfg.Obs.Log.Named("server").With("node", h.Origin),
		met:      newServerMetrics(cfg.Obs, h.Origin),
		stage:    h.Stage,
		projects: make(map[string]*project),
		workers:  make(map[string]*workerState),
	}
	c.env = env{origin: h.Origin, retries: maxRetries, now: h.Clock, obs: cfg.Obs, met: &c.met}
	c.initParking(h.Origin)
	c.q = queue.NewWithConfig(queue.Config{
		StarvationAge:  cfg.StarvationAge,
		MaxQueuedTotal: cfg.MaxQueuedTotal,
		Pressure:       h.Pressure,
		Clock:          h.Clock,
		Ready:          h.Ready,
	})
	nodeLabel := obs.L("node", h.Origin)
	c.q.SetObs(cfg.Obs, nodeLabel)
	count := func(n func() int) func() float64 {
		return func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(n())
		}
	}
	cfg.Obs.Metrics.GaugeFunc("copernicus_workers", "Workers currently tracked by the heartbeat monitor.",
		nodeLabel, count(func() int { return len(c.workers) }))
	cfg.Obs.Metrics.GaugeFunc("copernicus_projects", "Projects held by this server.",
		nodeLabel, count(func() int { return len(c.projects) }))
	return c
}

// Queue is the core's command queue.
func (c *Core) Queue() *queue.Queue { return c.q }

// --- projects ---

// Submit admits a project through the tenant's quotas and the WAL
// backpressure shed, creates it, and runs its controller's Start handler.
// Rejections carry typed retry classes: wire.ErrAdmissionShed (retryable —
// back off and resubmit) or wire.ErrQuotaExceeded (terminal until the
// tenant's quota or usage changes).
func (c *Core) Submit(sub *wire.ProjectSubmit) (wire.SubmitReceipt, error) {
	if sub.Name == "" {
		return wire.SubmitReceipt{}, fmt.Errorf("server: project needs a name")
	}
	now := c.env.now()
	if sub.DeadlineUnixNano != 0 && now.UnixNano() > sub.DeadlineUnixNano {
		// The client has already given up on this attempt; refuse instead of
		// starting work nobody is waiting for. Retryable: a fresh attempt
		// carries a fresh deadline.
		c.met.admissionReject.Inc()
		return wire.SubmitReceipt{}, fmt.Errorf("server: project %q arrived %.1fs after its submit deadline: %w",
			sub.Name, time.Duration(now.UnixNano()-sub.DeadlineUnixNano).Seconds(), wire.ErrAdmissionShed)
	}
	if err := c.q.CheckStorage(sub.Tenant, int64(len(sub.Params))); err != nil {
		c.met.admissionReject.Inc()
		return wire.SubmitReceipt{}, fmt.Errorf("server: admitting project %q: %w", sub.Name, err)
	}
	p, err := c.publish(sub)
	if err != nil {
		return wire.SubmitReceipt{}, err
	}
	defer p.mu.Unlock()
	// A quota or shed refusal of Start's batch withdraws the project whole:
	// nothing durable or matchable, the name free for the client's retry.
	err = start(p, sub)
	refusal := c.apply(p)
	switch {
	case withdraws(refusal):
		c.mu.Lock()
		delete(c.projects, sub.Name)
		c.mu.Unlock()
		c.met.admissionReject.Inc()
		return wire.SubmitReceipt{}, fmt.Errorf("server: admitting project %q: %w", sub.Name, refusal)
	case err != nil || refusal != nil:
		return wire.SubmitReceipt{}, fmt.Errorf("server: starting project %q: %w", sub.Name, errors.Join(err, refusal))
	}
	c.log.Info("project started", "project", sub.Name,
		"controller", sub.Controller, "tenant", sub.Tenant)
	return wire.SubmitReceipt{Project: sub.Name, Tenant: sub.Tenant, Server: c.env.origin,
		AcceptedUnixNano: now.UnixNano()}, nil
}

// publish adds a new project, live or replayed, and returns it locked until
// its start transition's effects are applied. That keeps the snapshot
// protocol safe: a capture that sees the project waits on p.mu for the
// submission record and commits it before publishing; one that scanned
// before the publish rotated before it too, and replays the record on top.
func (c *Core) publish(sub *wire.ProjectSubmit) (*project, error) {
	ctrl, err := c.reg.New(sub.Controller)
	if err != nil {
		return nil, err
	}
	p := &project{
		name:     sub.Name,
		ctrl:     ctrl,
		tenant:   sub.Tenant,
		priority: sub.Priority,
		state:    projRunning,
		commands: make(map[string]*cmdState),
		done:     make(chan struct{}),
		seed:     seedFromName(sub.Name),
		env:      &c.env,
	}
	p.mu.Lock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.projects[sub.Name]; dup {
		p.mu.Unlock()
		return nil, fmt.Errorf("server: project %q already exists", sub.Name)
	}
	c.projects[sub.Name] = p
	return p, nil
}

// seedFromName derives a stable project seed.
func seedFromName(name string) uint64 {
	var h uint64 = 1469598103934665603 // FNV offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// Project returns a snapshot of a project's status.
func (c *Core) Project(name string) (wire.ProjectStatus, bool) {
	p := c.project(name)
	if p == nil {
		return wire.ProjectStatus{}, false
	}
	return status(p), true
}

// Done is closed when the named project finishes or fails; nil if this core
// does not hold it.
func (c *Core) Done(name string) <-chan struct{} {
	if p := c.project(name); p != nil {
		return p.done
	}
	return nil
}

// status reads a project's status under its lock.
func status(p *project) wire.ProjectStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := wire.ProjectStatus{
		Name:       p.name,
		Controller: p.ctrl.Name(),
		Tenant:     p.tenant,
		State:      string(p.state),
		Generation: p.generation,
		Note:       p.note,
		Finished:   p.finished,
		Failed:     p.failed,
		Result:     p.result,
	}
	if p.failErr != "" {
		st.Note = p.failErr
	}
	for _, c := range p.commands {
		switch c.status {
		case cmdQueued:
			st.Queued++
		case cmdRunning:
			st.Running++
		}
	}
	// Plugin-specific live status (e.g. repex exchange acceptance rates).
	// p.mu is held, which is the same exclusion the event handlers run under.
	if insp, ok := p.ctrl.(controller.Inspectable); ok {
		if blob, err := insp.Inspect(); err == nil {
			st.Detail = blob
		}
	}
	return st
}

// project returns the named project, nil if this core does not hold it.
func (c *Core) project(name string) *project {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.projects[name]
}

// projectList returns the projects held, for callers that visit each under
// its own lock without holding c.mu across the visit.
func (c *Core) projectList() []*project {
	c.mu.Lock()
	defer c.mu.Unlock()
	ps := make([]*project, 0, len(c.projects))
	for _, p := range c.projects {
		ps = append(ps, p)
	}
	return ps
}

// command finds the command a record or message names (p.mu held). An older
// build's log, spool or worker names a bundled controller's command bare; it
// is re-submitted on replay, and runs now, as <project>/<id>.
func (p *project) command(id string) *cmdState {
	if cs := p.commands[id]; cs != nil {
		return cs
	}
	return p.commands[p.name+"/"+id]
}

// onCommand runs f, under p's lock, on p's command called id if it has one,
// applies the effects of the transitions it ran, and returns what f returns.
func (c *Core) onCommand(p *project, id string, f func(*project, *cmdState) bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	defer c.apply(p)
	cs := p.command(id)
	return cs != nil && f(p, cs)
}

// forCommand is onCommand on each project until f hits: for IDs on no record.
func (c *Core) forCommand(id string, f func(*project, *cmdState) bool) bool {
	for _, p := range c.projectList() {
		if c.onCommand(p, id, f) {
			return true
		}
	}
	return false
}

// --- worker traffic ---

// Assign hands a matched or re-offered workload, direct or relayed, to the
// announcing worker: the assignments are journaled and added to the worker's
// record, created if need be, before the reply leaves. The reply can be
// lost; the worker's next announce that reaches this server, or its
// silence, then recovers the commands.
func (c *Core) Assign(info wire.WorkerInfo, wl wire.Workload) wire.Workload {
	return c.assign(info, wl, "")
}

// assign is Assign, for the refill of result refill if that is not "".
func (c *Core) assign(info wire.WorkerInfo, wl wire.Workload, refill string) wire.Workload {
	wl.HeartbeatSeconds = c.cfg.HeartbeatInterval.Seconds()
	wl.SharedFS = c.cfg.FSToken != "" && c.cfg.FSToken == info.FSToken
	c.mu.Lock()
	c.record(info)
	c.mu.Unlock()
	for _, cmd := range wl.Commands {
		if p := c.project(cmd.Project); p != nil {
			p.mu.Lock()
			if cs := p.command(cmd.ID); cs != nil {
				assigned(p, cs, info.ID, wl.Cores[cmd.ID])
				c.apply(p)
				if cs.runningOn(info.ID) { // else settled before it could be assigned
					c.mu.Lock() // on the record before p.mu is let go, for fxStop to mark
					c.record(info).commands[cs.spec.ID] = entry{p: p, cores: wl.Cores[cmd.ID], refill: refill}
					c.mu.Unlock()
				}
			}
			p.mu.Unlock()
		}
	}
	return wl
}

// take removes command id from the record, which may be nil, and returns it.
func (ws *workerState) take(id string) (en entry) {
	if ws != nil {
		en = ws.commands[id]
		delete(ws.commands, id)
	}
	return en
}

// record returns the worker's record, created if need be, refreshed by info.
func (c *Core) record(info wire.WorkerInfo) *workerState {
	ws := c.workers[info.ID]
	if ws == nil {
		ws = &workerState{commands: make(map[string]entry)}
		c.workers[info.ID] = ws
	}
	ws.info, ws.lastSeen = info, c.env.now()
	return ws
}

// reoffer answers a relayed announce with the commands still running on the
// worker's record here, as they were assigned. A relayed copy, unlike a
// direct announce, cannot prove the worker idle: its home may send several
// for one parked worker, and one can arrive after another's workload was
// delivered. So nothing is requeued: a worker that never got the commands
// takes them now, and the home of one that runs them drops the reply.
func (c *Core) reoffer(info wire.WorkerInfo) wire.Workload {
	var held map[string]entry
	c.mu.Lock()
	if ws := c.workers[info.ID]; ws != nil {
		held = maps.Clone(ws.commands)
	}
	c.mu.Unlock()
	wl := wire.Workload{Cores: make(map[string]int)}
	for id, en := range held {
		c.onCommand(en.p, id, func(_ *project, cs *cmdState) bool {
			if cs.runningOn(info.ID) { // so not marked stop
				wl.Commands, wl.Cores[id] = append(wl.Commands, cs.resumable()), en.cores
			}
			return true
		})
	}
	if len(wl.Commands) > 0 {
		c.met.orphaned.Inc()
		c.log.Info("re-offering a worker's record to its relayed announce", "worker", info.ID, "commands", len(wl.Commands))
	}
	return wl
}

// TouchWorker is a direct announce's liveness update: it applies the
// announce to the worker's record, creating it if need be. Its host calls it
// after Announce's match, outside the parking lock. A worker announces only
// once it holds no run (worker.Core.Idle), so commands still on its record
// are orphans — their workload reply was lost — and are requeued at once.
func (c *Core) TouchWorker(info wire.WorkerInfo) {
	c.mu.Lock()
	ws := c.record(info)
	orphans := ws.commands
	ws.commands = make(map[string]entry)
	c.mu.Unlock()
	c.lost(info.ID, orphans, c.met.orphaned, "recovering commands orphaned by idle re-announce")
}

// workerInfos returns the worker liveness records, sorted by ID.
func (c *Core) workerInfos() []wire.WorkerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]wire.WorkerInfo, 0, len(c.workers))
	for _, ws := range c.workers {
		out = append(out, ws.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Result ingests a finished, failed or partial command result at the project
// server — the ingest transition, under the project lock — journaling it as
// encoded.
func (c *Core) Result(res *wire.CommandResult, encoded []byte) ([]byte, error) {
	p := c.project(res.Project)
	if p == nil {
		return nil, fmt.Errorf("server: project %q not held here", res.Project)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	reply, err := ingest(p, res, encoded)
	if refusal := c.apply(p); refusal != nil && err == nil {
		// The controller's reply to the result was refused: so is the result.
		reply, err = nil, refusal
	}
	return reply, err
}

// Refill answers a final OK result that asks, by its worker itself, for the
// cores its run freed to be filled: the queue is matched for res.Refill
// cores as the worker's announce would be, from the worker's record, and
// what it takes is assigned. It never parks. ok is false, and nothing
// happens, unless the command is done here and the worker has a record.
//
// A retried result means the reply to the first never reached the worker:
// what that refill assigned and is still on the record is requeued first, as
// an idle announce requeues orphans. And a refill takes nothing while a wider
// command waits that the worker could run on all its cores, so the worker
// drains to an idle announce that offers them.
func (c *Core) Refill(res *wire.CommandResult) (wl wire.Workload, ok bool) {
	p := c.project(res.Project)
	if p == nil || !res.OK || res.Partial || res.Refill <= 0 {
		return wl, false
	}
	done := c.onCommand(p, res.CommandID, func(_ *project, cs *cmdState) bool { return cs.status == cmdDone })
	c.mu.Lock()
	ws := c.workers[res.WorkerID]
	if !done || ws == nil {
		c.mu.Unlock()
		return wl, false
	}
	info, stranded := ws.info, make(map[string]entry)
	for id, en := range ws.commands {
		if en.refill == res.CommandID {
			stranded[id] = ws.take(id)
		}
	}
	c.mu.Unlock()
	c.lost(res.WorkerID, stranded, c.met.orphaned, "recovering commands whose refill reply was lost")
	offer := info
	offer.Cores = min(res.Refill, info.Cores)
	c.park.mu.Lock()
	if !c.q.Wider(offer.Cores, info.Cores) {
		wl = c.q.Match(offer)
	}
	c.park.mu.Unlock()
	return c.assign(info, wl, res.CommandID), true
}

// --- heartbeats and failure recovery ---

// heartbeat refreshes the worker's record, if this server keeps one, and
// aborts the named commands it marks stop (preempted, terminated, settled by
// another's report), off the record so its silence loses none. A worker
// heartbeats its home and each other origin of its workload.
func (c *Core) heartbeat(hb *wire.Heartbeat) (ack wire.HeartbeatAck) {
	c.met.heartbeats.Inc()
	var unknown []string
	c.mu.Lock()
	ws := c.workers[hb.WorkerID]
	if ws == nil {
		ws = &workerState{} // none kept here: nothing to refresh or delete
	}
	ws.lastSeen = c.env.now()
	for _, id := range hb.CommandIDs {
		if en, on := ws.commands[id]; !on {
			unknown = append(unknown, id)
		} else if en.stop {
			ack.AbortCommandIDs = append(ack.AbortCommandIDs, id)
			ws.take(id)
		}
	}
	c.mu.Unlock()
	// On no record here (a restart, a reaped worker, a bare ID): abort if settled.
	for _, id := range unknown {
		if c.forCommand(id, func(_ *project, cs *cmdState) bool { return cs.settled() }) {
			ack.AbortCommandIDs = append(ack.AbortCommandIDs, id)
		}
	}
	return ack
}

// reapDeadWorkers forgets the workers silent for two heartbeat intervals and
// requeues (or, their budget spent, fails) the commands they held here. An
// idle worker going quiet needs no recovery: it left, or will re-announce.
func (c *Core) reapDeadWorkers() {
	cutoff := c.env.now().Add(-2 * c.cfg.HeartbeatInterval)
	victims := make(map[string]map[string]entry)
	c.mu.Lock()
	for id, ws := range c.workers {
		if ws.lastSeen.Before(cutoff) {
			delete(c.workers, id)
			victims[id] = ws.commands
		}
	}
	c.mu.Unlock()
	for id, commands := range victims {
		c.lost(id, commands, c.met.heartbeatMisses, "worker missed heartbeats, recovering commands")
	}
}

// preemptForStarved evicts one running command at its last checkpoint when a
// tenant has starved past cfg.PreemptAge (queued work, nothing running) while
// another dominates the fleet's cores. One per monitor tick, so nobody
// mass-evicts the fleet.
func (c *Core) preemptForStarved() {
	if c.cfg.PreemptAge <= 0 {
		return
	}
	starved, ok := c.q.Starved(c.cfg.PreemptAge)
	if !ok {
		return
	}
	victim, cores, ok := c.q.DominantTenant(starved)
	if !ok {
		return
	}
	for _, p := range c.projectList() {
		p.mu.Lock()
		for id, cs := range p.commands {
			// Only the victim's checkpointed commands are evictable: without a
			// checkpoint the whole run is thrown away, worse for the fleet
			// than the starved tenant waiting one more tick.
			if p.tenant != victim || p.state != projRunning || cs.status != cmdRunning || len(cs.checkpoint) == 0 {
				continue
			}
			c.log.Info("preempted at checkpoint boundary for starved tenant", "cmd", id,
				"worker", cs.worker, "victim_tenant", victim, "victim_cores", cores, "starved_tenant", starved)
			c.evict(p, cs)
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
	}
}

// evict requeues cs, running and checkpointed, from its checkpoint for a
// starved tenant; its worker's record marks it stop, for that worker alone.
func (c *Core) evict(p *project, cs *cmdState) {
	requeue(p, cs, store.Record{Type: store.RecCommandPreempted, Project: p.name,
		Command: cs.spec.ID, Worker: cs.worker, Tenant: p.tenant, Count: cs.preempts + 1})
	c.apply(p)
}

// lost requeues or fails, in ID order, the commands taken off a worker's
// record not marked stop, if any, counting the loss on count and logging why.
func (c *Core) lost(worker string, commands map[string]entry, count *obs.Counter, why string) {
	ids := make([]string, 0, len(commands))
	for id, en := range commands {
		if !en.stop {
			ids = append(ids, id)
		}
	}
	if len(ids) > 0 {
		count.Inc()
		c.log.Warn(why, "worker", worker, "commands", len(ids))
	}
	sort.Strings(ids)
	for _, id := range ids {
		c.onCommand(commands[id].p, id, func(p *project, cs *cmdState) bool { return requeueOrFail(p, cs, worker, "") })
	}
}

// WorkerFailed requeues (from the last checkpoint) or terminally fails the
// commands a dead worker was running, taking them off its record: the
// simulated fleet's kills, and the report a home server older than the
// per-origin heartbeat sends for a relayed command.
func (c *Core) WorkerFailed(wf wire.WorkerFailed) {
	lose := func(p *project, cs *cmdState) bool { return requeueOrFail(p, cs, wf.WorkerID, "") }
	for _, id := range wf.CommandIDs {
		c.mu.Lock()
		en := c.workers[wf.WorkerID].take(id)
		c.mu.Unlock()
		if en.p != nil {
			c.onCommand(en.p, id, lose)
		} else {
			c.forCommand(id, lose)
		}
	}
}

// setQuota applies a weight/quota update and journals it, so it survives
// restarts and ships to standbys.
func (c *Core) setQuota(upd *wire.TenantQuotaUpdate) (wire.TenantStatus, error) {
	if upd.Tenant == "" {
		return wire.TenantStatus{}, fmt.Errorf("server: tenant quota update needs a tenant ID")
	}
	data, err := wire.Marshal(upd)
	if err != nil {
		return wire.TenantStatus{}, err
	}
	st := c.q.SetQuota(*upd)
	c.journal(store.Record{Type: store.RecTenantQuota, Tenant: upd.Tenant, Data: data})
	c.log.Info("tenant quota updated", "tenant", upd.Tenant, "weight", st.Weight,
		"max_queued", st.MaxQueued, "max_cores", st.MaxCores, "max_storage_bytes", st.MaxStorageBytes)
	return st, nil
}

// serverMetrics are the control-plane series the core maintains.
type serverMetrics struct {
	submitted       *obs.Counter
	finished        *obs.Counter
	failed          *obs.Counter
	requeued        *obs.Counter
	duplicates      *obs.Counter
	orphaned        *obs.Counter
	heartbeats      *obs.Counter
	heartbeatMisses *obs.Counter
	preempted       *obs.Counter
	admissionReject *obs.Counter
	dispatchLatency *obs.Histogram
	controllerTime  *obs.Histogram
	resultBytes     *obs.Histogram
}

// dispatchBuckets cover queue waits from sub-millisecond (in-process
// fabrics) to minutes (batch deployments).
var dispatchBuckets = []float64{.001, .005, .01, .05, .1, .5, 1, 5, 10, 30, 60, 120, 300}

// newServerMetrics registers the server's series, labelled by node ID so
// several servers can share one registry (as Fabric deployments do)
// without their series colliding.
func newServerMetrics(o *obs.Obs, nodeID string) serverMetrics {
	m := o.Metrics
	node := obs.L("node", nodeID)
	return serverMetrics{
		submitted: m.Counter("copernicus_commands_submitted_total",
			"Commands submitted by controllers.", node),
		finished: m.Counter("copernicus_commands_finished_total",
			"Commands completed successfully.", node),
		failed: m.Counter("copernicus_commands_failed_total",
			"Commands that failed terminally after exhausting retries.", node),
		requeued: m.Counter("copernicus_commands_requeued_total",
			"Commands requeued after a worker loss (checkpoint hand-off).", node),
		duplicates: m.Counter("copernicus_results_duplicate_total",
			"Redelivered results ignored because the command was already settled.", node),
		orphaned: m.Counter("copernicus_commands_orphaned_total",
			"Assigned commands recovered because their workload reply never reached the worker.", node),
		heartbeats: m.Counter("copernicus_heartbeats_total",
			"Worker heartbeats received.", node),
		heartbeatMisses: m.Counter("copernicus_heartbeat_misses_total",
			"Workers declared dead after missing two heartbeat intervals.", node),
		preempted: m.Counter("copernicus_preemptions_total",
			"Running commands preempted at a checkpoint boundary for a starved tenant.", node),
		admissionReject: m.Counter("copernicus_submit_rejects_total",
			"Project submissions refused by admission control (quota, shed, deadline).", node),
		dispatchLatency: m.Histogram("copernicus_dispatch_latency_seconds",
			"Queue wait between command submission and worker assignment.",
			dispatchBuckets, node),
		controllerTime: m.Histogram("copernicus_controller_reaction_seconds",
			"Time controllers spend reacting to a finished command.", nil, node),
		resultBytes: m.Histogram("copernicus_result_bytes",
			"Uploaded result payload sizes.", obs.SizeBuckets(), node),
	}
}
