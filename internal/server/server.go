// Package server implements the Copernicus server: the symmetric overlay
// participant of §2 that holds projects, queues commands, matches workloads
// to announcing workers, relays for workers it cannot serve, monitors
// heartbeats, and drives controller plugins as commands complete. Whether it
// acts as a project server or as a relay on a cluster head node depends only
// on the projects it holds and its links: the paper's "fully symmetric"
// architecture.
//
// This file holds the protocol handlers; what they do to a command or a
// project is in lifecycle.go, and how it is made durable in persist.go.
package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"copernicus/internal/controller"
	"copernicus/internal/obs"
	"copernicus/internal/overlay"
	"copernicus/internal/queue"
	"copernicus/internal/retry"
	"copernicus/internal/store"
	"copernicus/internal/wire"
)

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
	// MaxRetries is how many times a command is requeued after worker
	// failures before the controller sees a terminal failure. Default 2.
	MaxRetries int
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
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.WALSlowAppend <= 0 {
		c.WALSlowAppend = 100 * time.Millisecond
	}
	if c.Obs == nil {
		c.Obs = obs.New()
	}
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
	fx         []effect // the transitions' effects, until the server applies them
}

// workerState is the home server's liveness record for a worker.
type workerState struct {
	info     wire.WorkerInfo
	lastSeen time.Time
	// commands the worker is running, mapped to the Origin server each
	// belongs to, learned from relayed workloads.
	commands map[string]string
}

// Server is a Copernicus server node.
type Server struct {
	node  *overlay.Node
	reg   *controller.Registry
	cfg   Config
	q     *queue.Queue
	rpol  retry.Policy
	log   *obs.Logger
	met   serverMetrics
	trace *obs.Tracer
	env   env // what the transitions read; every project points here
	// stage writes a journal record: the store's Stage, nil without a store.
	stage func(store.Record) (uint64, error)

	mu       sync.Mutex
	projects map[string]*project
	workers  map[string]*workerState
	// preempted holds command IDs evicted by fair-share preemption whose
	// old worker has not yet been told to abort (via heartbeat ack).
	preempted map[string]struct{}

	// park holds the announces of idle workers; see park.go.
	park parking

	// closeMu/closing gate goAsync against Close: handlers can still fire
	// while Close drains, and a WaitGroup must not be Add-ed during Wait.
	closeMu sync.Mutex
	closing bool

	// snapshotting serialises background snapshot captures.
	snapshotting atomic.Bool

	// stop ends the background loops; ctx is cancelled with it and bounds the
	// overlay searches run for parked workers.
	stop   chan struct{}
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// serverMetrics are the control-plane series the server maintains.
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

// New wires a server onto an overlay node. The node should already be
// listening; New registers the protocol handlers and starts the heartbeat
// monitor.
func New(node *overlay.Node, reg *controller.Registry, cfg Config) *Server {
	cfg.fill()
	s := &Server{
		node:      node,
		reg:       reg,
		cfg:       cfg,
		log:       cfg.Obs.Log.Named("server").With("node", node.ID()),
		met:       newServerMetrics(cfg.Obs, node.ID()),
		trace:     cfg.Obs.Trace,
		projects:  make(map[string]*project),
		workers:   make(map[string]*workerState),
		preempted: make(map[string]struct{}),
		stop:      make(chan struct{}),
	}
	s.env = env{origin: node.ID(), maxRetries: cfg.MaxRetries, now: time.Now, obs: cfg.Obs, met: &s.met}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.initParking()
	qcfg := queue.Config{
		StarvationAge:  cfg.StarvationAge,
		MaxQueuedTotal: cfg.MaxQueuedTotal,
		Ready:          s.queueReady,
	}
	if cfg.Store != nil {
		// WAL-aware backpressure: the store's append-latency EWMA, normalised
		// by the slow-append threshold, throttles matching and admission.
		st, slow := cfg.Store, cfg.WALSlowAppend.Seconds()
		qcfg.Pressure = func() float64 { return st.AppendLatency() / slow }
		s.stage = st.Stage
	}
	s.q = queue.NewWithConfig(qcfg)
	// Overlay requests the server makes on its own behalf (work searches,
	// upstream worker-failure reports): package-default backoff, each
	// attempt bounded by RelayTimeout.
	s.rpol = retry.Policy{PerAttempt: cfg.RelayTimeout, Obs: cfg.Obs, Scope: node.ID()}
	nodeLabel := obs.L("node", node.ID())
	s.q.SetObs(cfg.Obs, nodeLabel)
	cfg.Obs.Metrics.GaugeFunc("copernicus_workers",
		"Workers currently tracked by the heartbeat monitor.", nodeLabel,
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.workers))
		})
	cfg.Obs.Metrics.GaugeFunc("copernicus_projects",
		"Projects held by this server.", nodeLabel,
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.projects))
		})
	// Replay recovered durable state before any handler can observe or
	// mutate it: projects resume, the queue is re-seeded, and commands that
	// were assigned but never resolved are requeued as orphans.
	if cfg.Store != nil {
		s.recoverFromStore()
	}
	node.Handle(wire.MsgSubmit, s.handleSubmit)
	node.Handle(wire.MsgAnnounce, s.handleAnnounce)
	node.Handle(wire.MsgResult, s.handleResult)
	node.Handle(wire.MsgFrameChunk, handleFrameChunk)
	node.Handle(wire.MsgHeartbeat, s.handleHeartbeat)
	node.Handle(wire.MsgStatus, s.handleStatus)
	node.Handle(wire.MsgWorkerFailed, s.handleWorkerFailed)
	node.Handle(wire.MsgWorkAvailable, s.handleWorkAvailable)
	node.Handle(wire.MsgTenantList, s.handleTenantList)
	node.Handle(wire.MsgTenantQuotaGet, s.handleTenantQuotaGet)
	node.Handle(wire.MsgTenantQuotaSet, s.handleTenantQuotaSet)
	node.Handle(wire.MsgPing, func(_ string, p []byte) ([]byte, error) { return p, nil })
	s.wg.Add(2)
	go s.monitorHeartbeats()
	go s.runDispatcher()
	return s
}

// Node returns the underlying overlay node.
func (s *Server) Node() *overlay.Node { return s.node }

// QueueLen reports the number of commands waiting for workers.
func (s *Server) QueueLen() int { return s.q.Len() }

// Close stops the heartbeat monitor and the dispatcher, answers every parked
// announce (empty) and waits for background work (snapshot captures, failure
// reports; overlay searches are cancelled). The overlay node is left to its
// owner.
func (s *Server) Close() {
	s.closeMu.Lock()
	s.closing = true
	s.closeMu.Unlock()
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	s.cancel()
	s.releaseParked()
	s.wg.Wait()
}

// goAsync runs f on a tracked goroutine, or reports false when the server
// is closing (handlers can observe a closing server; their background
// work is simply dropped).
func (s *Server) goAsync(f func()) bool {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closing {
		return false
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		f()
	}()
	return true
}

// --- project lifecycle ---

// handleSubmit admits a project through the tenant's quotas and the WAL
// backpressure shed, creates it, and runs its controller's Start handler.
// Rejections carry typed retry classes: wire.ErrAdmissionShed (retryable —
// back off and resubmit) or wire.ErrQuotaExceeded (terminal until the
// tenant's quota or usage changes).
func (s *Server) handleSubmit(from string, payload []byte) ([]byte, error) {
	var sub wire.ProjectSubmit
	if err := wire.Unmarshal(payload, &sub); err != nil {
		return nil, err
	}
	if sub.Name == "" {
		return nil, fmt.Errorf("server: project needs a name")
	}
	now := time.Now()
	if sub.DeadlineUnixNano != 0 && now.UnixNano() > sub.DeadlineUnixNano {
		// The client has already given up on this attempt; refuse instead of
		// starting work nobody is waiting for. Retryable: a fresh attempt
		// carries a fresh deadline.
		s.met.admissionReject.Inc()
		return nil, fmt.Errorf("server: project %q arrived %.1fs after its submit deadline: %w",
			sub.Name, time.Duration(now.UnixNano()-sub.DeadlineUnixNano).Seconds(), wire.ErrAdmissionShed)
	}
	if err := s.q.CheckStorage(sub.Tenant, int64(len(sub.Params))); err != nil {
		s.met.admissionReject.Inc()
		return nil, fmt.Errorf("server: admitting project %q: %w", sub.Name, err)
	}
	err := s.startProject(&sub)
	s.commit()
	if err != nil {
		return nil, err
	}
	s.log.Info("project started", "project", sub.Name,
		"controller", sub.Controller, "tenant", sub.Tenant)
	return wire.Marshal(&wire.SubmitReceipt{
		Project:          sub.Name,
		Tenant:           sub.Tenant,
		Server:           s.node.ID(),
		AcceptedUnixNano: now.UnixNano(),
	})
}

// startProject publishes an admitted project and runs its start transition;
// the caller commits. A quota or shed refusal of Start's batch withdraws it
// whole: nothing durable or matchable, the name free for the client's retry.
func (s *Server) startProject(sub *wire.ProjectSubmit) error {
	p, err := s.publish(sub)
	if err != nil {
		return err
	}
	defer p.mu.Unlock()
	err = start(p, sub)
	refusal := s.apply(p)
	switch {
	case withdraws(refusal):
		s.mu.Lock()
		delete(s.projects, sub.Name)
		s.mu.Unlock()
		s.met.admissionReject.Inc()
		return fmt.Errorf("server: admitting project %q: %w", sub.Name, refusal)
	case err != nil || refusal != nil:
		return fmt.Errorf("server: starting project %q: %w", sub.Name, errors.Join(err, refusal))
	}
	return nil
}

// publish adds a new project, live or replayed, and returns it locked until
// its start transition's effects are applied. That keeps the snapshot
// protocol safe: a capture that sees the project waits on p.mu for the
// submission record and commits it before publishing; one that scanned
// before the publish rotated before it too, and replays the record on top.
func (s *Server) publish(sub *wire.ProjectSubmit) (*project, error) {
	ctrl, err := s.reg.New(sub.Controller)
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
		env:      &s.env,
	}
	p.mu.Lock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.projects[sub.Name]; dup {
		p.mu.Unlock()
		return nil, fmt.Errorf("server: project %q already exists", sub.Name)
	}
	s.projects[sub.Name] = p
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
func (s *Server) Project(name string) (wire.ProjectStatus, bool) {
	p := s.project(name)
	if p == nil {
		return wire.ProjectStatus{}, false
	}
	return s.status(p), true
}

// ProjectNames returns the names of every project this server holds. A
// promoted standby announces these on the overlay so workers and clients
// redirect to the new owner.
func (s *Server) ProjectNames() (names []string) {
	for _, p := range s.projectList() {
		names = append(names, p.name)
	}
	return names
}

// WaitProject blocks until the named project finishes or fails, or ctx is
// done. Bound the wait with context.WithTimeout (or use the fabric/client
// helpers, which do).
func (s *Server) WaitProject(ctx context.Context, name string) (wire.ProjectStatus, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p := s.project(name)
	if p == nil {
		return wire.ProjectStatus{}, fmt.Errorf("server: unknown project %q", name)
	}
	select {
	case <-p.done:
	case <-ctx.Done():
		return wire.ProjectStatus{}, fmt.Errorf("server: project %q still running: %w", name, ctx.Err())
	}
	return s.status(p), nil
}

// status reads a project's status under its lock. A terminal state is a
// promise the project will not run again, so it is only reported once the
// record whose replay ends the project again is durable.
func (s *Server) status(p *project) wire.ProjectStatus {
	p.mu.Lock()
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
	p.mu.Unlock()
	if projState(st.State) != projRunning {
		s.commit()
	}
	return st
}

// handleStatus serves monitoring queries.
func (s *Server) handleStatus(from string, payload []byte) ([]byte, error) {
	var req wire.ProjectStatusRequest
	if err := wire.Unmarshal(payload, &req); err != nil {
		return nil, err
	}
	st, ok := s.Project(req.Name)
	if !ok {
		// Another server may hold it; let the overlay keep looking.
		return nil, overlay.ErrNotHandled
	}
	return wire.Marshal(&st)
}

// --- worker traffic ---

// handleAnnounce matches a worker to queued commands. A relayed announce —
// another server searching for its worker — is matched or declined, so the
// overlay carries it on to "the first server with available commands". A
// direct announce that misses is parked (park.go) until a queue event, the
// overlay search for it, or the end of its hold: never while work waits.
func (s *Server) handleAnnounce(from string, payload []byte) ([]byte, error) {
	var req wire.AnnounceRequest
	if err := wire.Unmarshal(payload, &req); err != nil {
		return nil, err
	}
	if req.Relayed {
		if from == s.node.ID() {
			// Our own search, passing through on its way out: the direct
			// announce it copies has just missed here.
			return nil, overlay.ErrNotHandled
		}
		wl := s.matchRelayed(req.Info)
		if len(wl.Commands) == 0 {
			return nil, overlay.ErrNotHandled
		}
		return s.assign(req.Info, wl, false)
	}
	wl, w := s.matchOrPark(from, &req)
	if w != nil {
		s.recoverOrphans(req.Info.ID, s.touchWorker(req.Info))
		s.search(w)
		s.await(w)
		if w.outcome == parkRelayed {
			return w.reply, nil
		}
		wl = w.wl
	}
	if len(wl.Commands) == 0 {
		// Nothing anywhere: empty workload, the worker announces again.
		return wire.Marshal(&wire.Workload{HeartbeatSeconds: s.cfg.HeartbeatInterval.Seconds()})
	}
	return s.assign(req.Info, wl, true)
}

// assign hands a matched workload to the announcing worker: the assignments
// are recorded and journaled, made durable, and only then encoded for the
// reply — on the direct path and on a parked announce's wake alike. A worker
// that announced directly is recorded for heartbeat tracking.
func (s *Server) assign(info wire.WorkerInfo, wl wire.Workload, direct bool) ([]byte, error) {
	wl.HeartbeatSeconds = s.cfg.HeartbeatInterval.Seconds()
	wl.SharedFS = s.cfg.FSToken != "" && s.cfg.FSToken == info.FSToken
	for _, cmd := range wl.Commands {
		s.withProjectCommand(cmd.Project, cmd.ID, func(p *project, cs *cmdState) {
			assigned(p, cs, info.ID, wl.Cores[cmd.ID])
		})
	}
	// A direct announce refreshes the worker's record. A relayed match is
	// noted only for one of our own workers (a record exists), and now, not
	// when the relay reply makes it home: that reply can be lost (a search
	// that raced its deadline), and the worker's next idle announce then
	// recovers the commands as orphans. Another server's worker is noted by
	// its home server, on the reply.
	var orphans map[string]string
	if direct {
		orphans = s.touchWorker(info)
	}
	s.mu.Lock()
	if ws := s.workers[info.ID]; ws != nil {
		for _, cmd := range wl.Commands {
			ws.commands[cmd.ID] = cmd.Origin
		}
	}
	s.mu.Unlock()
	s.recoverOrphans(info.ID, orphans)
	s.commit() // one barrier for every assignment in the workload
	return wire.Marshal(&wl)
}

// recordRelayedWorkload notes each relayed command's origin server, so a
// heartbeat failure is reported there — and, for a workload that came back
// too late to deliver, so the worker's next announce hands it back. The
// announce was open until now, however long ago it parked: the worker's
// liveness record is refreshed, or created again if the reaper took it.
func (s *Server) recordRelayedWorkload(info wire.WorkerInfo, wl *wire.Workload) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ws := s.workers[info.ID]
	if ws == nil {
		ws = &workerState{info: info, commands: make(map[string]string)}
		s.workers[info.ID] = ws
	}
	ws.lastSeen = time.Now()
	for _, cmd := range wl.Commands {
		ws.commands[cmd.ID] = cmd.Origin
	}
}

// touchWorker refreshes (or creates) a directly announcing worker's record.
// A worker announces only once its previous workload is done, so commands
// still on record are orphans — their workload reply was lost on a severed
// link — and are returned for recovery: nobody will run them, and the
// worker's announces keep the reaper away.
func (s *Server) touchWorker(info wire.WorkerInfo) map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ws := s.workers[info.ID]
	if ws == nil {
		ws = &workerState{}
		s.workers[info.ID] = ws
	}
	orphans := ws.commands
	ws.commands = make(map[string]string)
	ws.info = info
	ws.lastSeen = time.Now()
	return orphans
}

// recoverOrphans requeues commands stranded by a lost workload reply. It
// reports asynchronously so the announce reply is not delayed by upstream
// retry budgets.
func (s *Server) recoverOrphans(workerID string, commands map[string]string) {
	if len(commands) == 0 {
		return
	}
	s.met.orphaned.Inc()
	s.log.Warn("recovering commands orphaned by idle re-announce",
		"worker", workerID, "commands", len(commands))
	s.goAsync(func() { s.reportFailed(workerID, commands) })
}

// project returns the named project, nil if this server does not hold it.
func (s *Server) project(name string) *project {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.projects[name]
}

// withProjectCommand runs f under the project lock if both exist, and applies
// the effects of the transitions it ran.
func (s *Server) withProjectCommand(projectName, cmdID string, f func(*project, *cmdState)) {
	if p := s.project(projectName); p != nil {
		p.mu.Lock()
		defer p.mu.Unlock()
		if cs := p.command(cmdID); cs != nil {
			f(p, cs)
			s.apply(p)
		}
	}
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

// projectList returns the projects held, for callers that visit each under
// its own lock without holding s.mu across the visit.
func (s *Server) projectList() []*project {
	s.mu.Lock()
	defer s.mu.Unlock()
	ps := make([]*project, 0, len(s.projects))
	for _, p := range s.projects {
		ps = append(ps, p)
	}
	return ps
}

// forCommand runs f, under the project's lock, on the command called id in
// each project that has one, until f reports that it was the one meant, and
// applies the effects of the transitions it ran.
func (s *Server) forCommand(id string, f func(*project, *cmdState) bool) bool {
	for _, p := range s.projectList() {
		p.mu.Lock()
		cs := p.command(id)
		hit := cs != nil && f(p, cs)
		s.apply(p)
		p.mu.Unlock()
		if hit {
			return true
		}
	}
	return false
}

// handleResult ingests finished, failed or partial command results at the
// project server: the ingest transition, under the project lock.
func (s *Server) handleResult(from string, payload []byte) ([]byte, error) {
	var res wire.CommandResult
	if err := wire.Unmarshal(payload, &res); err != nil {
		return nil, err
	}
	p := s.project(res.Project)
	if p == nil {
		return nil, overlay.ErrNotHandled // maybe another server's project
	}

	// Shared-filesystem path: load the output by reference. A server without
	// an FSToken shares no filesystem with any worker, so a path it is sent
	// names no output of theirs.
	if res.OutputPath != "" && len(res.Output) == 0 {
		if s.cfg.FSToken == "" {
			return nil, fmt.Errorf("server: result for %s names output %s, but this server has no shared filesystem",
				res.CommandID, res.OutputPath)
		}
		data, err := os.ReadFile(res.OutputPath)
		if err != nil {
			return nil, fmt.Errorf("server: reading shared-FS output %s: %w", res.OutputPath, err)
		}
		res.Output = data
		if payload, err = wire.Marshal(&res); err != nil { // journaled with the output
			return nil, err
		}
	}

	p.mu.Lock()
	reply, settledWorker, err := ingest(p, &res, payload)
	if refusal := s.apply(p); refusal != nil && err == nil {
		// The controller's reply to the result was refused: so is the result.
		reply, err = nil, refusal
	}
	p.mu.Unlock()
	// The ack — for a result, a checkpoint, or a controller failure alike —
	// leaves only once what the ingest journaled is durable.
	s.commit()
	s.maybeSnapshot()
	if settledWorker != "" {
		// That worker's run is over: drop it from the worker's record, so its
		// next idle announce is no orphaned workload, and from the preemption
		// abort set (its old worker may finish before the abort reaches it).
		s.mu.Lock()
		if ws := s.workers[settledWorker]; ws != nil {
			delete(ws.commands, res.CommandID)
		}
		delete(s.preempted, res.CommandID)
		s.mu.Unlock()
	}
	return reply, err
}

// handleFrameChunk answers the mid-command frame chunks workers send with
// "ignored" at once. A command's frames reach its controller in the result
// alone; declining instead would send the worker's synchronous emit on an
// anycast search nobody answers, and stall it for the request timeout.
func handleFrameChunk(string, []byte) ([]byte, error) { return []byte("ignored"), nil }

// --- heartbeats and failure recovery ---

// handleHeartbeat refreshes liveness and reports the commands the worker
// should abort: those preempted from it, and those settled here (terminated,
// or finished or failed by another worker's report).
func (s *Server) handleHeartbeat(from string, payload []byte) ([]byte, error) {
	var hb wire.Heartbeat
	if err := wire.Unmarshal(payload, &hb); err != nil {
		return nil, err
	}
	s.met.heartbeats.Inc()
	s.mu.Lock()
	ws := s.workers[hb.WorkerID]
	if ws != nil {
		ws.lastSeen = time.Now()
	}
	s.mu.Unlock()

	var ack wire.HeartbeatAck
	for _, id := range hb.CommandIDs {
		s.mu.Lock()
		_, evicted := s.preempted[id]
		if evicted {
			// Preempted for a starved tenant: the command was requeued from
			// its checkpoint, so the old worker must stop burning cores on it.
			delete(s.preempted, id)
			if ws != nil {
				delete(ws.commands, id)
			}
		}
		s.mu.Unlock()
		if evicted || s.forCommand(id, func(_ *project, cs *cmdState) bool { return cs.settled() }) {
			ack.AbortCommandIDs = append(ack.AbortCommandIDs, id)
		}
	}
	return wire.Marshal(&ack)
}

// monitorHeartbeats declares workers dead after 2× the heartbeat interval
// and triggers command recovery.
func (s *Server) monitorHeartbeats() {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.HeartbeatInterval / 2)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			s.reapDeadWorkers()
			s.preemptForStarved()
		}
	}
}

func (s *Server) reapDeadWorkers() {
	cutoff := time.Now().Add(-2 * s.cfg.HeartbeatInterval)
	victims := make(map[string]map[string]string) // worker ID → its commands
	s.mu.Lock()
	for id, ws := range s.workers {
		if !ws.lastSeen.Before(cutoff) {
			continue
		}
		delete(s.workers, id)
		// An idle worker (nothing assigned) going quiet needs no recovery:
		// it either left or will re-announce. Only report workers that held
		// commands.
		if len(ws.commands) > 0 {
			victims[id] = ws.commands
		}
	}
	s.mu.Unlock()

	for id, commands := range victims {
		s.met.heartbeatMisses.Inc()
		s.log.Warn("worker missed heartbeats, recovering commands", "worker", id, "commands", len(commands))
		s.reportFailed(id, commands)
	}
}

// preemptForStarved evicts one running command at its last checkpoint when a
// tenant has starved past cfg.PreemptAge (queued work, nothing running) while
// another dominates the fleet's cores: the dominant tenant's checkpointed
// command is requeued from its checkpoint, its worker told to abort at the
// next heartbeat. One per monitor tick, so nobody mass-evicts the fleet.
func (s *Server) preemptForStarved() {
	if s.cfg.PreemptAge <= 0 {
		return
	}
	starved, ok := s.q.Starved(s.cfg.PreemptAge)
	if !ok {
		return
	}
	victim, cores, ok := s.q.DominantTenant(starved)
	if !ok {
		return
	}
	for _, p := range s.projectList() {
		p.mu.Lock()
		if p.tenant != victim || p.state != projRunning {
			p.mu.Unlock()
			continue
		}
		for id, cs := range p.commands {
			// Only checkpointed commands are evictable: preempting without a
			// checkpoint would throw away the whole run, which is worse for
			// the fleet than letting the starved tenant wait one more tick.
			if cs.status != cmdRunning || len(cs.checkpoint) == 0 {
				continue
			}
			worker := cs.worker
			requeue(p, cs, store.Record{Type: store.RecCommandPreempted, Project: p.name,
				Command: id, Worker: worker, Tenant: p.tenant, Count: cs.preempts + 1})
			s.apply(p)
			p.mu.Unlock()
			s.log.Info("preempted at checkpoint boundary for starved tenant", "cmd", id,
				"worker", worker, "victim_tenant", victim, "victim_cores", cores, "starved_tenant", starved)
			// The old worker is told to abort at its next heartbeat.
			s.mu.Lock()
			s.preempted[id] = struct{}{}
			s.mu.Unlock()
			return
		}
		p.mu.Unlock()
	}
}

// reportFailed recovers the given worker's commands (cmdID → origin server):
// local origins are requeued directly, remote origins receive a retried
// WorkerFailed report.
func (s *Server) reportFailed(workerID string, commands map[string]string) {
	byOrigin := make(map[string][]string)
	for cmdID, origin := range commands {
		byOrigin[origin] = append(byOrigin[origin], cmdID)
	}
	for origin, ids := range byOrigin {
		wf := wire.WorkerFailed{WorkerID: workerID, CommandIDs: ids}
		if origin == s.node.ID() {
			s.recoverCommands(wf)
			continue
		}
		payload, err := wire.Marshal(&wf)
		if err != nil {
			continue
		}
		// Unlike announce relays, this report must land: losing it strands
		// the origin's commands until its own (much slower) recovery. Retry
		// every transport failure including timeouts and missing routes.
		err = s.rpol.Do(context.Background(), "worker_failed_report", func(ctx context.Context) error {
			_, rerr := s.node.Request(ctx, origin, wire.MsgWorkerFailed, payload)
			var remote *overlay.RemoteError
			if errors.As(rerr, &remote) {
				return retry.Permanent(rerr)
			}
			return rerr
		})
		if err != nil {
			s.log.Error("reporting worker failure upstream failed", "origin", origin, "err", err)
		}
	}
}

// --- tenant administration ---

// handleTenantList serves the tenant accounts the scheduler knows about.
func (s *Server) handleTenantList(from string, payload []byte) ([]byte, error) {
	var req wire.TenantListRequest
	if err := wire.Unmarshal(payload, &req); err != nil {
		return nil, err
	}
	return wire.Marshal(&wire.TenantList{Tenants: s.q.Tenants()})
}

// handleTenantQuotaGet serves one tenant's weight, quotas and usage. A
// tenant the scheduler has never seen reports the defaults it would get.
func (s *Server) handleTenantQuotaGet(from string, payload []byte) ([]byte, error) {
	var req wire.TenantQuotaRequest
	if err := wire.Unmarshal(payload, &req); err != nil {
		return nil, err
	}
	st, ok := s.q.Tenant(req.Tenant)
	if !ok {
		st = wire.TenantStatus{ID: req.Tenant, Weight: 1}
	}
	return wire.Marshal(&st)
}

// handleTenantQuotaSet applies a weight/quota update, journals it so it
// survives restarts and ships to standbys, and returns the new status.
func (s *Server) handleTenantQuotaSet(from string, payload []byte) ([]byte, error) {
	var upd wire.TenantQuotaUpdate
	if err := wire.Unmarshal(payload, &upd); err != nil {
		return nil, err
	}
	if upd.Tenant == "" {
		return nil, fmt.Errorf("server: tenant quota update needs a tenant ID")
	}
	data, err := wire.Marshal(&upd)
	if err != nil {
		return nil, err
	}
	st := s.q.SetQuota(upd)
	s.journal(store.Record{Type: store.RecTenantQuota, Tenant: upd.Tenant, Data: data})
	s.commit()
	s.log.Info("tenant quota updated", "tenant", upd.Tenant, "weight", st.Weight,
		"max_queued", st.MaxQueued, "max_cores", st.MaxCores, "max_storage_bytes", st.MaxStorageBytes)
	return wire.Marshal(&st)
}

// handleWorkerFailed receives failure reports from relay servers.
func (s *Server) handleWorkerFailed(from string, payload []byte) ([]byte, error) {
	var wf wire.WorkerFailed
	if err := wire.Unmarshal(payload, &wf); err != nil {
		return nil, err
	}
	s.recoverCommands(wf)
	return []byte("ok"), nil
}

// recoverCommands requeues (from the last checkpoint) or terminally fails
// the commands a dead worker was running.
func (s *Server) recoverCommands(wf wire.WorkerFailed) {
	for _, cmdID := range wf.CommandIDs {
		s.forCommand(cmdID, func(p *project, cs *cmdState) bool {
			hit := cs.runningOn(wf.WorkerID) // else finished, terminated, or reassigned elsewhere
			requeueOrFail(p, cs, wf.WorkerID, "")
			return hit
		})
	}
}
