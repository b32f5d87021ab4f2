// Package server implements the Copernicus server: the symmetric overlay
// participant of §2 that holds projects, queues commands, matches workloads
// to announcing workers, relays requests for workers it cannot serve
// locally, monitors heartbeats, and drives controller plugins as commands
// complete.
//
// Every server runs identical code; whether it acts as a project server or
// as a relay on a cluster head node is determined purely by which projects
// it holds and how it is connected — the paper's "fully symmetric"
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

// project is one controller-driven job. Its state, and the status of each of
// its commands, change only through the transitions in lifecycle.go.
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
	staged     []*cmdState // submitted by the running handler; see react
	finished   int
	failed     int
	done       chan struct{}
	seed       uint64
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
	node *overlay.Node
	reg  *controller.Registry
	cfg  Config
	q    *queue.Queue
	rpol retry.Policy
	// log, met and trace are where transitions are observed; recovery swaps
	// them while it replays (see replay).
	log   *obs.Logger
	met   serverMetrics
	trace *obs.Tracer

	mu       sync.Mutex
	projects map[string]*project
	workers  map[string]*workerState
	// preempted holds command IDs evicted by fair-share preemption whose
	// old worker has not yet been told to abort (via heartbeat ack).
	preempted map[string]struct{}

	// park holds the announces of idle workers; see park.go.
	park parking

	// closeMu/closing gate goAsync against Close: handlers can still fire
	// while Close drains, and a WaitGroup must never be Add-ed
	// concurrently with Wait.
	closeMu sync.Mutex
	closing bool

	// replaying is true while New replays recovered state: nothing is
	// journaled and the matching queue is left alone, so a replayed event is
	// applied exactly once and never re-journaled (see lifecycle.go).
	replaying atomic.Bool
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
	streamChunks    *obs.Counter
	streamFrames    *obs.Counter
	streamDupes     *obs.Counter
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
		streamChunks: m.Counter("copernicus_stream_chunks_total",
			"Streamed frame chunks accepted and journaled.", node),
		streamFrames: m.Counter("copernicus_stream_frames_total",
			"New frames ingested from streamed chunks (after watermark dedupe).", node),
		streamDupes: m.Counter("copernicus_stream_duplicate_chunks_total",
			"Streamed chunks ignored because every frame was below the watermark.", node),
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
	node.Handle(wire.MsgFrameChunk, s.handleFrameChunk)
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
	ctrl, err := s.reg.New(sub.Controller)
	if err != nil {
		return nil, err
	}
	err = s.startProject(&sub, ctrl)
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

// startProject publishes an admitted project, runs its controller's Start
// handler and journals the submission, all under the project's lock. The
// caller commits before replying. Replay applies RecProjectSubmitted by
// calling it too, where nothing is journaled and no admission can bounce.
func (s *Server) startProject(sub *wire.ProjectSubmit, ctrl controller.Controller) error {
	p := &project{
		name:     sub.Name,
		ctrl:     ctrl,
		tenant:   sub.Tenant,
		priority: sub.Priority,
		state:    projRunning,
		commands: make(map[string]*cmdState),
		done:     make(chan struct{}),
		seed:     seedFromName(sub.Name),
	}
	// Publish the project under its own (already held) lock and hold that
	// lock until the submission is journaled, which keeps the snapshot
	// protocol (rotate, then capture, then barrier) safe. A capture that
	// sees the project blocks on p.mu until the record is staged, and ends
	// with a commit barrier on the WAL tail before its snapshot is
	// published, so the snapshot never outlives a submission the log lost.
	// A capture that scanned before the publish also rotated before it, so
	// the record's sequence is above the snapshot's rotate-time LastSeq and
	// is replayed on top of it.
	p.mu.Lock()
	defer p.mu.Unlock()
	s.mu.Lock()
	if _, dup := s.projects[sub.Name]; dup {
		s.mu.Unlock()
		return fmt.Errorf("server: project %q already exists", sub.Name)
	}
	s.projects[sub.Name] = p
	s.mu.Unlock()

	// Start before journaling the submission: if the controller's first
	// submits are bounced by admission control, the project is withdrawn
	// entirely — nothing durable, nothing ever matchable, the name reusable
	// by the client's retry.
	err := s.react(p, func(c controller.Context) error { return ctrl.Start(c, sub.Params) })
	if errors.Is(err, wire.ErrQuotaExceeded) || errors.Is(err, wire.ErrAdmissionShed) {
		s.mu.Lock()
		delete(s.projects, sub.Name)
		s.mu.Unlock()
		s.met.admissionReject.Inc()
		return fmt.Errorf("server: admitting project %q: %w", sub.Name, err)
	}
	s.journal(store.Record{Type: store.RecProjectSubmitted, Project: sub.Name,
		Tenant: sub.Tenant, Count: sub.Priority, Note: sub.Controller, Data: sub.Params})
	if err != nil {
		s.reacted(p, err)
		return fmt.Errorf("server: starting project %q: %w", sub.Name, err)
	}
	return nil
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
func (s *Server) ProjectNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.projects))
	for name := range s.projects {
		out = append(out, name)
	}
	return out
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
	st := s.statusLocked(p)
	p.mu.Unlock()
	if projState(st.State) != projRunning {
		s.commit()
	}
	return st
}

func (s *Server) statusLocked(p *project) wire.ProjectStatus {
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

// --- controller context ---

type ctxImpl struct {
	s *Server
	p *project
}

func (s *Server) contextFor(p *project) controller.Context { return &ctxImpl{s: s, p: p} }

func (c *ctxImpl) ProjectName() string { return c.p.name }
func (c *ctxImpl) Seed() uint64        { return c.p.seed }
func (c *ctxImpl) Obs() *obs.Obs       { return c.s.cfg.Obs }
func (c *ctxImpl) Logf(format string, args ...any) {
	c.s.log.Info(fmt.Sprintf(format, args...), "project", c.p.name)
}

func (c *ctxImpl) Submit(cmd wire.CommandSpec) error {
	cmd.Project = c.p.name
	cmd.Origin = c.s.node.ID()
	cmd.Tenant = c.p.tenant
	if cmd.Priority == 0 {
		cmd.Priority = c.p.priority
	}
	if err := cmd.Validate(); err != nil {
		return err
	}
	if _, dup := c.p.commands[cmd.ID]; dup {
		return fmt.Errorf("server: duplicate command %q in project %q", cmd.ID, c.p.name)
	}
	c.p.staged = append(c.p.staged, c.s.queued(c.p, cmd))
	return nil
}

func (c *ctxImpl) Terminate(id string) bool {
	cs, ok := c.p.commands[id]
	if ok {
		c.s.terminated(c.p, cs)
	}
	return ok
}

func (c *ctxImpl) SetStatus(generation int, note string) { c.p.generation, c.p.note = generation, note }

func (c *ctxImpl) Finish(result []byte) { c.s.end(c.p, projFinished, result, "") }

func (c *ctxImpl) Fail(err error) { c.s.end(c.p, projFailed, nil, err.Error()) }

// --- worker traffic ---

// handleAnnounce matches a worker to queued commands. A relayed announce —
// another server searching on its worker's behalf — is matched or declined,
// so the overlay carries it on to "the first server with available
// commands". A direct announce that misses is parked (park.go): it waits for
// a queue event, for the overlay search started on its behalf, or for its
// hold to run out, and is answered then. Nothing on this path waits on a
// timer while there is work to hand out.
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
// reply — on the direct path and on a parked announce's wake alike.
func (s *Server) assign(info wire.WorkerInfo, wl wire.Workload, direct bool) ([]byte, error) {
	wl.HeartbeatSeconds = s.cfg.HeartbeatInterval.Seconds()
	wl.SharedFS = s.cfg.FSToken != "" && s.cfg.FSToken == info.FSToken
	s.markAssigned(info, wl, direct)
	s.commit() // one barrier for every assignment in the workload
	return wire.Marshal(&wl)
}

// markAssigned updates project command states for a local match and, when
// the worker announced directly to us, records it for heartbeat tracking.
func (s *Server) markAssigned(info wire.WorkerInfo, wl wire.Workload, direct bool) {
	for _, cmd := range wl.Commands {
		s.withProjectCommand(cmd.Project, cmd.ID, func(p *project, cs *cmdState) {
			s.assigned(p, cs, info.ID, wl.Cores[cmd.ID])
		})
	}
	// A direct announce refreshes the worker's record. A relayed match is
	// noted only when the worker is one of our own (it has announced directly
	// before, so a record exists) — and noted NOW rather than when the relay
	// reply makes it home: the reply can still be lost, most plainly when the
	// search raced its deadline and the late answer is discarded, and these
	// commands would otherwise be tracked by nobody; the worker's next idle
	// announce then recovers them through the normal orphan path. For another
	// server's worker there is no record here, and its home server notes the
	// assignment on the reply instead.
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
}

// recordRelayedWorkload notes which origin server each relayed command
// belongs to, so heartbeat failures can be reported upstream — and, for a
// workload that came back too late to be delivered, so the worker's next
// announce hands the commands back. The worker was last seen when its
// announce was parked, which can be longer ago than the reaper allows: its
// liveness record is refreshed (the announce was open until now), or created
// again if the reaper has already taken it.
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

// touchWorker refreshes (or creates) the liveness record of a directly
// announcing worker. A worker only announces once its previous workload has
// fully completed, so the command record is reset here rather than tracked
// per result. Commands still on record at that point are orphans — the
// workload reply that assigned them was lost on a severed link and the
// worker never knew about them — and are returned for recovery; nobody
// will ever run or heartbeat them otherwise, and the worker's own
// announces keep its liveness fresh so the reaper never would.
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

// withProjectCommand runs f under the project lock if both exist.
func (s *Server) withProjectCommand(projectName, cmdID string, f func(*project, *cmdState)) {
	if p := s.project(projectName); p != nil {
		p.mu.Lock()
		defer p.mu.Unlock()
		if cs := p.command(cmdID); cs != nil {
			f(p, cs)
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
// each project that has one, until f reports that it was the one meant.
func (s *Server) forCommand(id string, f func(*project, *cmdState) bool) bool {
	for _, p := range s.projectList() {
		p.mu.Lock()
		cs := p.command(id)
		hit := cs != nil && f(p, cs)
		p.mu.Unlock()
		if hit {
			return true
		}
	}
	return false
}

// handleResult ingests finished, failed or partial command results at the
// project server.
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
		payload = nil // no longer res's encoding
	}

	reply, settledWorker, err := s.ingestResult(p, &res, payload)
	// The ack — for a result, a checkpoint, or a controller failure alike —
	// leaves only once what the ingest journaled is durable.
	s.commit()
	s.maybeSnapshot()
	if settledWorker != "" {
		// That worker's run of the command is over: drop it from the worker's
		// assignment record, so its next idle announce is not mistaken for an
		// orphaned workload, and from the preemption abort set (a preempted
		// command whose old worker finished before the abort reached it lands
		// here), now that the project's lock is dropped.
		s.mu.Lock()
		if ws := s.workers[settledWorker]; ws != nil {
			delete(ws.commands, res.CommandID)
		}
		delete(s.preempted, res.CommandID)
		s.mu.Unlock()
	}
	return reply, err
}

// ingestResult applies one result message under the project lock — a
// checkpoint, a failure the worker reports, or the final result — and returns
// the ID of the worker whose assignment it settled ("" if none). encoded is as
// for done. Called live from handleResult and during WAL replay.
func (s *Server) ingestResult(p *project, res *wire.CommandResult, encoded []byte) (reply []byte, settledWorker string, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	cs := p.command(res.CommandID)
	if cs == nil {
		return []byte("ignored"), "", nil
	}
	res.CommandID = cs.spec.ID // if it was bare; encoded keeps it as it arrived
	worker := cs.worker
	switch {
	case res.Partial:
		s.checkpointed(p, cs, res.Checkpoint)
		return []byte("checkpointed"), "", nil
	case !res.OK && !cs.settled():
		// The run failed on the worker (an engine error). That is a lost run
		// like any other, except that the worker is alive to say so: spend the
		// retry budget, then tell the controller — and acknowledge, so the
		// worker stops redelivering. A run the command has been requeued or
		// reassigned away from is nobody's any more.
		if !cs.runningOn(res.WorkerID) {
			return []byte("ignored"), "", nil
		}
		s.q.Release(res.CommandID, res.WallSeconds) // the measured charge, not requeue's estimate
		s.requeueOrFail(p, cs, res.WorkerID, "worker reported failure: "+res.Error)
		return []byte("noted"), worker, nil
	}
	reply, err = s.done(p, cs, res, encoded)
	return reply, worker, err
}

// handleFrameChunk ingests a streamed frame chunk at the project server.
// Chunks are an optimization overlay on the result path: anything
// surprising — unknown command, settled command, duplicate or gapped frame
// range — is acknowledged and dropped, because the command's final result
// blob carries every frame and heals whatever the stream missed.
func (s *Server) handleFrameChunk(from string, payload []byte) ([]byte, error) {
	var chunk wire.FrameChunk
	if err := wire.Unmarshal(payload, &chunk); err != nil {
		return nil, err
	}
	p := s.project(chunk.Project)
	if p == nil {
		return nil, overlay.ErrNotHandled // maybe another server's project
	}
	reply, err := s.ingestChunk(p, &chunk, payload)
	s.commit()
	return reply, err
}

// ingestChunk applies one streamed chunk under the project lock, advancing
// the command's frame watermark and feeding the controller's FrameSink.
// Called live from handleFrameChunk and during WAL replay.
func (s *Server) ingestChunk(p *project, chunk *wire.FrameChunk, payload []byte) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	cs := p.command(chunk.CommandID)
	if cs == nil || cs.settled() || p.state != projRunning {
		return []byte("ignored"), nil
	}
	chunk.CommandID = cs.spec.ID // if it was bare; payload keeps it as it arrived
	// Frame 0 is the segment's start conformation, which the controller
	// already holds; the stream begins at frame 1.
	start := cs.streamed
	if start < 1 {
		start = 1
	}
	end := chunk.FirstFrame + len(chunk.Frames)
	if end <= start {
		// Re-delivery of frames already ingested (e.g. a checkpoint-resumed
		// run deterministically re-producing its prefix on a new worker).
		s.met.streamDupes.Inc()
		return []byte("ignored"), nil
	}
	if chunk.FirstFrame > start {
		// A gap: an earlier chunk never arrived. Ingesting out-of-order
		// frames would corrupt transition counting, so drop the chunk and
		// let the final result blob deliver the range intact.
		s.met.streamDupes.Inc()
		return []byte("gap"), nil
	}
	// Journal before the controller reacts so recovery and standby replay
	// reconstruct the exact same stream position.
	s.journal(store.Record{Type: store.RecFrameChunk,
		Project: chunk.Project, Command: chunk.CommandID, Worker: chunk.WorkerID,
		Data: payload})
	cs.streamed = end
	s.met.streamChunks.Inc()
	s.met.streamFrames.Add(uint64(end - start))
	if sink, ok := p.ctrl.(controller.FrameSink); ok {
		// The sink's error is non-fatal by contract (the batch path still
		// covers the command) and leaves what it submitted standing.
		s.reacted(p, s.react(p, func(c controller.Context) error {
			if err := sink.FrameChunk(c, chunk); err != nil {
				s.log.Warn("frame sink rejected chunk", "project", p.name, "cmd", chunk.CommandID, "err", err)
			}
			return nil
		}))
	}
	return []byte("ok"), nil
}

// --- heartbeats and failure recovery ---

// handleHeartbeat refreshes liveness and reports terminated commands the
// worker should abort.
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
		if evicted || s.forCommand(id, func(_ *project, cs *cmdState) bool { return cs.status == cmdTerminated }) {
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

// preemptForStarved evicts one running command at its last checkpoint
// boundary when a tenant has starved past cfg.PreemptAge (queued work,
// nothing running) while another tenant dominates the fleet's cores. The
// victim is the dominant tenant's checkpointed command: it is requeued from
// its checkpoint (losing only the work since), its old worker is told to
// abort at the next heartbeat, and the freed cores let the starved tenant's
// fair-share turn come up. At most one command is preempted per monitor
// tick, so a single starved tenant cannot mass-evict the fleet.
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
			s.requeue(p, cs, store.Record{Type: store.RecCommandPreempted, Project: p.name,
				Command: id, Worker: worker, Tenant: p.tenant, Count: cs.preempts + 1})
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
	st := s.q.SetQuota(upd)
	s.journalPayload(store.Record{Type: store.RecTenantQuota, Tenant: upd.Tenant}, &upd)
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
			s.requeueOrFail(p, cs, wf.WorkerID, "")
			return hit
		})
	}
}
