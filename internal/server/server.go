// Package server implements the Copernicus server: the symmetric overlay
// participant of §2 that holds projects, queues commands, matches workloads
// to announcing workers, relays for workers it cannot serve, monitors
// heartbeats, and drives controller plugins as commands complete. Whether it
// acts as a project server or as a relay on a cluster head node depends only
// on the projects it holds and its links: the paper's "fully symmetric"
// architecture.
//
// A Core (core.go, park.go, lifecycle.go, persist.go) holds the projects,
// the worker records and the queue, and makes every decision, on a clock it
// is given; the discrete-event fleet (internal/des) and the lifecycle checker
// drive it directly. This file's Server is the shell that puts a core on an
// overlay node: it decodes each message, calls the core and encodes the
// reply, and owns the goroutines, timers, wall clock, overlay requests,
// commits and snapshot scheduling.
package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"copernicus/internal/controller"
	"copernicus/internal/overlay"
	"copernicus/internal/retry"
	"copernicus/internal/wire"
)

// Server is a Copernicus server node.
type Server struct {
	core *Core
	node *overlay.Node
	cfg  Config
	rpol retry.Policy

	// ready wakes the dispatcher; edge is set with it when the event put a
	// command into an empty queue.
	ready chan struct{}
	edge  atomic.Bool

	// snapshotting serialises background snapshot captures.
	snapshotting atomic.Bool

	// Close cancels ctx, which ends the background loops and bounds the
	// overlay searches run for parked workers. closeMu gates goAsync against
	// it: handlers can still fire while Close drains, and a WaitGroup must
	// not be Add-ed during Wait.
	ctx     context.Context
	cancel  context.CancelFunc
	closeMu sync.Mutex
	wg      sync.WaitGroup
}

// New wires a server onto an overlay node. The node should already be
// listening; New replays the store's durable state, registers the protocol
// handlers and starts the heartbeat monitor and the dispatcher.
func New(node *overlay.Node, reg *controller.Registry, cfg Config) *Server {
	return newServer(node, reg, cfg).start()
}

// newServer builds a server around a fresh core and starts nothing.
func newServer(node *overlay.Node, reg *controller.Registry, cfg Config) *Server {
	cfg.fill()
	s := &Server{node: node, cfg: cfg, ready: make(chan struct{}, 1)}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	h := Hooks{Origin: node.ID(), Clock: time.Now, Ready: s.queueReady}
	if st := cfg.Store; st != nil {
		// WAL-aware backpressure: the store's append-latency EWMA, normalised
		// by the slow-append threshold, throttles matching and admission.
		slow := cfg.WALSlowAppend.Seconds()
		h.Pressure = func() float64 { return st.AppendLatency() / slow }
		h.Stage = st.Stage
	}
	s.core = NewCore(reg, cfg, h)
	// The overlay searches the server makes for its parked workers:
	// package-default backoff, each attempt bounded by RelayTimeout.
	s.rpol = retry.Policy{PerAttempt: cfg.RelayTimeout, Obs: cfg.Obs, Scope: node.ID()}
	return s
}

// start replays recovered durable state before any handler can observe or
// mutate it — projects resume, the queue is re-seeded, and commands that
// were assigned but never resolved are requeued as orphans — then serves.
func (s *Server) start() *Server {
	if s.cfg.Store != nil {
		s.core.recover(s.cfg.Store.Recovered())
	}
	node := s.node
	node.Handle(wire.MsgSubmit, serve(func(sub *wire.ProjectSubmit) (wire.SubmitReceipt, error) {
		defer s.commit()
		return s.core.Submit(sub)
	}))
	node.Handle(wire.MsgAnnounce, s.handleAnnounce)
	node.Handle(wire.MsgResult, s.handleResult)
	node.Handle(wire.MsgFrameChunk, handleFrameChunk)
	node.Handle(wire.MsgHeartbeat, serve(func(hb *wire.Heartbeat) (wire.HeartbeatAck, error) {
		ack := s.core.heartbeat(hb)
		if len(ack.AbortCommandIDs) > 0 {
			s.commit() // an abort tells of a preemption or a settlement
		}
		return ack, nil
	}))
	node.Handle(wire.MsgStatus, serve(func(req *wire.ProjectStatusRequest) (wire.ProjectStatus, error) {
		if st, ok := s.Project(req.Name); ok {
			return st, nil
		}
		return wire.ProjectStatus{}, overlay.ErrNotHandled // another server may hold it
	}))
	node.Handle(wire.MsgWorkerFailed, func(_ string, payload []byte) ([]byte, error) {
		var wf wire.WorkerFailed
		if err := wire.Unmarshal(payload, &wf); err != nil {
			return nil, err
		}
		s.core.WorkerFailed(wf)
		s.commit()
		return []byte("ok"), nil
	})
	node.Handle(wire.MsgWorkAvailable, s.handleWorkAvailable)
	node.Handle(wire.MsgTenantList, serve(func(*wire.TenantListRequest) (wire.TenantList, error) {
		return wire.TenantList{Tenants: s.core.q.Tenants()}, nil
	}))
	node.Handle(wire.MsgTenantQuotaGet, serve(func(req *wire.TenantQuotaRequest) (wire.TenantStatus, error) {
		if st, ok := s.core.q.Tenant(req.Tenant); ok {
			return st, nil
		}
		return wire.TenantStatus{ID: req.Tenant, Weight: 1}, nil // the defaults it would get
	}))
	node.Handle(wire.MsgTenantQuotaSet, serve(func(upd *wire.TenantQuotaUpdate) (wire.TenantStatus, error) {
		defer s.commit()
		return s.core.setQuota(upd)
	}))
	node.Handle(wire.MsgPing, func(_ string, p []byte) ([]byte, error) { return p, nil })
	s.wg.Add(2)
	go s.monitorHeartbeats()
	go s.runDispatcher()
	return s
}

// serve is a handler that decodes a Req, calls f and encodes its reply. An f
// whose reply tells of a transition commits before it returns.
func serve[Req, Resp any](f func(*Req) (Resp, error)) overlay.Handler {
	return func(_ string, payload []byte) ([]byte, error) {
		var req Req
		if err := wire.Unmarshal(payload, &req); err != nil {
			return nil, err
		}
		resp, err := f(&req)
		if err != nil {
			return nil, err
		}
		return wire.Marshal(&resp)
	}
}

// Node returns the underlying overlay node.
func (s *Server) Node() *overlay.Node { return s.node }

// QueueLen reports the number of commands waiting for workers.
func (s *Server) QueueLen() int { return s.core.q.Len() }

// Close stops the heartbeat monitor and the dispatcher, answers every parked
// announce (empty) and waits for background work (snapshot captures; overlay
// searches are cancelled). The overlay node is left to its owner.
func (s *Server) Close() {
	s.closeMu.Lock()
	s.cancel()
	s.closeMu.Unlock()
	s.core.releaseParked()
	s.wg.Wait()
}

// goAsync runs f on a tracked goroutine, or reports false when the server
// is closing (handlers can observe a closing server; their background
// work is simply dropped).
func (s *Server) goAsync(f func()) bool {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.ctx.Err() != nil {
		return false
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		f()
	}()
	return true
}

// commit blocks until everything the core has journaled is durable: nothing
// leaves the process until the WAL is durable through the last record the
// reply could depend on. A handler whose reply tells a peer of a transition
// calls it after the core returns and before replying; the WAL is
// prefix-durable, so one barrier covers all it (or anyone before it) staged,
// and concurrent handlers share the fsync. A crash before it returns means
// the peer was never acked: redelivery, orphan requeue and duplicate
// absorption heal it as they heal a torn tail.
func (s *Server) commit() {
	if s.cfg.Store == nil {
		return
	}
	// A failed fsync is logged and counted once by the store, not by each
	// handler waiting on it; like journal, the server carries on.
	_ = s.cfg.Store.Commit(s.cfg.Store.LastSeq())
}

// --- project lifecycle ---

// Project returns a snapshot of a project's status. A terminal state
// promises the project will not run again, so it leaves only once the record
// whose replay ends the project again is durable.
func (s *Server) Project(name string) (wire.ProjectStatus, bool) {
	st, ok := s.core.Project(name)
	if ok && projState(st.State) != projRunning {
		s.commit()
	}
	return st, ok
}

// Projects returns status snapshots for every project held, sorted by name.
func (s *Server) Projects() (sts []wire.ProjectStatus) {
	for _, name := range s.ProjectNames() {
		if st, ok := s.Project(name); ok {
			sts = append(sts, st)
		}
	}
	sort.Slice(sts, func(i, j int) bool { return sts[i].Name < sts[j].Name })
	return sts
}

// ProjectNames returns the names of every project this server holds. A
// promoted standby announces these on the overlay so workers and clients
// redirect to the new owner.
func (s *Server) ProjectNames() (names []string) {
	for _, p := range s.core.projectList() {
		names = append(names, p.name)
	}
	return names
}

// Workers returns the liveness records this server keeps: the workers homed
// here, and those running commands it holds.
func (s *Server) Workers() []wire.WorkerInfo { return s.core.workerInfos() }

// WaitProject blocks until the named project finishes or fails, or ctx is
// done. Bound the wait with context.WithTimeout (or use the fabric/client
// helpers, which do).
func (s *Server) WaitProject(ctx context.Context, name string) (wire.ProjectStatus, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	done := s.core.Done(name)
	if done == nil {
		return wire.ProjectStatus{}, fmt.Errorf("server: unknown project %q", name)
	}
	select {
	case <-done:
	case <-ctx.Done():
		return wire.ProjectStatus{}, fmt.Errorf("server: project %q still running: %w", name, ctx.Err())
	}
	st, _ := s.Project(name)
	return st, nil
}

// --- worker traffic ---

// handleAnnounce matches a worker to queued commands. A relayed announce —
// another server searching for its worker — is matched or declined, so the
// overlay carries it on to "the first server with available commands". A
// direct announce that misses is parked (park.go) until a queue event, the
// overlay search for it, or the end of its hold: never while work waits.
// A direct announce says the worker is idle (TouchWorker); a relayed copy
// may be stale, and is offered what the worker's record holds (reoffer).
func (s *Server) handleAnnounce(from string, payload []byte) ([]byte, error) {
	var req wire.AnnounceRequest
	if err := wire.Unmarshal(payload, &req); err != nil {
		return nil, err
	}
	if req.Relayed {
		var wl wire.Workload
		if from != s.node.ID() { // else our own search, on its way out: it just missed here
			wl = s.core.matchRelayed(req.Info)
		}
		if len(wl.Commands) == 0 {
			return nil, overlay.ErrNotHandled
		}
		return s.assign(req.Info, wl)
	}
	link := ""
	if s.linked(from) {
		link = from
	}
	wl, w := s.core.Announce(&req, link)
	s.core.TouchWorker(req.Info)
	if w != nil {
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
	return s.assign(req.Info, wl)
}

// assign records a matched workload's assignments and encodes it once they
// are durable: one barrier for every assignment in the workload.
func (s *Server) assign(info wire.WorkerInfo, wl wire.Workload) ([]byte, error) {
	wl = s.core.Assign(info, wl)
	s.commit()
	return wire.Marshal(&wl)
}

// linked reports whether the server has a direct link to node.
func (s *Server) linked(node string) bool { return slices.Contains(s.node.Peers(), node) }

// queueReady is the queue's readiness hook: it only nudges the dispatcher,
// because the caller may hold a project lock and parking.mu.
func (s *Server) queueReady(first bool) {
	if first {
		s.edge.Store(true)
	}
	select {
	case s.ready <- struct{}{}:
	default:
	}
}

// runDispatcher wakes the core's line whenever the queue reports an event
// (the woken announces' handlers carry on by themselves), and floods the
// work-available notice when the core says another server wants it.
func (s *Server) runDispatcher() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-s.ready:
			if _, notify := s.core.Wake(s.edge.Swap(false), s.linked); notify {
				s.node.Flood(wire.MsgWorkAvailable, nil)
			}
		}
	}
}

// await blocks the announce's handler until the waiter is resolved, expiring
// it when the hold runs out.
func (s *Server) await(w *Waiter) {
	t := time.NewTimer(time.Until(w.deadline))
	defer t.Stop()
	select {
	case <-w.done:
	case <-t.C:
		s.core.Expire(w)
	}
}

// search looks for work in the overlay for a parked worker, in the
// background: a relayed copy of the announce goes out anycast until a server
// answers or the hold ends. Only transport failures are retried: a deadline
// or a missing route means "no server has work", and a remote error will not
// change. A workload that comes back after the waiter is gone is dropped:
// the origin that assigned it keeps it on the worker's record there, and
// recovers it at the worker's next announce or its silence.
func (s *Server) search(w *Waiter) {
	select {
	case <-w.done:
		return
	default:
	}
	s.goAsync(func() {
		relay := w.req
		relay.Relayed = true
		ctx, cancel := context.WithDeadline(s.ctx, w.deadline)
		defer cancel()
		var reply []byte
		err := s.rpol.Do(ctx, "announce_relay", func(ctx context.Context) error {
			r, err := s.node.Request(ctx, "", wire.MsgAnnounce, &relay)
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
		if !s.core.resolve(w, parkRelayed, reply) {
			s.core.log.Info("relayed workload arrived after its announce was answered; dropped for its origin to recover",
				"worker", w.req.Info.ID, "commands", len(remote.Commands))
		}
	})
}

// handleWorkAvailable receives another server's notice that it has commands
// nobody there took: every parked worker gets a fresh search. Declining the
// notice lets the overlay carry it on to the servers behind this one.
func (s *Server) handleWorkAvailable(from string, payload []byte) ([]byte, error) {
	for _, w := range s.core.parked() {
		s.search(w)
	}
	return nil, overlay.ErrNotHandled
}

// handleResult ingests finished, failed or partial command results at the
// project server, and acknowledges once what the ingest journaled is durable.
// A result its worker sent itself that asks for a refill is answered with
// the next workload, assigned under the same commit.
func (s *Server) handleResult(from string, payload []byte) ([]byte, error) {
	var res wire.CommandResult
	if err := wire.Unmarshal(payload, &res); err != nil {
		return nil, err
	}
	if s.core.project(res.Project) == nil {
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
	reply, err := s.core.Result(&res, payload)
	if err == nil && res.Refill > 0 && from == res.WorkerID {
		if wl, ok := s.core.Refill(&res); ok {
			reply, err = wire.Marshal(&wl)
		}
	}
	s.commit()
	s.maybeSnapshot()
	return reply, err
}

// handleFrameChunk answers the mid-command frame chunks workers send with
// "ignored" at once. A command's frames reach its controller in the result
// alone; declining instead would send the worker's synchronous emit on an
// anycast search nobody answers, and stall it for the request timeout.
func handleFrameChunk(string, []byte) ([]byte, error) { return []byte("ignored"), nil }

// --- heartbeats and failure recovery ---

// monitorHeartbeats has the core reap the workers silent for 2× the
// heartbeat interval, and preempt for starved tenants.
func (s *Server) monitorHeartbeats() {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.HeartbeatInterval / 2)
	defer tick.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-tick.C:
			s.core.reapDeadWorkers()
			s.core.preemptForStarved()
		}
	}
}

// --- snapshots ---

// maybeSnapshot starts a background snapshot when the store has
// accumulated enough records since the last rotation. At most one capture
// runs at a time.
func (s *Server) maybeSnapshot() {
	st := s.cfg.Store
	if st == nil || !st.ShouldSnapshot() {
		return
	}
	if !s.snapshotting.CompareAndSwap(false, true) {
		return
	}
	started := s.goAsync(func() {
		defer s.snapshotting.Store(false)
		if err := s.SnapshotNow(); err != nil {
			s.core.log.Warn("background snapshot failed", "err", err)
		}
	})
	if !started {
		s.snapshotting.Store(false)
	}
}

// SnapshotNow rotates the WAL and writes a snapshot of all project state,
// letting the store compact everything older. Rotate first, capture second,
// commit third: a record journaled during the capture lands in the new
// segment, is replayed (idempotently) on top of the snapshot, and is durable
// before a snapshot that may reflect it. The snapshot is stamped with the
// rotate-time last sequence, all the capture is sure to reflect.
func (s *Server) SnapshotNow() error {
	st := s.cfg.Store
	if st == nil {
		return nil
	}
	idx, lastSeq, err := st.Rotate()
	if err != nil {
		return err
	}
	snap, err := s.core.captureSnapshot()
	if err != nil {
		// No snapshot written: recovery still works from the previous
		// baseline plus an extra (unrotated-away) segment.
		return err
	}
	// The capture may reflect records staged after the rotation and not yet
	// fsynced; publishing it first could leave a snapshot that knows more
	// than the log it sits on.
	s.commit()
	if err := st.WriteSnapshot(idx, lastSeq, snap); err != nil {
		return err
	}
	s.core.log.Info("snapshot written", "baseline_segment", idx, "projects", len(snap.Projects))
	return nil
}
