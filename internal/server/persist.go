// Durable project state: journaling of lifecycle transitions into the
// configured store, snapshot capture at WAL rotation, and the startup
// recovery path that replays snapshot + tail into a fresh server. The
// transitions themselves — what each record means, live and replayed — are in
// lifecycle.go.
//
// Recovery is event-sourced: the WAL journals the server's *inputs* (project
// parameters; results and checkpoints in arrival order; quota updates) and
// its own nondeterministic decisions (assignments, requeues, preemptions,
// terminal failures, admission refusals), nothing else. Replay re-runs the
// deterministic controllers through the normal handlers, re-deriving what
// they did — submits, status lines, the end of the project. Snapshots bound
// replay time by capturing full project state, including serialized
// controller state (controller.Durable), so compaction can delete old segments.
package server

import (
	"fmt"
	"time"

	"copernicus/internal/controller"
	"copernicus/internal/obs"
	"copernicus/internal/store"
	"copernicus/internal/wire"
)

// journal and commit are the two halves of every durable transition, and
// between them hold the server's one durability invariant: records are
// written in lock order; nothing leaves the process until the WAL is durable
// through the last record the reply could depend on.
//
// journal stages one lifecycle record in the configured store — framed and
// written, in the order callers hold the project lock, but not yet fsynced —
// and never blocks on the disk, so it is safe under p.mu. Journaling
// failures are availability-over-durability: the server keeps serving (the
// store's wal_errors counter and the log record the gap) rather than
// refusing work because a disk is unhappy.
func (s *Server) journal(rec store.Record) {
	if !s.journaling() {
		return
	}
	if _, err := s.cfg.Store.Stage(rec); err != nil {
		s.log.Error("journaling state transition failed; continuing without durability",
			"type", rec.Type.String(), "project", rec.Project, "cmd", rec.Command, "err", err)
	}
}

// journaling reports whether transitions are being written down: there is a
// store and the server is not replaying it.
func (s *Server) journaling() bool { return s.cfg.Store != nil && !s.replaying.Load() }

// journalPayload journals rec with payload v as its Data; a server that is
// not journaling does not encode v at all. A payload that will not encode
// costs the record, which is logged like any other journaling failure instead
// of being dropped silently.
func (s *Server) journalPayload(rec store.Record, v any) {
	if !s.journaling() {
		return
	}
	data, err := wire.Marshal(v)
	if err != nil {
		s.log.Error("encoding journal record failed; continuing without durability",
			"type", rec.Type.String(), "project", rec.Project, "cmd", rec.Command, "err", err)
		return
	}
	rec.Data = data
	s.journal(rec)
}

// commit blocks until everything journaled so far is durable. Every handler
// whose reply tells a peer that a transition happened calls it after
// dropping its locks and before the reply leaves: the WAL is prefix-durable,
// so one barrier on the tail covers every record the handler (or anyone
// before it) staged, and concurrent handlers share the fsync. A crash before
// the barrier returns means the peer was never acked, and redelivery, orphan
// requeue and duplicate absorption heal it exactly as for a torn tail.
// Transitions with no reply (reap, requeue, preempt) only journal; the next
// barrier or the syncer's own pace makes them durable.
func (s *Server) commit() {
	if !s.journaling() {
		return
	}
	// A failed fsync is logged and counted once by the store, not by each
	// handler waiting on it; like journal, the server carries on.
	_ = s.cfg.Store.Commit(s.cfg.Store.LastSeq())
}

// --- recovery ---

// recoverFromStore replays the store's recovered image (newest snapshot +
// WAL tail) into the server, then re-seeds the command queue and requeues
// commands that were assigned but never resolved. Called from New before
// any protocol handler is registered, so nothing races the replay.
// Per-project and per-record failures are logged and skipped — recovery
// salvages everything salvageable instead of refusing to start.
func (s *Server) recoverFromStore() {
	rec := s.cfg.Store.Recovered()
	if rec.Snapshot == nil && len(rec.Records) == 0 {
		return
	}
	start := time.Now()
	restored := s.replay(rec)
	orphans, queued := s.reseedQueue()
	if rec.Torn != "" {
		s.log.Warn("write-ahead log ended in a torn record; discarded "+
			"(it was never acknowledged)", "detail", rec.Torn)
	}
	s.log.Info("recovered durable state",
		"projects", len(s.projectList()), "from_snapshot", restored,
		"replayed_records", len(rec.Records), "queued", queued,
		"orphans_requeued", orphans, "elapsed", time.Since(start))
}

// replay rebuilds project state from a recovered image: the snapshot's
// projects are restored, then every tail record is applied through the same
// transitions that wrote it. While it runs nothing is journaled, the matching
// queue is left for reseedQueue, and transitions are observed by a throwaway
// registry and tracer and a logger that marks its lines as replayed — what
// was counted when it happened is not counted again.
func (s *Server) replay(rec *store.Recovered) (restored int) {
	log, met, trace, scratch := s.log, s.met, s.trace, obs.New()
	s.log, s.met, s.trace = log.With("replay", true), newServerMetrics(scratch, ""), scratch.Trace
	s.replaying.Store(true)
	defer func() {
		s.replaying.Store(false)
		s.log, s.met, s.trace = log, met, trace
	}()
	if rec.Snapshot != nil {
		// Tenant accounts first: weights, quotas and the storage already
		// billed, so replayed/reseeded commands land in configured accounts.
		// Fair-share virtual time and core-second usage restart from zero —
		// a restart is a deliberate amnesty, not a billing event.
		for _, ts := range rec.Snapshot.Tenants {
			s.q.SetQuota(wire.TenantQuotaUpdate{
				Tenant:          ts.ID,
				Weight:          ts.Weight,
				MaxQueued:       ts.MaxQueued,
				MaxCores:        ts.MaxCores,
				MaxStorageBytes: ts.MaxStorageBytes,
			})
			if ts.StorageBytes > 0 {
				s.q.ChargeStorage(ts.ID, ts.StorageBytes)
			}
		}
		for _, ps := range rec.Snapshot.Projects {
			if err := s.restoreProject(ps); err != nil {
				s.log.Error("restoring project from snapshot failed",
					"project", ps.Name, "err", err)
				continue
			}
			restored++
		}
	}
	for _, r := range rec.Records {
		s.replayRecord(r)
	}
	return restored
}

// restoreProject rebuilds one project from its snapshot image, restoring
// the controller's serialized state instead of re-running Start.
func (s *Server) restoreProject(ps store.ProjectSnap) error {
	ctrl, err := s.reg.New(ps.Controller)
	if err != nil {
		return err
	}
	state := projState(ps.State)
	if state == projRunning {
		d, ok := ctrl.(controller.Durable)
		if !ok {
			return fmt.Errorf("server: controller %q does not implement controller.Durable", ps.Controller)
		}
		if err := d.RestoreState(ps.CtrlState); err != nil {
			return err
		}
	}
	p := &project{
		name:       ps.Name,
		ctrl:       ctrl,
		tenant:     ps.Tenant,
		priority:   ps.Priority,
		state:      state,
		generation: ps.Generation,
		note:       ps.Note,
		result:     ps.Result,
		failErr:    ps.FailErr,
		finished:   ps.Finished,
		failed:     ps.Failed,
		seed:       ps.Seed,
		commands:   make(map[string]*cmdState, len(ps.Commands)),
		done:       make(chan struct{}),
	}
	if state != projRunning {
		close(p.done)
	}
	now := time.Now()
	for _, cs := range ps.Commands {
		p.commands[cs.Spec.ID] = &cmdState{
			spec:        cs.Spec,
			status:      cmdStatus(cs.Status),
			worker:      cs.Worker,
			retries:     cs.Retries,
			preempts:    cs.Preempts,
			checkpoint:  cs.Checkpoint,
			submittedAt: now,
		}
	}
	s.mu.Lock()
	s.projects[ps.Name] = p
	s.mu.Unlock()
	return nil
}

// replayRecord applies one journaled event: decode, look up, and call the
// transition that journaled it (lifecycle.go; docs/PERSISTENCE.md has the
// table). Every transition is a no-op from a status it does not move from, so
// a record the snapshot already reflects (the Rotate→capture overlap window)
// changes nothing, which is what makes the snapshot protocol safe. The types
// older builds also wrote are skipped: replaying the input that caused a
// command queued, generation, project finished or failed record re-derives
// it, and the result record after a command's frame chunks carries their
// frames (a command orphaned before its result reruns).
func (s *Server) replayRecord(r store.Record) {
	switch r.Type {
	case store.RecProjectSubmitted:
		ctrl, err := s.reg.New(r.Note)
		if err == nil {
			// A project that is already there is one the snapshot reflects; a
			// Start that fails does so as deterministically as it did live.
			err = s.startProject(&wire.ProjectSubmit{Name: r.Project, Controller: r.Note,
				Tenant: r.Tenant, Priority: r.Count, Params: r.Data}, ctrl)
		}
		if err != nil {
			s.log.Warn("replayed project submit", "project", r.Project, "err", err)
		}
	case store.RecTenantQuota:
		var upd wire.TenantQuotaUpdate
		if err := wire.Unmarshal(r.Data, &upd); err == nil {
			s.q.SetQuota(upd)
		}
	case store.RecResult:
		// Settled commands are skipped, fresh ones drive the controller
		// exactly as they did live.
		var res wire.CommandResult
		if p := s.project(r.Project); p != nil && wire.Unmarshal(r.Data, &res) == nil {
			if _, _, err := s.ingestResult(p, &res, nil); err != nil {
				s.log.Warn("replaying result failed", "cmd", res.CommandID, "err", err)
			}
		}
	case store.RecCommandAssigned:
		s.withProjectCommand(r.Project, r.Command, func(p *project, cs *cmdState) { s.assigned(p, cs, r.Worker, 0) })
	case store.RecCheckpoint:
		s.withProjectCommand(r.Project, r.Command, func(p *project, cs *cmdState) { s.checkpointed(p, cs, r.Data) })
	case store.RecCommandRequeued, store.RecCommandPreempted:
		s.withProjectCommand(r.Project, r.Command, func(p *project, cs *cmdState) { s.requeue(p, cs, r) })
	case store.RecCommandFailed:
		s.withProjectCommand(r.Project, r.Command, func(p *project, cs *cmdState) { s.failed(p, cs, r) })
	case store.RecBatchRefused:
		if p := s.project(r.Project); p != nil {
			p.mu.Lock()
			s.refused(p, r.Note)
			p.mu.Unlock()
		}
	}
}

// reseedQueue pushes every replayed still-queued command back into the
// matching queue and requeues commands whose assignment was journaled but
// whose result never arrived (orphans: the worker died with the server, or
// its result is still in flight — if it lands later, the duplicate-result
// path settles it and pulls the requeue). Orphans go through requeueOrFail
// like a live worker loss — same retry cap, so a command that straddles
// restart after restart is not retried without bound — and, the replay flag
// being cleared by now, are journaled like one.
func (s *Server) reseedQueue() (orphans, queued int) {
	for _, p := range s.projectList() {
		p.mu.Lock()
		for id, cs := range p.commands {
			if p.state != projRunning {
				break // ended before the restart, or by a terminal orphan failure below
			}
			switch cs.status {
			case cmdQueued:
				if err := s.enqueue(cs); err != nil {
					s.log.Error("re-seeding queued command failed", "cmd", id, "err", err)
				} else {
					queued++
				}
			case cmdRunning:
				if s.requeueOrFail(p, cs, cs.worker, "orphaned by restart"); cs.status == cmdQueued {
					orphans++
				}
			}
		}
		p.mu.Unlock()
	}
	return orphans, queued
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
			s.log.Warn("background snapshot failed", "err", err)
		}
	})
	if !started {
		s.snapshotting.Store(false)
	}
}

// SnapshotNow rotates the WAL and writes a snapshot of all project state,
// letting the store compact everything older. The ordering is what makes
// it crash-safe: rotate FIRST, capture second, commit third — any record
// journaled during the capture lands in the new segment and is replayed
// (idempotently) on top of the snapshot, so no transition can fall between
// the two, and is durable before the snapshot that may reflect it is. The
// snapshot is stamped with the rotate-time last sequence, not a later
// cursor: the capture only guarantees to reflect records journaled before
// the rotation, and recovery skips everything at or below the stamp.
func (s *Server) SnapshotNow() error {
	st := s.cfg.Store
	if st == nil {
		return nil
	}
	idx, lastSeq, err := st.Rotate()
	if err != nil {
		return err
	}
	snap, err := s.captureSnapshot()
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
	s.log.Info("snapshot written", "baseline_segment", idx, "projects", len(snap.Projects))
	return nil
}

// captureSnapshot serializes every project under its own lock. Journal
// calls hold the same lock, so each project's image is consistent with the
// WAL ordering; the caller commits before publishing the image.
func (s *Server) captureSnapshot() (*store.Snapshot, error) {
	snap := &store.Snapshot{Tenants: s.q.Tenants()}
	for _, p := range s.projectList() {
		p.mu.Lock()
		sp := store.ProjectSnap{
			Name:       p.name,
			Controller: p.ctrl.Name(),
			Tenant:     p.tenant,
			Priority:   p.priority,
			State:      string(p.state),
			Generation: p.generation,
			Note:       p.note,
			FailErr:    p.failErr,
			Result:     p.result,
			Finished:   p.finished,
			Failed:     p.failed,
			Seed:       p.seed,
		}
		if p.state == projRunning {
			d, ok := p.ctrl.(controller.Durable)
			if !ok {
				p.mu.Unlock()
				return nil, fmt.Errorf("server: controller %q does not implement controller.Durable; cannot snapshot", p.ctrl.Name())
			}
			blob, err := d.SaveState()
			if err != nil {
				p.mu.Unlock()
				return nil, fmt.Errorf("server: serializing controller state for %q: %w", p.name, err)
			}
			sp.CtrlState = blob
		}
		for _, cs := range p.commands {
			sp.Commands = append(sp.Commands, store.CommandSnap{
				Spec:       cs.spec,
				Status:     int(cs.status),
				Worker:     cs.worker,
				Retries:    cs.retries,
				Checkpoint: cs.checkpoint,
				Preempts:   cs.preempts,
			})
		}
		p.mu.Unlock()
		snap.Projects = append(snap.Projects, sp)
	}
	return snap, nil
}
