// Durable project state: journaling of lifecycle transitions into the
// configured store, snapshot capture at WAL rotation, and the startup
// recovery path that replays snapshot + tail into a fresh server.
//
// Recovery is event-sourced: the WAL journals the server's *inputs*
// (project parameters, results in arrival order) and replay re-runs the
// deterministic controllers through the normal handlers, re-deriving
// everything they had computed. Snapshots bound replay time by capturing
// full project state — including serialized controller state
// (controller.Durable) — so compaction can delete old segments.
package server

import (
	"fmt"
	"time"

	"copernicus/internal/controller"
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
// Transitions with no reply (reap, requeue, preempt, progress notes) only
// journal; the next barrier or the syncer's own pace makes them durable.
func (s *Server) commit() {
	if !s.journaling() {
		return
	}
	// A failed fsync is logged and counted once by the store, not by each
	// handler waiting on it; like journal, the server carries on.
	_ = s.cfg.Store.Commit(s.cfg.Store.LastSeq())
}

// withProject runs f under the project lock if the project exists.
func (s *Server) withProject(name string, f func(*project)) {
	s.mu.Lock()
	p := s.projects[name]
	s.mu.Unlock()
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	f(p)
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
	s.replaying.Store(true)
	restored := 0
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
	s.replaying.Store(false)
	orphans, queued := s.reseedQueue()
	if rec.Torn != "" {
		s.log.Warn("write-ahead log ended in a torn record; discarded "+
			"(it was never acknowledged)", "detail", rec.Torn)
	}
	s.mu.Lock()
	nProjects := len(s.projects)
	s.mu.Unlock()
	s.log.Info("recovered durable state",
		"projects", nProjects, "from_snapshot", restored,
		"replayed_records", len(rec.Records), "queued", queued,
		"orphans_requeued", orphans, "elapsed", time.Since(start))
}

// restoreProject rebuilds one project from its snapshot image, restoring
// the controller's serialized state instead of re-running Start.
func (s *Server) restoreProject(ps store.ProjectSnap) error {
	ctrl, err := s.reg.New(ps.Controller)
	if err != nil {
		return err
	}
	if ps.State == "running" {
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
		state:      ps.State,
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
	if p.state != "running" {
		close(p.done)
	}
	now := time.Now()
	for _, cs := range ps.Commands {
		p.commands[cs.Spec.ID] = &cmdState{
			spec:        cs.Spec,
			status:      cmdStatus(cs.Status),
			worker:      cs.Worker,
			retries:     cs.Retries,
			checkpoint:  cs.Checkpoint,
			streamed:    cs.Streamed,
			submittedAt: now,
		}
	}
	s.mu.Lock()
	s.projects[ps.Name] = p
	s.mu.Unlock()
	return nil
}

// replayRecord applies one journaled event. Every branch is idempotent
// against state the snapshot already reflects (the Rotate→capture overlap
// window), which is what makes the snapshot protocol safe.
func (s *Server) replayRecord(r store.Record) {
	switch r.Type {
	case store.RecProjectSubmitted:
		s.mu.Lock()
		if _, dup := s.projects[r.Project]; dup {
			s.mu.Unlock()
			return
		}
		ctrl, err := s.reg.New(r.Note)
		if err != nil {
			s.mu.Unlock()
			s.log.Error("replaying project submit failed", "project", r.Project, "err", err)
			return
		}
		p := &project{
			name:     r.Project,
			ctrl:     ctrl,
			tenant:   r.Tenant,
			priority: r.Count,
			state:    "running",
			commands: make(map[string]*cmdState),
			done:     make(chan struct{}),
			seed:     seedFromName(r.Project),
		}
		s.projects[r.Project] = p
		s.mu.Unlock()
		p.mu.Lock()
		if err := ctrl.Start(s.contextFor(p), r.Data); err != nil {
			// Deterministic: the live Start failed the same way.
			p.state = "failed"
			p.failErr = err.Error()
			close(p.done)
		}
		p.mu.Unlock()

	case store.RecCommandQueued:
		var spec wire.CommandSpec
		if err := wire.Unmarshal(r.Data, &spec); err != nil {
			return
		}
		// Usually a duplicate of what the replayed handler already
		// submitted; only a crash between journal and apply leaves a gap.
		s.withProject(r.Project, func(p *project) {
			if p.commands[spec.ID] == nil {
				p.commands[spec.ID] = &cmdState{spec: spec, status: cmdQueued, submittedAt: time.Now()}
			}
		})

	case store.RecCommandAssigned:
		s.withProjectCommand(r.Project, r.Command, func(p *project, cs *cmdState) {
			if cs.status == cmdQueued {
				cs.status = cmdRunning
				cs.worker = r.Worker
				cs.dispatchedAt = time.Now()
			}
		})

	case store.RecCheckpoint:
		s.withProjectCommand(r.Project, r.Command, func(p *project, cs *cmdState) {
			cs.checkpoint = r.Data
		})

	case store.RecFrameChunk:
		var chunk wire.FrameChunk
		if err := wire.Unmarshal(r.Data, &chunk); err != nil {
			return
		}
		s.mu.Lock()
		p := s.projects[r.Project]
		s.mu.Unlock()
		if p != nil {
			// Same ingest path as live delivery: the watermark advances and
			// the controller's frame sink sees the identical stream, so a
			// recovered or promoted server resumes the analysis exactly
			// where the WAL left it.
			_, _ = s.ingestChunk(p, &chunk, r.Data)
		}

	case store.RecResult:
		var res wire.CommandResult
		if err := wire.Unmarshal(r.Data, &res); err != nil {
			return
		}
		s.mu.Lock()
		p := s.projects[res.Project]
		s.mu.Unlock()
		if p == nil {
			return
		}
		// The normal ingest path, with journaling/metrics suppressed by the
		// replay flag: settled commands are skipped, fresh ones drive the
		// controller exactly as they did live.
		if _, _, err := s.ingestResult(p, &res, nil); err != nil {
			s.log.Warn("replaying result failed", "cmd", res.CommandID, "err", err)
		}

	case store.RecCommandRequeued:
		s.withProjectCommand(r.Project, r.Command, func(p *project, cs *cmdState) {
			if cs.status == cmdRunning {
				cs.status = cmdQueued
				cs.worker = ""
				cs.retries = r.Count
				cs.submittedAt = time.Now()
			}
		})

	case store.RecCommandPreempted:
		s.withProjectCommand(r.Project, r.Command, func(p *project, cs *cmdState) {
			if cs.status == cmdRunning {
				cs.status = cmdQueued
				cs.worker = ""
				cs.preempts = r.Count
				cs.submittedAt = time.Now()
			}
		})

	case store.RecTenantQuota:
		var upd wire.TenantQuotaUpdate
		if err := wire.Unmarshal(r.Data, &upd); err != nil {
			return
		}
		s.q.SetQuota(upd)

	case store.RecCommandFailed:
		s.withProjectCommand(r.Project, r.Command, func(p *project, cs *cmdState) {
			if cs.status != cmdRunning && cs.status != cmdQueued {
				return
			}
			cs.status = cmdFailed
			p.failed++
			if p.state != "running" {
				return
			}
			if err := p.ctrl.CommandFailed(s.contextFor(p), cs.spec, r.Note); err != nil && p.state == "running" {
				p.state = "failed"
				p.failErr = err.Error()
				close(p.done)
			}
		})

	case store.RecGeneration:
		s.withProject(r.Project, func(p *project) {
			p.generation = r.Generation
			p.note = r.Note
		})

	case store.RecProjectFinished:
		s.withProject(r.Project, func(p *project) {
			if p.state == "running" {
				p.state = "finished"
				p.result = r.Data
				close(p.done)
			}
		})

	case store.RecProjectFailed:
		s.withProject(r.Project, func(p *project) {
			if p.state == "running" {
				p.state = "failed"
				p.failErr = r.Note
				close(p.done)
			}
		})
	}
}

// reseedQueue pushes every replayed still-queued command back into the
// matching queue and requeues commands whose assignment was journaled but
// whose result never arrived (orphans: the worker died with the server, or
// its result is still in flight — if it lands later, the duplicate-result
// path settles it and pulls the requeue). Orphan requeues count against
// cfg.MaxRetries exactly like live worker-loss requeues. Runs after the
// replay flag is cleared so the requeues are journaled like live ones.
func (s *Server) reseedQueue() (orphans, queued int) {
	s.mu.Lock()
	ps := make([]*project, 0, len(s.projects))
	for _, p := range s.projects {
		ps = append(ps, p)
	}
	s.mu.Unlock()
	for _, p := range ps {
		p.mu.Lock()
		if p.state != "running" {
			p.mu.Unlock()
			continue
		}
		gangs := make(map[string]int) // gang ID → size, checked after re-seeding
		for id, cs := range p.commands {
			if p.state != "running" {
				break // a terminal orphan failure below failed the project
			}
			if cs.spec.GangID != "" {
				gangs[cs.spec.GangID] = cs.spec.GangSize
			}
			switch cs.status {
			case cmdQueued:
				spec := cs.spec
				if len(cs.checkpoint) > 0 {
					spec.Checkpoint = cs.checkpoint
				}
				// Requeue, not Push: these commands were admitted before the
				// restart; re-running admission could bounce accepted work.
				if err := s.q.Requeue(spec); err != nil {
					s.log.Error("re-seeding queued command failed", "cmd", id, "err", err)
				} else {
					queued++
				}
			case cmdRunning:
				// Same retry cap as the live recovery path: a command that
				// straddles restart after restart must not be retried
				// without bound.
				if cs.retries >= s.cfg.MaxRetries {
					s.journal(store.Record{Type: store.RecCommandFailed,
						Project: p.name, Command: id, Worker: cs.worker,
						Note: "orphaned by restart; retries exhausted"})
					cs.status = cmdFailed
					p.failed++
					s.met.failed.Inc()
					s.log.Warn("restart orphan failed terminally",
						"cmd", id, "project", p.name, "retries", cs.retries)
					if err := p.ctrl.CommandFailed(s.contextFor(p), cs.spec,
						"orphaned by restart; retries exhausted"); err != nil && p.state == "running" {
						p.state = "failed"
						p.failErr = err.Error()
						close(p.done)
					}
					continue
				}
				cs.retries++
				s.journal(store.Record{Type: store.RecCommandRequeued,
					Project: p.name, Command: id, Worker: cs.worker,
					Count: cs.retries, Note: "orphaned by restart"})
				cs.status = cmdQueued
				cs.worker = ""
				cs.submittedAt = time.Now()
				cs.dispatchedAt = time.Time{}
				spec := cs.spec
				if len(cs.checkpoint) > 0 {
					spec.Checkpoint = cs.checkpoint
				}
				if err := s.q.Requeue(spec); err != nil {
					s.log.Error("requeueing orphaned command failed", "cmd", id, "err", err)
				} else {
					orphans++
					s.met.requeued.Inc()
				}
			}
		}
		// Gangs whose members partly finished or failed before the restart
		// can never refill; demote the re-seeded stragglers to solo. Checked
		// after the loop so every surviving member is back in the queue.
		for gid, size := range gangs {
			s.maybeDemoteGangLocked(p, gid, size)
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
	s.mu.Lock()
	ps := make([]*project, 0, len(s.projects))
	for _, p := range s.projects {
		ps = append(ps, p)
	}
	s.mu.Unlock()
	snap := &store.Snapshot{Tenants: s.q.Tenants()}
	for _, p := range ps {
		p.mu.Lock()
		sp := store.ProjectSnap{
			Name:       p.name,
			Controller: p.ctrl.Name(),
			Tenant:     p.tenant,
			Priority:   p.priority,
			State:      p.state,
			Generation: p.generation,
			Note:       p.note,
			FailErr:    p.failErr,
			Result:     p.result,
			Finished:   p.finished,
			Failed:     p.failed,
			Seed:       p.seed,
		}
		if p.state == "running" {
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
				Streamed:   cs.streamed,
			})
		}
		p.mu.Unlock()
		snap.Projects = append(snap.Projects, sp)
	}
	return snap, nil
}
