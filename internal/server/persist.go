// Applying the transitions' effects (lifecycle.go) — journaling among them —
// snapshot capture, and the startup recovery that replays snapshot + tail
// into a fresh core. When to snapshot, and waiting for the journal to be
// durable, are the shell's (server.go). Recovery is event-sourced: the WAL
// holds the server's inputs (project parameters, results and checkpoints in
// arrival order, quota updates) and its own nondeterministic decisions
// (assignments, requeues, preemptions, terminal failures, admission
// refusals). Replay runs each record through the transition that wrote it,
// re-running the deterministic controllers, and drops the live-only effects.
// Snapshots, with each controller's state (controller.Durable), bound it.
package server

import (
	"errors"
	"fmt"
	"slices"

	"copernicus/internal/controller"
	"copernicus/internal/obs"
	"copernicus/internal/store"
	"copernicus/internal/wire"
)

// apply carries out, in order, the effects p's transitions left in p.fx and
// empties it, under the p.mu the transitions ran under. A push the queue
// refuses is fed back to the transition it causes (refused for a handler's
// batch, failed for a requeue), whose effects follow. It returns a batch's
// refusal; one of Start's batch that withdraws the project stops it there.
func (c *Core) apply(p *project) (refusal error) {
	for i := 0; i < len(p.fx); i++ {
		if err := c.do(p, p.fx[i], c.log); err != nil {
			if refusal = err; p.fx[i].start && withdraws(err) {
				break
			}
			refused(p, err.Error())
		}
	}
	clear(p.fx)
	p.fx = p.fx[:0]
	return refusal
}

// applyReplayed is apply for recovery: it drops the live-only effects, so
// nothing is refused, and logs to log.
func (c *Core) applyReplayed(p *project, log *obs.Logger) {
	for _, e := range p.fx {
		if !e.kind.liveOnly() {
			c.do(p, e, log)
		}
	}
	clear(p.fx)
	p.fx = p.fx[:0]
}

// withdraws reports whether a refusal of Start's batch withdraws the project
// instead of failing it: the client may retry under the same name.
func withdraws(err error) bool {
	return errors.Is(err, wire.ErrQuotaExceeded) || errors.Is(err, wire.ErrAdmissionShed)
}

// do applies one effect of p's and returns admission's refusal of a batch.
func (c *Core) do(p *project, e effect, log *obs.Logger) error {
	switch e.kind {
	case fxJournal:
		c.journal(e.rec)
	case fxAdmit:
		if err := c.admit(p.staged); err != nil {
			return err
		}
		for _, cs := range p.staged {
			if cs.status == cmdQueued {
				c.met.submitted.Inc()
				c.cfg.Obs.Trace.Record(obs.Span{Stage: obs.StageSubmit, Command: cs.spec.ID, Project: p.name, Start: cs.submittedAt})
			}
		}
	case fxRequeue:
		if err := c.q.Requeue(e.cs.resumable()); err != nil {
			failed(p, e.cs, store.Record{Type: store.RecCommandFailed, Project: p.name,
				Command: e.rec.Command, Worker: e.rec.Worker, Note: "requeue failed: " + err.Error()})
			return nil
		}
		fallthrough
	case fxObserve:
		e.counter.Inc() // both nil-safe
		e.hist.Observe(e.value)
		if e.span.Stage != "" {
			c.cfg.Obs.Trace.Record(e.span)
		}
	case fxRelease:
		c.q.Release(e.id, e.value)
	case fxRemove:
		c.q.Remove(e.id)
	case fxCharge:
		c.q.ChargeStorage(e.id, int64(e.value))
	case fxLog:
		log.Log(e.level, e.msg, e.kvs...)
	}
	return nil
}

// journal stages one record — written in project-lock order, not yet
// fsynced — and never blocks on the disk, so it is safe under p.mu. Making
// it durable is the shell's commit (server.go). A failure is availability
// over durability: the store's wal_errors counter and the log record the
// gap, and the server keeps serving.
func (c *Core) journal(rec store.Record) {
	if c.stage == nil {
		return
	}
	if _, err := c.stage(rec); err != nil {
		c.log.Error("journaling state transition failed; continuing without durability",
			"type", rec.Type.String(), "project", rec.Project, "cmd", rec.Command, "err", err)
	}
}

// --- recovery ---

// recover replays a store's recovered image (newest snapshot + WAL tail),
// then re-seeds the queue and requeues commands assigned but never resolved;
// the shell calls it before registering any handler. A project or record
// that fails is logged and skipped: recovery salvages what it can.
func (c *Core) recover(rec *store.Recovered) {
	if rec.Snapshot == nil && len(rec.Records) == 0 {
		return
	}
	start := c.env.now()
	restored := c.replay(rec)
	orphans, queued := c.reseedQueue()
	if rec.Torn != "" {
		c.log.Warn("write-ahead log ended in a torn record; discarded "+
			"(it was never acknowledged)", "detail", rec.Torn)
	}
	c.log.Info("recovered durable state",
		"projects", len(c.projectList()), "from_snapshot", restored,
		"replayed_records", len(rec.Records), "queued", queued,
		"orphans_requeued", orphans, "elapsed", c.env.now().Sub(start))
}

// replay restores the snapshot's projects, then applies every tail record
// through the transition that wrote it minus the live-only effects: nothing
// is journaled, queued or counted again (reseedQueue fills the queue).
func (c *Core) replay(rec *store.Recovered) (restored int) {
	log := c.log.With("replay", true)
	if rec.Snapshot != nil {
		// Tenant accounts first: weights, quotas and the storage already
		// billed, so replayed/reseeded commands land in configured accounts.
		// Fair-share virtual time and core-second usage restart from zero —
		// a restart is a deliberate amnesty, not a billing event.
		for _, ts := range rec.Snapshot.Tenants {
			c.q.SetQuota(wire.TenantQuotaUpdate{
				Tenant:          ts.ID,
				Weight:          ts.Weight,
				MaxQueued:       ts.MaxQueued,
				MaxCores:        ts.MaxCores,
				MaxStorageBytes: ts.MaxStorageBytes,
			})
			if ts.StorageBytes > 0 {
				c.q.ChargeStorage(ts.ID, ts.StorageBytes)
			}
		}
		for _, ps := range rec.Snapshot.Projects {
			if err := c.restoreProject(ps); err != nil {
				log.Error("restoring project from snapshot failed",
					"project", ps.Name, "err", err)
				continue
			}
			restored++
		}
	}
	for _, r := range rec.Records {
		c.replayRecord(r, log)
	}
	return restored
}

// restoreProject rebuilds one project from its snapshot image, restoring
// the controller's serialized state instead of re-running Start. Its
// commands are handed out from here now, wherever the snapshot was written
// (a standby restores its primary's), so they carry this core's origin, as
// the commands a replayed handler submits do.
func (c *Core) restoreProject(ps store.ProjectSnap) error {
	ctrl, err := c.reg.New(ps.Controller)
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
		env:        &c.env,
		commands:   make(map[string]*cmdState, len(ps.Commands)),
		done:       make(chan struct{}),
	}
	if state != projRunning {
		close(p.done)
	}
	now := c.env.now()
	for _, cs := range ps.Commands {
		cs.Spec.Origin = c.env.origin
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
	c.mu.Lock()
	c.projects[ps.Name] = p
	c.mu.Unlock()
	return nil
}

// replayRecord applies one journaled record: a submission or a quota here,
// anything else through redo. A record the snapshot already reflects (the
// Rotate→capture overlap) changes nothing, which keeps snapshots safe.
func (c *Core) replayRecord(r store.Record, log *obs.Logger) {
	switch r.Type {
	case store.RecProjectSubmitted:
		// A project that is already there is one the snapshot reflects; a
		// Start that fails does so as deterministically as it did live.
		sub := &wire.ProjectSubmit{Name: r.Project, Controller: r.Note, Tenant: r.Tenant, Priority: r.Count, Params: r.Data}
		p, err := c.publish(sub)
		if err == nil {
			err = start(p, sub)
			c.applyReplayed(p, log)
			p.mu.Unlock()
		}
		if err != nil {
			log.Warn("replayed project submit", "project", r.Project, "err", err)
		}
	case store.RecTenantQuota:
		var upd wire.TenantQuotaUpdate
		if err := wire.Unmarshal(r.Data, &upd); err == nil {
			c.q.SetQuota(upd)
		}
	default:
		if p := c.project(r.Project); p != nil {
			p.mu.Lock()
			redo(p, r)
			c.applyReplayed(p, log)
			p.mu.Unlock()
		}
	}
}

// reseedQueue, a live step, pushes every still-queued command back into the
// queue and requeues orphans: commands assigned but with no result (the
// worker died with the server, or its result is in flight and settles the
// command, pulling the requeue, when it lands). They go through requeueOrFail
// like a live worker loss, under the same retry cap, journaled like one —
// in command-ID order, so the same journal restarts the same way.
func (c *Core) reseedQueue() (orphans, queued int) {
	for _, p := range c.projectList() {
		p.mu.Lock()
		ids := make([]string, 0, len(p.commands))
		for id := range p.commands {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		// Not once it has ended: before the restart, or by an orphan's failure.
		for i := 0; i < len(ids) && p.state == projRunning; i++ {
			switch cs := p.commands[ids[i]]; cs.status {
			case cmdQueued:
				if err := c.q.Requeue(cs.resumable()); err != nil {
					c.log.Error("re-seeding queued command failed", "cmd", ids[i], "err", err)
				} else {
					queued++
				}
			case cmdRunning:
				requeueOrFail(p, cs, cs.worker, "orphaned by restart")
				if c.apply(p); cs.status == cmdQueued {
					orphans++
				}
			}
		}
		p.mu.Unlock()
	}
	return orphans, queued
}

// --- snapshots ---

// captureSnapshot serializes every project under its own lock. Journal
// calls hold the same lock, so each project's image is consistent with the
// WAL ordering; the caller commits before publishing the image.
func (c *Core) captureSnapshot() (*store.Snapshot, error) {
	snap := &store.Snapshot{Tenants: c.q.Tenants()}
	for _, p := range c.projectList() {
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
