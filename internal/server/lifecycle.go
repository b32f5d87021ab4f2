// The command lifecycle of §2.3 — queued, handed out, checkpointed, and on a
// lost worker requeued from its checkpoint or failed, exactly once — as one
// transition table. Live handlers, WAL replay (replayRecord) and the restart
// reseed (reseedQueue) all call the functions below; none of them sets a
// status, ends a project or journals a command record on its own.
//
// Every transition runs under p.mu, checks the status it moves from (any
// other is a no-op, which is what absorbs a redelivered message, a race lost
// to another handler and a record replayed over a snapshot that already
// reflects it), then journals, mutates and has its effects, in that order.
// Only inputs and the server's own decisions are journaled (persist.go): what
// a controller does in reply, replaying the input makes it do again.
// What replay must not do again is decided in three places and
// nowhere else: journaling() writes nothing, admit and enqueue leave the
// matching queue alone (reseedQueue fills it once, from the statuses replay
// ends on), and replay swaps the metric and span sinks for throwaway ones.
package server

import (
	"strconv"
	"time"

	"copernicus/internal/controller"
	"copernicus/internal/obs"
	"copernicus/internal/store"
	"copernicus/internal/wire"
)

// projState is a project's lifecycle state; the values are the strings
// wire.ProjectStatus and store.ProjectSnap carry.
type projState string

const (
	projRunning  projState = "running"
	projFinished projState = "finished"
	projFailed   projState = "failed"
)

// cmdStatus tracks a command through its lifecycle. Queued and running are
// open; the other three are settled and never left.
type cmdStatus int

const (
	cmdQueued cmdStatus = iota
	cmdRunning
	cmdDone
	cmdFailed
	cmdTerminated
)

// cmdState is the project server's record of one command.
type cmdState struct {
	spec         wire.CommandSpec
	status       cmdStatus
	worker       string
	retries      int
	preempts     int    // fair-share preemptions; tracked apart from retries
	checkpoint   []byte // latest partial checkpoint for failover
	streamed     int    // frames already ingested via streamed chunks
	submittedAt  time.Time
	dispatchedAt time.Time
}

func (c *cmdState) settled() bool { return c.status != cmdQueued && c.status != cmdRunning }

// runningOn reports whether the command is running and, as far as both sides
// name one, on worker — not finished, requeued or reassigned since.
func (c *cmdState) runningOn(worker string) bool {
	return c.status == cmdRunning && (worker == "" || c.worker == "" || c.worker == worker)
}

// --- project transitions ---

// end stops a running project — the controller's Finish or Fail, or a
// controller handler that returned an error; besides restoreProject it is the
// only place p.done is closed. Not journaled: replaying the record that drove
// the controller ends the project again.
func (s *Server) end(p *project, to projState, result []byte, reason string) {
	if p.state != projRunning {
		return
	}
	p.state, p.result, p.failErr = to, result, reason
	close(p.done)
}

// react runs one controller handler (Start, CommandFinished, CommandFailed,
// FrameChunk) under p.mu, then admits what it submitted (p.staged) as a batch.
// It returns the handler's error or else the batch's refusal, and then none
// of the batch is left on the project; the caller decides what the error
// means for the project.
func (s *Server) react(p *project, handler func(controller.Context) error) error {
	err := handler(s.contextFor(p))
	if err == nil {
		err = s.admit(p.staged)
	}
	for _, cs := range p.staged {
		if err != nil {
			delete(p.commands, cs.spec.ID)
		} else if cs.status == cmdQueued {
			s.met.submitted.Inc()
			s.trace.Record(obs.Span{Stage: obs.StageSubmit, Command: cs.spec.ID, Project: p.name, Start: cs.submittedAt})
		}
	}
	clear(p.staged)
	p.staged = p.staged[:0]
	return err
}

// reacted ends the project if the controller handler that just ran failed.
func (s *Server) reacted(p *project, err error) {
	if err != nil {
		s.end(p, projFailed, nil, err.Error())
	}
}

// --- command transitions ---

// queued records a command its controller submitted (filled in, valid and
// new to the project); admit pushes it when the handler returns. Not
// journaled: replay re-runs the handler that submitted it.
func (s *Server) queued(p *project, cmd wire.CommandSpec) *cmdState {
	cs := &cmdState{spec: cmd, status: cmdQueued, submittedAt: time.Now()}
	p.commands[cmd.ID] = cs
	return cs
}

// enqueue puts an open command (back) into the matching queue, to resume from
// its last checkpoint. It bypasses admission: the command was admitted when
// it was first queued, and bouncing it now would lose accepted work.
func (s *Server) enqueue(cs *cmdState) error {
	if s.replaying.Load() {
		return nil
	}
	spec := cs.spec
	if len(cs.checkpoint) > 0 {
		spec.Checkpoint = cs.checkpoint
	}
	return s.q.Requeue(spec)
}

// assigned hands a queued command to a worker. It is journaled before the
// workload reply leaves (assign commits), so recovery knows the command may
// be running somewhere and requeues it if no result ever arrives.
func (s *Server) assigned(p *project, cs *cmdState, worker string, cores int) {
	id := cs.spec.ID
	if cs.status != cmdQueued {
		if cs.settled() {
			// Settled between the match and here (a late result, a Terminate):
			// nobody will account for this dispatch; drop its fair-share charge.
			s.q.Release(id, 0)
		}
		return
	}
	s.journal(store.Record{Type: store.RecCommandAssigned, Project: p.name, Command: id, Worker: worker})
	now := time.Now()
	cs.status, cs.worker, cs.dispatchedAt = cmdRunning, worker, now
	wait := now.Sub(cs.submittedAt)
	s.met.dispatchLatency.Observe(wait.Seconds())
	s.trace.Record(obs.Span{Stage: obs.StageQueueWait, Command: id, Project: p.name,
		Start: cs.submittedAt, Duration: wait})
	s.trace.Record(obs.Span{Stage: obs.StageDispatch, Command: id, Project: p.name,
		Worker: worker, Start: now, Attrs: map[string]string{"cores": strconv.Itoa(cores)}})
}

// checkpointed keeps an open command's latest partial checkpoint — §2.3's
// transparent hand-off: whoever runs the command next resumes from it.
func (s *Server) checkpointed(p *project, cs *cmdState, data []byte) {
	if cs.settled() {
		return
	}
	s.journal(store.Record{Type: store.RecCheckpoint, Project: p.name, Command: cs.spec.ID, Data: data})
	cs.checkpoint = data
}

// requeue returns a running command to the queue from its last checkpoint.
// rec is the RecCommandRequeued (worker lost, restart orphan, failure the
// worker reported) or RecCommandPreempted (evicted for a starved tenant) that
// says why; its Count is the new retry or preemption tally. A command the
// queue will not take back fails terminally.
func (s *Server) requeue(p *project, cs *cmdState, rec store.Record) {
	if cs.status != cmdRunning {
		return
	}
	s.journal(rec)
	count := s.met.requeued
	if rec.Type == store.RecCommandPreempted {
		cs.preempts, count = rec.Count, s.met.preempted
	} else {
		cs.retries = rec.Count
	}
	cs.status, cs.worker = cmdQueued, ""
	cs.submittedAt, cs.dispatchedAt = time.Now(), time.Time{}
	// The lost run still billed the tenant's fair share.
	s.q.Release(rec.Command, 0)
	if err := s.enqueue(cs); err != nil {
		s.failed(p, cs, store.Record{Type: store.RecCommandFailed, Project: p.name,
			Command: rec.Command, Worker: rec.Worker, Note: "requeue failed: " + err.Error()})
		return
	}
	count.Inc()
	s.trace.Record(obs.Span{Stage: obs.StageSubmit, Command: rec.Command, Project: p.name,
		Attrs: map[string]string{
			"requeue":          strconv.Itoa(rec.Count),
			"checkpoint_bytes": strconv.Itoa(len(cs.checkpoint)),
		}})
	s.log.Info("requeued command from checkpoint", "cmd", rec.Command, "why", rec.Type.String(),
		"count", rec.Count, "worker", rec.Worker, "note", rec.Note, "checkpoint_bytes", len(cs.checkpoint))
}

// failed fails an open command terminally and tells the controller, which
// decides what that means for the project. rec is the RecCommandFailed; its
// Note is the reason the controller is given.
func (s *Server) failed(p *project, cs *cmdState, rec store.Record) {
	if cs.settled() {
		return
	}
	s.journal(rec)
	cs.status = cmdFailed
	p.failed++
	s.q.Release(rec.Command, 0)
	s.met.failed.Inc()
	s.log.Warn("command failed terminally", "cmd", rec.Command, "project", p.name,
		"worker", rec.Worker, "reason", rec.Note)
	if p.state == projRunning {
		s.reacted(p, s.react(p, func(c controller.Context) error { return p.ctrl.CommandFailed(c, cs.spec, rec.Note) }))
	}
}

// requeueOrFail is the one answer to "the run of cs on worker is lost" — the
// worker died, the server restarted around it, or the worker reported the
// run failed: requeue from the last checkpoint while the retry budget lasts,
// then fail terminally. note annotates both records; a plain worker loss has
// none, and fails as "worker lost".
func (s *Server) requeueOrFail(p *project, cs *cmdState, worker, note string) {
	if !cs.runningOn(worker) {
		return
	}
	rec := store.Record{Type: store.RecCommandRequeued, Project: p.name, Command: cs.spec.ID,
		Worker: worker, Count: cs.retries + 1, Note: note}
	if cs.retries < s.cfg.MaxRetries {
		s.requeue(p, cs, rec)
		return
	}
	rec.Type, rec.Count, rec.Note = store.RecCommandFailed, 0, "worker lost"
	if note != "" {
		rec.Note = note + "; retries exhausted"
	}
	s.failed(p, cs, rec)
}

// done applies a command's final result: the output is journaled in full (so
// replay needs no shared-FS spool file) before the controller reacts, and the
// caller commits it before the worker is acked; whatever the controller does
// in reply, replaying this record does again. encoded is res as it arrived,
// journaled as it is; nil when the caller has altered res's content since,
// and from replay, which journals nothing. A result for a settled command is
// a redelivery: acknowledged, so the sender stops, and ignored.
func (s *Server) done(p *project, cs *cmdState, res *wire.CommandResult, encoded []byte) ([]byte, error) {
	if cs.settled() {
		s.met.duplicates.Inc()
		return []byte("ignored"), nil
	}
	if cs.status == cmdQueued {
		// A "dead" worker's result arrived after its command was requeued:
		// accept the work and pull the duplicate dispatch before another
		// worker wastes cycles on it.
		s.q.Remove(res.CommandID)
	}
	rec := store.Record{Type: store.RecResult,
		Project: res.Project, Command: res.CommandID, Worker: res.WorkerID, Data: encoded}
	if encoded != nil {
		s.journal(rec)
	} else {
		s.journalPayload(rec, res)
	}
	cs.status = cmdDone
	p.finished++
	// Settle the fair-share charge with the measured wall time and bill the
	// retained output to the tenant's storage account. Replay has nothing in
	// flight to release, but deliberately charges storage, so tail results
	// re-accrue usage on top of the snapshot's tenant image.
	s.q.Release(res.CommandID, res.WallSeconds)
	if len(res.Output) > 0 {
		s.q.ChargeStorage(cs.spec.Tenant, int64(len(res.Output)))
	}
	s.met.finished.Inc()
	s.met.resultBytes.Observe(float64(len(res.Output)))
	s.met.reg.Counter("copernicus_worker_commands_total",
		"Commands finished, by reporting worker.", obs.L("worker", res.WorkerID)).Inc()
	s.trace.Record(obs.Span{Stage: obs.StageResult, Command: res.CommandID, Project: res.Project,
		Worker: res.WorkerID, Attrs: map[string]string{
			"bytes":        strconv.Itoa(len(res.Output)),
			"wall_seconds": strconv.FormatFloat(res.WallSeconds, 'g', 4, 64),
		}})
	if p.state != projRunning {
		return []byte("ok"), nil
	}
	span := obs.Span{Stage: obs.StageController, Command: res.CommandID, Project: res.Project, Start: time.Now()}
	err := s.react(p, func(c controller.Context) error { return p.ctrl.CommandFinished(c, res) })
	span.Duration = time.Since(span.Start)
	s.met.controllerTime.Observe(span.Duration.Seconds())
	reply := []byte("ok")
	if err != nil {
		span.Err, reply = err.Error(), nil
		s.log.Error("controller reaction failed", "project", p.name, "cmd", res.CommandID, "err", err)
		s.reacted(p, err)
	}
	s.trace.Record(span)
	return reply, err
}

// terminated settles an open command its controller no longer wants. It is
// not journaled: replay re-runs the handler that asked.
func (s *Server) terminated(p *project, cs *cmdState) {
	switch cs.status {
	case cmdQueued:
		s.q.Remove(cs.spec.ID)
	case cmdRunning:
		// Settle the fair-share in-flight charge now; the worker is told to
		// abort at its next heartbeat and sends no result.
		s.q.Release(cs.spec.ID, 0)
	default:
		return
	}
	cs.status = cmdTerminated
}
