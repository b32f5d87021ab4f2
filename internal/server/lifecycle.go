// The command lifecycle of §2.3 — queued, handed out, checkpointed, and on a
// lost worker requeued from its checkpoint or failed, exactly once — as one
// transition table. Each transition is a function of the project and one
// event with no *Core in it: it checks the status it moves from (from any
// other it does nothing, which absorbs redeliveries, lost races and records a
// snapshot already reflects), mutates the project, runs the controller's
// handler where the table says so, and appends what it asks of the core to
// p.fx. The live handlers apply every effect (persist.go);
// recovery applies all but the live-only ones. Only inputs and the server's
// own decisions are journaled: replaying an input re-runs the controller.
package server

import (
	"fmt"
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
	spec        wire.CommandSpec
	status      cmdStatus
	worker      string
	retries     int
	preempts    int    // fair-share preemptions; tracked apart from retries
	checkpoint  []byte // latest partial checkpoint for failover
	submittedAt time.Time
}

func (c *cmdState) settled() bool { return c.status != cmdQueued && c.status != cmdRunning }

// runningOn reports whether the command is running and, as far as both sides
// name one, on worker — not finished, requeued or reassigned since.
func (c *cmdState) runningOn(worker string) bool {
	return c.status == cmdRunning && (worker == "" || c.worker == "" || c.worker == worker)
}

// resumable is the command as it goes back into the queue, from its checkpoint.
func (c *cmdState) resumable() wire.CommandSpec {
	spec := c.spec
	if len(c.checkpoint) > 0 {
		spec.Checkpoint = c.checkpoint
	}
	return spec
}

// env is what the transitions read of the core that holds the project.
type env struct {
	origin  string // node ID stamped on the commands a controller submits
	retries int    // the retry budget: maxRetries, unless a test sets another
	now     func() time.Time
	obs     *obs.Obs       // controllers' own (Context.Obs)
	met     *serverMetrics // named by metric effects, never written here
}

// fxKind is what an effect asks for. The kinds up to fxObserve are live
// only: recovery drops them (docs/PERSISTENCE.md, "Live only").
type fxKind uint8

const (
	fxJournal fxKind = iota // stage rec in the write-ahead log
	fxAdmit                 // push p.staged as one batch; a refusal comes back as refused
	fxRequeue               // push cs back from its checkpoint; a refusal fails it, else observe
	fxStop                  // mark rec.Command stop on rec.Worker's record: taken without its report
	fxDrop                  // take rec.Command off rec.Worker's record: its own report ended the run
	fxObserve               // counter.Inc(), hist.Observe(value), record span: those set
	fxRelease               // settle command id's in-flight charge at value wall seconds
	fxRemove                // pull command id from the queue
	fxCharge                // bill value bytes to tenant id's storage
	fxLog                   // log msg and kvs at level
)

func (k fxKind) liveOnly() bool { return k <= fxObserve }

// effect is one thing a transition asks of the server; kind says which fields.
type effect struct {
	kind    fxKind
	start   bool // fxAdmit: Start's batch, which a quota or shed refusal withdraws
	rec     store.Record
	cs      *cmdState
	id      string
	value   float64
	counter *obs.Counter
	hist    *obs.Histogram
	span    obs.Span
	level   obs.Level
	msg     string
	kvs     []any
}

func (p *project) emit(e effect)                          { p.fx = append(p.fx, e) }
func (p *project) journal(rec store.Record)               { p.emit(effect{kind: fxJournal, rec: rec}) }
func (p *project) observe(e effect)                       { e.kind = fxObserve; p.emit(e) }
func (p *project) account(k fxKind, id string, v float64) { p.emit(effect{kind: k, id: id, value: v}) }
func (p *project) mark(k fxKind, cs *cmdState, w string) {
	p.emit(effect{kind: k, rec: store.Record{Command: cs.spec.ID, Worker: w}})
}
func (p *project) log(l obs.Level, msg string, kvs ...any) {
	p.emit(effect{kind: fxLog, level: l, msg: msg, kvs: kvs})
}

// --- project transitions ---

// start runs a new project's Start handler, then journals the submission: a
// withdrawing refusal of Start's batch stops apply before that record.
func start(p *project, sub *wire.ProjectSubmit) error {
	err := react(p, true, func(c controller.Context) error { return p.ctrl.Start(c, sub.Params) })
	p.journal(store.Record{Type: store.RecProjectSubmitted, Project: sub.Name,
		Tenant: sub.Tenant, Count: sub.Priority, Note: sub.Controller, Data: sub.Params})
	return err
}

// end stops a running project — Finish, Fail or a handler's error — and,
// besides restoreProject, is the only place p.done is closed. Not journaled:
// replaying the record that drove the controller ends the project again.
func end(p *project, to projState, result []byte, reason string) {
	if p.state != projRunning {
		return
	}
	p.state, p.result, p.failErr = to, result, reason
	close(p.done)
}

// react runs one controller handler with p as its Context, then asks for
// what it submitted (p.staged, kept until the next handler runs, for a
// refusal to drop) to be admitted as one batch. A handler's error fails the
// project, and none of the batch is left on it.
func react(p *project, isStart bool, handler func(controller.Context) error) error {
	clear(p.staged)
	p.staged = p.staged[:0]
	if err := handler(p); err != nil {
		for _, cs := range p.staged {
			delete(p.commands, cs.spec.ID)
		}
		end(p, projFailed, nil, err.Error())
		return err
	}
	if len(p.staged) > 0 {
		p.emit(effect{kind: fxAdmit, start: isStart})
	}
	return nil
}

// refused fails a running project because admission turned away the batch
// its last handler submitted (a quota, the queue bound, a WAL shed or a
// duplicate queue ID), and drops the batch. Replay cannot re-derive that, so
// it is journaled after the record whose replay re-runs the handler.
func refused(p *project, reason string) {
	if p.state != projRunning {
		return
	}
	for _, cs := range p.staged {
		delete(p.commands, cs.spec.ID)
	}
	p.journal(store.Record{Type: store.RecBatchRefused, Project: p.name, Note: reason})
	p.log(obs.LevelError, "controller's batch refused; project failed", "project", p.name, "reason", reason)
	end(p, projFailed, nil, reason)
}

// --- command transitions ---

// assigned hands a queued command to a worker. It is journaled before the
// workload reply leaves (assign commits), so recovery knows the command may
// be running somewhere and requeues it if no result ever arrives.
func assigned(p *project, cs *cmdState, worker string, cores int) {
	id := cs.spec.ID
	if cs.status != cmdQueued {
		if cs.settled() {
			// Settled between the match and here (a late result, a Terminate):
			// nobody will account for this dispatch; drop its fair-share charge.
			p.account(fxRelease, id, 0)
		}
		return
	}
	p.journal(store.Record{Type: store.RecCommandAssigned, Project: p.name, Command: id, Worker: worker})
	now := p.env.now()
	cs.status, cs.worker = cmdRunning, worker
	wait := now.Sub(cs.submittedAt)
	p.observe(effect{hist: p.env.met.dispatchLatency, value: wait.Seconds(), span: obs.Span{
		Stage: obs.StageQueueWait, Command: id, Project: p.name, Start: cs.submittedAt, Duration: wait}})
	p.observe(effect{span: obs.Span{Stage: obs.StageDispatch, Command: id, Project: p.name,
		Worker: worker, Start: now, Attrs: map[string]string{"cores": strconv.Itoa(cores)}}})
}

// checkpointed keeps an open command's latest partial checkpoint — §2.3's
// transparent hand-off: whoever runs the command next resumes from it.
func checkpointed(p *project, cs *cmdState, data []byte) {
	if cs.settled() {
		return
	}
	p.journal(store.Record{Type: store.RecCheckpoint, Project: p.name, Command: cs.spec.ID, Data: data})
	cs.checkpoint = data
}

// requeue returns a running command to the queue from its last checkpoint.
// rec, a RecCommandRequeued (lost run) or RecCommandPreempted (evicted for a
// starved tenant), says why; its Count is the new tally. A command the queue
// will not take back fails terminally (apply).
func requeue(p *project, cs *cmdState, rec store.Record) {
	if cs.status != cmdRunning {
		return
	}
	p.journal(rec)
	count := p.env.met.requeued
	if rec.Type == store.RecCommandPreempted {
		cs.preempts, count = rec.Count, p.env.met.preempted
		p.mark(fxStop, cs, cs.worker)
	} else {
		cs.retries = rec.Count
	}
	cs.status, cs.worker, cs.submittedAt = cmdQueued, "", p.env.now()
	// The lost run still billed the tenant's fair share.
	p.account(fxRelease, rec.Command, 0)
	p.log(obs.LevelInfo, "requeued command from checkpoint", "cmd", rec.Command, "why", rec.Type.String(),
		"count", rec.Count, "worker", rec.Worker, "note", rec.Note, "checkpoint_bytes", len(cs.checkpoint))
	p.emit(effect{kind: fxRequeue, cs: cs, rec: rec, counter: count, span: obs.Span{
		Stage: obs.StageSubmit, Command: rec.Command, Project: p.name, Attrs: map[string]string{
			"requeue":          strconv.Itoa(rec.Count),
			"checkpoint_bytes": strconv.Itoa(len(cs.checkpoint)),
		}}})
}

// failed fails an open command terminally and tells the controller, which
// decides what that means for the project. rec is the RecCommandFailed; its
// Note is the reason the controller is given.
func failed(p *project, cs *cmdState, rec store.Record) {
	if cs.settled() {
		return
	}
	p.journal(rec)
	cs.status = cmdFailed
	p.failed++
	p.account(fxRelease, rec.Command, 0)
	p.observe(effect{counter: p.env.met.failed})
	p.log(obs.LevelWarn, "command failed terminally", "cmd", rec.Command, "project", p.name,
		"worker", rec.Worker, "reason", rec.Note)
	if p.state == projRunning {
		react(p, false, func(c controller.Context) error { return p.ctrl.CommandFailed(c, cs.spec, rec.Note) })
	}
}

// requeueOrFail is the one answer to "the run of cs on worker is lost" (the
// worker died, the server restarted, the worker reported a failure): requeue
// while the retry budget lasts, then fail terminally. note annotates both
// records; a plain worker loss has none, and fails as "worker lost".
func requeueOrFail(p *project, cs *cmdState, worker, note string) bool {
	if !cs.runningOn(worker) {
		return false // finished, terminated, or reassigned elsewhere
	}
	rec := store.Record{Type: store.RecCommandRequeued, Project: p.name, Command: cs.spec.ID,
		Worker: worker, Count: cs.retries + 1, Note: note}
	if cs.retries < p.env.retries {
		requeue(p, cs, rec)
		return true
	}
	rec.Type, rec.Count, rec.Note = store.RecCommandFailed, 0, "worker lost"
	if note != "" {
		rec.Note = note + "; retries exhausted"
	}
	failed(p, cs, rec)
	return true
}

// ingest applies one result message — a checkpoint, a failure the worker
// reports, or the final result, journaled as encoded — and returns the reply.
func ingest(p *project, res *wire.CommandResult, encoded []byte) ([]byte, error) {
	cs := p.command(res.CommandID)
	if cs == nil {
		return []byte("ignored"), nil
	}
	res.CommandID = cs.spec.ID // if it was bare; encoded keeps it as it arrived
	if res.Partial {
		checkpointed(p, cs, res.Checkpoint)
		return []byte("checkpointed"), nil
	}
	p.mark(fxDrop, cs, res.WorkerID) // its run is over: no orphan at its next idle announce
	if !res.OK && !cs.settled() {
		// The run failed on the worker (an engine error). That is a lost run
		// like any other, except that the worker is alive to say so: spend the
		// retry budget, then tell the controller — and acknowledge, so the
		// worker stops redelivering. A run the command has been requeued or
		// reassigned away from is nobody's any more.
		if !cs.runningOn(res.WorkerID) {
			return []byte("ignored"), nil
		}
		p.account(fxRelease, res.CommandID, res.WallSeconds) // the measured charge, not requeue's estimate
		requeueOrFail(p, cs, res.WorkerID, "worker reported failure: "+res.Error)
		return []byte("noted"), nil
	}
	return done(p, cs, res, encoded)
}

// done applies a command's final result, journaled in full (replay needs no
// shared-FS file) and committed before the worker is acked; what the
// controller does in reply, replaying it does again. A result for a settled
// command is a redelivery: acknowledged, so the sender stops, and ignored.
func done(p *project, cs *cmdState, res *wire.CommandResult, encoded []byte) ([]byte, error) {
	if cs.settled() {
		p.observe(effect{counter: p.env.met.duplicates})
		return []byte("ignored"), nil
	}
	if cs.status == cmdQueued {
		// A "dead" worker's result arrived after its command was requeued:
		// accept the work and pull the duplicate dispatch before another
		// worker wastes cycles on it.
		p.account(fxRemove, res.CommandID, 0)
	}
	p.mark(fxStop, cs, cs.worker) // a run elsewhere can only end as a duplicate (the reporter's is dropped)
	p.journal(store.Record{Type: store.RecResult,
		Project: res.Project, Command: res.CommandID, Worker: res.WorkerID, Data: encoded})
	cs.status = cmdDone
	p.finished++
	// Settle the fair-share charge with the measured wall time and bill the
	// retained output to the tenant's storage account. Replay has nothing in
	// flight to release, but deliberately charges storage, so tail results
	// re-accrue usage on top of the snapshot's tenant image.
	p.account(fxRelease, res.CommandID, res.WallSeconds)
	if len(res.Output) > 0 {
		p.account(fxCharge, cs.spec.Tenant, float64(len(res.Output)))
	}
	p.observe(effect{counter: p.env.met.finished, hist: p.env.met.resultBytes, value: float64(len(res.Output)),
		span: obs.Span{Stage: obs.StageResult, Command: res.CommandID, Project: res.Project,
			Worker: res.WorkerID, Start: p.env.now(), Attrs: map[string]string{
				"bytes":        strconv.Itoa(len(res.Output)),
				"wall_seconds": strconv.FormatFloat(res.WallSeconds, 'g', 4, 64),
			}}})
	if p.state != projRunning {
		return []byte("ok"), nil
	}
	span := obs.Span{Stage: obs.StageController, Command: res.CommandID, Project: res.Project, Start: p.env.now()}
	err := react(p, false, func(c controller.Context) error { return p.ctrl.CommandFinished(c, res) })
	span.Duration = p.env.now().Sub(span.Start)
	reply := []byte("ok")
	if err != nil {
		span.Err, reply = err.Error(), nil
		p.log(obs.LevelError, "controller reaction failed", "project", p.name, "cmd", res.CommandID, "err", err)
	}
	p.observe(effect{hist: p.env.met.controllerTime, value: span.Duration.Seconds(), span: span})
	return reply, err
}

// terminated settles an open command its controller no longer wants. It is
// not journaled: replay re-runs the handler that asked.
func terminated(p *project, cs *cmdState) {
	switch cs.status {
	case cmdQueued:
		p.account(fxRemove, cs.spec.ID, 0)
	case cmdRunning:
		// Settle the fair-share in-flight charge now; the worker is told to
		// abort at its next heartbeat and sends no result.
		p.account(fxRelease, cs.spec.ID, 0)
		p.mark(fxStop, cs, cs.worker)
	default:
		return
	}
	cs.status = cmdTerminated
}

// redo applies one journaled record other than a project's submission to p,
// through the transition that wrote it (docs/PERSISTENCE.md has the table).
// The types only older builds wrote are skipped: replaying the input behind
// a command queued, generation or project finished/failed record re-derives
// it, and a command's result record carries the frames of its chunks.
func redo(p *project, r store.Record) {
	var res wire.CommandResult
	switch cs := p.command(r.Command); {
	case r.Type == store.RecResult:
		// Settled commands are skipped, fresh ones drive the controller
		// exactly as they did live.
		if wire.Unmarshal(r.Data, &res) == nil {
			ingest(p, &res, r.Data)
		}
	case r.Type == store.RecBatchRefused:
		refused(p, r.Note)
	case cs == nil:
	case r.Type == store.RecCommandAssigned:
		assigned(p, cs, r.Worker, 0)
	case r.Type == store.RecCheckpoint:
		checkpointed(p, cs, r.Data)
	case r.Type == store.RecCommandRequeued || r.Type == store.RecCommandPreempted:
		requeue(p, cs, r)
	case r.Type == store.RecCommandFailed:
		failed(p, cs, r)
	}
}

// --- the Context a project's controller handlers are given ---

func (p *project) ProjectName() string { return p.name }
func (p *project) Seed() uint64        { return p.seed }
func (p *project) Obs() *obs.Obs       { return p.env.obs }
func (p *project) Logf(f string, args ...any) {
	p.log(obs.LevelInfo, fmt.Sprintf(f, args...), "project", p.name)
}

// Submit queues a command in the handler's batch. Not journaled: replay
// re-runs the handler that submitted it.
func (p *project) Submit(cmd wire.CommandSpec) error {
	cmd.Project, cmd.Origin, cmd.Tenant = p.name, p.env.origin, p.tenant
	if cmd.Priority == 0 {
		cmd.Priority = p.priority
	}
	if err := cmd.Validate(); err != nil {
		return err
	}
	if p.commands[cmd.ID] != nil {
		return fmt.Errorf("server: duplicate command %q in project %q", cmd.ID, p.name)
	}
	cs := &cmdState{spec: cmd, status: cmdQueued, submittedAt: p.env.now()}
	p.commands[cmd.ID], p.staged = cs, append(p.staged, cs)
	return nil
}

func (p *project) Terminate(id string) bool {
	cs, ok := p.commands[id]
	if ok {
		terminated(p, cs)
	}
	return ok
}

func (p *project) SetStatus(generation int, note string) { p.generation, p.note = generation, note }
func (p *project) Finish(result []byte)                  { end(p, projFinished, result, "") }
func (p *project) Fail(err error)                        { end(p, projFailed, nil, err.Error()) }
