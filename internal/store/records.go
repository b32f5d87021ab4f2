package store

import (
	"fmt"

	"copernicus/internal/wire"
)

// RecordType enumerates the project-lifecycle events the WAL journals.
// Values are part of the on-disk format; never renumber, only append. Types
// no longer written keep their value and name, so older logs still decode.
type RecordType uint8

const (
	// RecProjectSubmitted creates a project; Data holds the controller
	// parameter blob.
	RecProjectSubmitted RecordType = iota + 1
	// RecCommandQueued registered a command with its project (Data: the
	// wire.CommandSpec). No longer written; replay ignores it.
	RecCommandQueued
	// RecCommandAssigned marks a command dispatched to a worker.
	RecCommandAssigned
	// RecCheckpoint stores a command's latest partial checkpoint (Data).
	RecCheckpoint
	// RecResult applies a final command result; Data holds the
	// wire.CommandResult.
	RecResult
	// RecCommandRequeued returns a lost worker's command to the queue;
	// Count carries the new retry tally.
	RecCommandRequeued
	// RecCommandFailed fails a command terminally; Note carries the reason.
	RecCommandFailed
	// RecGeneration advanced the controller's generation counter and status
	// note. No longer written; replay ignores it.
	RecGeneration
	// RecProjectFinished completed a project (Data: the result blob). No
	// longer written; replay ignores it.
	RecProjectFinished
	// RecProjectFailed aborted a project (Note: the error). No longer
	// written; replay ignores it.
	RecProjectFailed
	// RecTenantQuota records a tenant's weight/quota configuration; Data
	// holds the wire.TenantQuotaUpdate. Replayed so quota changes survive
	// restarts and ship to standbys.
	RecTenantQuota
	// RecCommandPreempted returns a running command to the queue because the
	// fair-share scheduler evicted it at a checkpoint boundary for a starved
	// tenant; Count carries the preemption tally. Distinct from
	// RecCommandRequeued so preemptions never consume failure retries.
	RecCommandPreempted
	// RecFrameChunk advances a command's streamed-frame watermark; Data
	// holds the wire.FrameChunk. Journaled so recovery and standby promotion
	// resume the analysis stream without double-counting frames.
	RecFrameChunk
)

// String returns the record type's stable wire name (used by state inspect).
func (t RecordType) String() string {
	switch t {
	case RecProjectSubmitted:
		return "project_submitted"
	case RecCommandQueued:
		return "command_queued"
	case RecCommandAssigned:
		return "command_assigned"
	case RecCheckpoint:
		return "checkpoint"
	case RecResult:
		return "result"
	case RecCommandRequeued:
		return "command_requeued"
	case RecCommandFailed:
		return "command_failed"
	case RecGeneration:
		return "generation"
	case RecProjectFinished:
		return "project_finished"
	case RecProjectFailed:
		return "project_failed"
	case RecTenantQuota:
		return "tenant_quota"
	case RecCommandPreempted:
		return "command_preempted"
	case RecFrameChunk:
		return "frame_chunk"
	default:
		return fmt.Sprintf("unknown(%d)", uint8(t))
	}
}

// Record is one journaled lifecycle event. The flat shape (typed fields
// plus an opaque Data payload) lets the inspector render every record
// without knowing controller internals and gives recovery a single switch to
// replay. Its fields are part of the on-disk format (format.go): only ever
// append one, as for RecordType values.
type Record struct {
	// Seq is the store-assigned monotone sequence number (set by Append).
	Seq uint64
	// Time is the append wall-clock time in Unix nanoseconds (set by Append).
	Time int64
	// Type selects which of the remaining fields are meaningful.
	Type RecordType
	// Project names the project the event belongs to.
	Project string
	// Command is the command ID for command-scoped events.
	Command string
	// Worker is the worker ID for assignment events.
	Worker string
	// Tenant is the owning tenant for tenant-scoped events (project
	// submission, quota updates). Decodes as "" from pre-tenant WALs.
	Tenant string
	// Generation is the new generation in RecGeneration records (older logs).
	Generation int
	// Count carries the retry tally for RecCommandRequeued, the preemption
	// tally for RecCommandPreempted, and the project base priority for
	// RecProjectSubmitted.
	Count int
	// Note is free text: controller name on submit, status note on
	// generation advance, failure reason on failure records.
	Note string
	// Data is the event payload (params, spec, result, checkpoint bytes).
	Data []byte
}

// CommandSnap is one command's durable state inside a snapshot.
type CommandSnap struct {
	Spec       wire.CommandSpec
	Status     int // mirrors the server's cmdStatus enum
	Worker     string
	Retries    int
	Checkpoint []byte
	// Streamed is the command's streamed-frame watermark: how many of its
	// output frames the controller has already ingested via frame chunks.
	// Decodes as 0 from pre-streaming snapshots.
	Streamed int
	// Preempts is the fair-share preemption tally, kept apart from Retries.
	// Decodes as 0 from snapshots written before it was captured.
	Preempts int
}

// ProjectSnap is one project's durable state inside a snapshot, including
// the controller's serialized state (controller.Durable).
type ProjectSnap struct {
	Name       string
	Controller string
	// Tenant and Priority are the multi-tenant fields; both decode as zero
	// values from pre-tenant snapshots.
	Tenant     string
	Priority   int
	State      string
	Generation int
	Note       string
	FailErr    string
	Result     []byte
	Finished   int
	Failed     int
	Seed       uint64
	CtrlState  []byte
	Commands   []CommandSnap
}

// Snapshot is a full durable image of a server's project state, written at
// WAL rotation so older segments can be deleted.
type Snapshot struct {
	// TakenAt is the capture wall-clock time in Unix nanoseconds.
	TakenAt int64
	// LastSeq is the highest record sequence number the image is
	// *guaranteed* to reflect: the last sequence assigned before the WAL
	// rotation that preceded the capture. Records above it may also be
	// reflected (they raced the capture); recovery replays them anyway,
	// which is safe because replay is idempotent. Skipping is only safe
	// at or below this value.
	LastSeq  uint64
	Projects []ProjectSnap
	// Tenants carries the configured tenant accounts (weights and quotas);
	// nil in pre-tenant snapshots.
	Tenants []wire.TenantStatus
}
