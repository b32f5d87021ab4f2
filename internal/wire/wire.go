// Package wire defines the message vocabulary and framing of the Copernicus
// overlay protocol: command specifications and results, worker announcements,
// workload assignments and heartbeats, together with the length-prefixed
// framing used by every transport.
//
// The protocol is request/response over reliable byte streams (the paper
// chose SSL for the same reason); every payload is a struct from this
// package, carried inside an Envelope that supports TTL-limited
// store-and-forward routing across the server overlay.
//
// Two encodings sit behind Marshal and Unmarshal, one per type. Every
// registered type — the messages of the command round trip (Envelope,
// AnnounceRequest, Workload and its CommandSpecs, CommandResult, Heartbeat
// and its ack, FrameChunk, WorkerFailed), the engines' payloads, outputs and
// checkpoints (internal/engines) and the store's WAL records and snapshots
// (internal/store) — uses the binary codec in codec.go: tag byte 0x00, then
// every struct as
//
//	uvarint bodyLen | fields in declaration order
//
// written from the struct's declaration, with no encoder of its own. The
// declaration order is the format: fields are only ever appended, a short
// body leaves the missing fields zero and a long one is skipped past the last
// known field (the evolution rule; codec.go has the field encodings and the
// one struct tag, `wire:"fixed64"`). Everything else — controller
// parameters, the admin and replication payloads — is gob, which gives the
// same append-only contract by field name. Unmarshal reads either: a gob
// stream never starts with 0x00, so blobs written before the binary codec
// reached a type (WAL records, checkpoints, queued payloads in snapshots)
// still decode.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"reflect"
)

// ProtocolVersion guards against mixed-version overlays. A version names a
// set of encodings: a node speaks exactly one, and the hello/join handshake
// refuses a peer that speaks another with ErrProtoVersion naming both
// versions (a version-1 or -2 hello is gob, which a node reads through the
// gob fallback in order to refuse it). Version 4 is the binary codec on the
// round trip's messages and on the engines' payloads, outputs and
// checkpoints inside them; a version-3 node sends only the round trip's
// messages in it and fails every command whose payload is binary-coded.
// Payload blobs of every version still decode (old WAL records).
//
// Additions ride within a version as appended fields (the codec's evolution
// rule; testdata/shapes.golden lists every coded field in order):
// CommandSpec.GangID/GangSize, ProjectStatus.Detail, the frame-streaming
// messages, AnnounceRequest.WaitSeconds, CommandResult.Refill and
// TenantStatus.Shed/QuotaRejects all arrived that way, and frames captured
// before each existed decode with the new fields at their zero values. A
// field is never removed, only left unread (GangID/GangSize and
// WorkerInfo.Platform are),
// and a message type is never dropped: MsgFrameChunk, whose content servers
// no longer read, is still answered, so a fleet of mixed minor builds
// degrades instead of mis-scheduling.
const ProtocolVersion = 4

// ErrProtoVersion is the sentinel for cross-version handshake and envelope
// rejection; match it with errors.Is. The concrete error is a *VersionError
// carrying both versions.
var ErrProtoVersion = errors.New("wire: protocol version mismatch")

// VersionError reports an envelope whose protocol version differs from this
// node's. It is returned during the overlay handshake (and any later read)
// instead of attempting to decode a frame layout we do not understand.
type VersionError struct {
	Got, Want int
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("wire: protocol version %d, want %d", e.Got, e.Want)
}

// Is makes errors.Is(err, ErrProtoVersion) succeed for VersionErrors.
func (e *VersionError) Is(target error) bool { return target == ErrProtoVersion }

// Admission-control sentinels. Server-side admission and quota enforcement
// return errors carrying one of the ErrCode* codes across the overlay; the
// requesting side maps the code back to these sentinels so retry policies
// can distinguish a terminal quota breach (resubmitting cannot help until an
// operator raises the quota) from load shedding (retry with backoff is the
// correct response).
var (
	// ErrQuotaExceeded is terminal: the tenant is over a configured quota.
	ErrQuotaExceeded = errors.New("wire: tenant quota exceeded")
	// ErrAdmissionShed is retryable: the server shed the request under load.
	ErrAdmissionShed = errors.New("wire: admission control shed request, retry later")
)

// Error codes carried in Envelope.ErrCode. Part of the wire contract; never
// rename, only append.
const (
	ErrCodeQuota        = "quota_exceeded"
	ErrCodeShed         = "admission_shed"
	ErrCodeProtoVersion = "proto_version"
)

// CodeOf maps an error to its wire code ("" for uncoded errors). Servers
// call it when building an error reply.
func CodeOf(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrQuotaExceeded):
		return ErrCodeQuota
	case errors.Is(err, ErrAdmissionShed):
		return ErrCodeShed
	case errors.Is(err, ErrProtoVersion):
		return ErrCodeProtoVersion
	}
	return ""
}

// SentinelFor maps a wire error code back to its sentinel (nil for unknown
// codes). Requesters use it to rebuild errors.Is-matchable errors from
// replies.
func SentinelFor(code string) error {
	switch code {
	case ErrCodeQuota:
		return ErrQuotaExceeded
	case ErrCodeShed:
		return ErrAdmissionShed
	case ErrCodeProtoVersion:
		return ErrProtoVersion
	}
	return nil
}

// MaxFrameBytes bounds a single frame; anything larger is rejected as
// corrupt. A length below the bound is not trusted either: ReadEnvelope
// allocates a large body only as its bytes arrive.
const MaxFrameBytes = 1 << 30

// MsgType enumerates the request types a node can handle.
type MsgType string

// Message types. Requests flow toward servers; responses return on the same
// stream.
const (
	// MsgAnnounce presents a worker's resources (WorkerInfo) and asks for a
	// workload (Workload response, possibly empty).
	MsgAnnounce MsgType = "announce"
	// MsgResult returns a finished command's output (CommandResult).
	MsgResult MsgType = "result"
	// MsgHeartbeat reports liveness of a worker's running commands.
	MsgHeartbeat MsgType = "heartbeat"
	// MsgSubmit submits a new project (ProjectSubmit).
	MsgSubmit MsgType = "submit"
	// MsgStatus queries a project's status (ProjectStatusRequest →
	// ProjectStatus).
	MsgStatus MsgType = "status"
	// MsgPing measures connectivity.
	MsgPing MsgType = "ping"
	// MsgWorkerFailed notifies a project server that a worker missed its
	// heartbeats and its commands must be recovered (WorkerFailed).
	MsgWorkerFailed MsgType = "workerfailed"
	// MsgReplJoin registers (or re-registers) a standby with its primary,
	// reporting the highest WAL sequence it has applied (ReplJoin → ReplAck).
	MsgReplJoin MsgType = "repljoin"
	// MsgReplicate ships a batch of WAL records and/or a snapshot baseline
	// from a primary to its standby; the acknowledgement doubles as a lease
	// renewal in both directions (ReplBatch → ReplAck).
	MsgReplicate MsgType = "replicate"
	// MsgPromoted announces that a standby has promoted itself and now owns
	// the projects previously served by its fenced primary (Promoted).
	MsgPromoted MsgType = "promoted"
	// MsgTenantList asks a server for every tenant it tracks
	// (TenantListRequest → TenantList).
	MsgTenantList MsgType = "tenantlist"
	// MsgTenantQuotaGet queries one tenant's weight, quotas and usage
	// (TenantQuotaRequest → TenantStatus).
	MsgTenantQuotaGet MsgType = "tenantquotaget"
	// MsgTenantQuotaSet configures a tenant's weight and quotas
	// (TenantQuotaUpdate → TenantStatus). The change is journaled on durable
	// servers, so it survives restarts and ships to standbys.
	MsgTenantQuotaSet MsgType = "tenantquotaset"
	// MsgFrameChunk carries a slice of trajectory frames from a worker to
	// the command's project server while the command still runs
	// (FrameChunk). The server answers "ignored" at once and reads nothing:
	// the result carries every frame.
	MsgFrameChunk MsgType = "framechunk"
	// MsgWorkAvailable is a one-way notice (overlay.Node.Flood, no payload,
	// no reply): the sending server has queued commands that none of its own
	// waiting workers took. A server holding idle workers' announces answers
	// it by searching the overlay again on their behalf. It rides within
	// version 2: a node without a handler for it passes it on, as for any
	// anycast type it does not know.
	MsgWorkAvailable MsgType = "workavailable"
)

// Envelope is the routed unit: a typed request or response addressed to a
// node (or to any server holding work, when To is empty).
type Envelope struct {
	Version   int
	Type      MsgType
	From, To  string // node IDs; empty To = "first server that can handle it"
	RequestID uint64 `wire:"fixed64"`
	IsReply   bool
	TTL       int
	Payload   []byte
	Err       string // non-empty on error replies
	// ErrCode carries a machine-readable error class (ErrCode* constants)
	// alongside Err, so requesters can map remote failures back to the
	// ErrQuotaExceeded/ErrAdmissionShed sentinels. Decodes as "" from
	// pre-tenant frames.
	ErrCode string

	// body, when set, is a registered struct (by pointer) that stands in for
	// Payload: the frame carries it where Payload's bytes would go, byte for
	// byte what Payload = Marshal(body) would carry, encoded straight into
	// the frame (SetBody). Unexported, so the codec neither writes nor reads
	// it as a field.
	body     any
	bodySize int // the body's fields, encoded; its length prefix excluded
}

// SetBody makes v what the envelope carries as its Payload. A []byte (or
// nil) is the Payload as it is. A registered struct, or a pointer to one, is
// kept, and AppendEnvelope encodes it straight into the frame, the same bytes
// Payload = Marshal(v) would give, with no payload allocated in between. Any
// other type is marshalled (gob) now. A body the codec cannot encode is
// refused with the error Marshal returns for it, and the envelope is left as
// it was.
//
// A kept body is read whenever the envelope is written, which may be after
// the request carrying it has returned, even by a timeout. The caller hands v
// over for good: nothing may write it after the call, the rule Unmarshal
// states for its data.
func (e *Envelope) SetBody(v any) error {
	switch b := v.(type) {
	case nil:
		e.Payload, e.body = nil, nil
		return nil
	case []byte:
		e.Payload, e.body = b, nil
		return nil
	}
	rv, p, err := value(v)
	if err != nil {
		return err
	}
	if p == nil {
		payload, err := Marshal(v)
		if err != nil {
			return err
		}
		e.Payload, e.body = payload, nil
		return nil
	}
	if err := p.check(rv); err != nil {
		return err
	}
	e.Payload, e.body, e.bodySize = nil, rv.Addr().Interface(), p.size(rv)
	return nil
}

// PayloadLen is the length of the Payload the envelope's frame carries.
func (e *Envelope) PayloadLen() int {
	if e.body == nil {
		return len(e.Payload)
	}
	return 1 + sizeBytes(e.bodySize)
}

// PayloadBytes returns the Payload the envelope's frame carries: Payload
// itself, or the body marshalled. A request served where it was made is
// never framed, and its handler takes bytes.
func (e *Envelope) PayloadBytes() ([]byte, error) {
	if e.body == nil {
		return e.Payload, nil
	}
	return marshal(reflect.ValueOf(e.body).Elem())
}

// CommandSpec describes one simulation command: the unit of work a worker
// executes. Payload is engine-specific (the "executable" plugins interpret
// it); Checkpoint, when non-empty, lets a different worker resume a failed
// command from its last saved state.
type CommandSpec struct {
	ID      string
	Project string
	// Tenant is the owning tenant, inherited from the project at submit
	// time; the fair-share scheduler partitions core time by it. Decodes as
	// "" (the default tenant) from pre-tenant frames.
	Tenant string
	// Origin is the node ID of the project-holding server; workers route
	// results there through the overlay.
	Origin     string
	Type       string // executable name, e.g. "landscape-md"
	MinCores   int
	MaxCores   int
	Priority   int
	Payload    []byte
	Checkpoint []byte
	// GangID and GangSize are decoded and not read. Builds that
	// co-scheduled replica-exchange epochs set them to group an epoch's
	// segments; the fields stay, under the codec's append-only rule, so
	// that those builds' frames, WALs and snapshots still decode. Both
	// decode as zero from frames older than the fields.
	GangID   string
	GangSize int
}

// Validate checks structural invariants of the spec.
func (c *CommandSpec) Validate() error {
	if c.ID == "" {
		return fmt.Errorf("wire: command has no ID")
	}
	if c.Project == "" {
		return fmt.Errorf("wire: command %s has no project", c.ID)
	}
	if c.Type == "" {
		return fmt.Errorf("wire: command %s has no executable type", c.ID)
	}
	if c.MinCores < 1 {
		return fmt.Errorf("wire: command %s requires MinCores >= 1", c.ID)
	}
	if c.MaxCores < c.MinCores {
		return fmt.Errorf("wire: command %s has MaxCores %d < MinCores %d", c.ID, c.MaxCores, c.MinCores)
	}
	return nil
}

// CommandResult is the outcome of executing a command.
type CommandResult struct {
	CommandID string
	Project   string
	WorkerID  string
	OK        bool
	// Partial marks an intermediate checkpoint report: the command is still
	// running, but the server should retain Checkpoint so another worker
	// can resume if this one dies (§2.3's hand-off).
	Partial bool
	Error   string
	Output  []byte
	// OutputPath, when non-empty, points to the output on a filesystem the
	// server shares with the worker (matched by FSToken), avoiding the
	// network copy — the paper's shared-filesystem optimisation.
	OutputPath  string
	Checkpoint  []byte // latest checkpoint, for hand-off on failure
	CoresUsed   int
	WallSeconds float64
	// Refill is the cores a final OK result asks the server to fill: those
	// its run frees, with any others idle on its worker. The reply is then
	// the next Workload (maybe empty), not "ok". 0 asks for nothing, and
	// decodes from older frames.
	Refill int
}

// FrameChunk is a mid-command slice of trajectory frames that a streaming
// engine emits and the worker ships to the project server before the
// command's result. No server ingests one: the result carries every frame.
// Workers still send them while the benchmark harness counts chunks per
// command, and the type stays registered for the frame-chunk records of
// older logs.
//
// FirstFrame indexes into the command's full output frame sequence (frame 0
// is the segment's starting conformation, which duplicates the previous
// segment's end).
type FrameChunk struct {
	Project   string
	CommandID string
	WorkerID  string
	// Seq is the flush counter within one engine run, starting at 0 —
	// diagnostics and ordering, not the dedupe key.
	Seq int
	// FirstFrame is the index of Frames[0] within the command's full
	// output frame sequence.
	FirstFrame int
	Times      []float64   // engine-local times (ns into the command)
	Frames     [][]float64 // conformations
	RMSD       []float64   // RMSD-to-native per frame
	// Final marks the last chunk of the run (the result blob follows).
	Final bool
}

// WorkerInfo announces a worker's resources and capabilities, mirroring the
// paper's bootstrap handshake (architecture, cores, executables).
type WorkerInfo struct {
	ID string
	// Platform is decoded and not read; workers leave it empty. It stays
	// under the codec's append-only rule.
	Platform    string
	Cores       int
	Executables []string
	// FSToken identifies the filesystem the worker can exchange files on;
	// servers with the same token accept results by path reference.
	FSToken string
}

// Workload is a server's reply to an announcement: the set of commands the
// worker should run and how many cores each gets.
type Workload struct {
	Commands []CommandSpec
	// Cores[id] is the core count assigned to command id.
	Cores map[string]int
	// HeartbeatSeconds tells the worker how often to report.
	HeartbeatSeconds float64
	// SharedFS is set when the assigning server determined (by FSToken)
	// that it shares a filesystem with the worker, so results may be
	// passed by path reference instead of bytes.
	SharedFS bool
}

// Heartbeat reports that a worker and its commands are alive. It is
// intentionally tiny (the paper: "typically less than 200 bytes").
type Heartbeat struct {
	WorkerID   string
	CommandIDs []string
}

// HeartbeatAck optionally carries command IDs the server wants aborted
// (e.g. trajectories terminated by the adaptive controller).
type HeartbeatAck struct {
	AbortCommandIDs []string
}

// AnnounceRequest wraps a worker announcement. Relayed marks announcements
// a server forwards into the overlay on a worker's behalf; a server whose
// queue is empty declines relayed announcements (so the overlay keeps
// searching) but holds a direct one until work turns up or the hold runs
// out, and then answers it with an empty workload.
type AnnounceRequest struct {
	Info    WorkerInfo
	Relayed bool
	// WaitSeconds is how long the worker is prepared to wait for the reply:
	// a server with nothing to hand out holds the announce no longer than
	// this (and no longer than its own limit). Workers set it well inside
	// their per-attempt request deadline. Decodes as 0 from frames that
	// predate it, which a server reads as "not stated" and holds for its own
	// limit, as it always held such a worker.
	WaitSeconds float64
}

// WorkerFailed reports a heartbeat timeout to a project server, listing the
// affected commands so they can be requeued from their last checkpoints.
type WorkerFailed struct {
	WorkerID   string
	CommandIDs []string
}

// ProjectSubmit creates a project on the receiving server. Tenant, Priority
// and Deadline are the multi-tenant control-plane fields added in protocol
// v2; all three decode as zero values from pre-tenant frames.
type ProjectSubmit struct {
	Name       string
	Controller string // controller plugin name
	Params     []byte // controller-specific configuration
	// Tenant bills the project's commands to this tenant's fair-share
	// account and quotas ("" = the default tenant).
	Tenant string
	// Priority is the base priority commands inherit when the controller
	// does not set one itself.
	Priority int
	// DeadlineUnixNano, when non-zero, is the client's submission deadline:
	// a server admitting the project after this instant rejects it instead
	// of starting work the client has given up on.
	DeadlineUnixNano int64
}

// SubmitReceipt acknowledges an admitted project submission.
type SubmitReceipt struct {
	Project string
	Tenant  string
	// Server is the node ID of the admitting project server.
	Server string
	// AcceptedUnixNano is the server-side admission timestamp.
	AcceptedUnixNano int64
}

// ProjectStatusRequest queries one project by name.
type ProjectStatusRequest struct {
	Name string
}

// ProjectStatus is a monitoring snapshot.
type ProjectStatus struct {
	Name       string
	Controller string
	Tenant     string
	State      string
	Queued     int
	Running    int
	Finished   int
	Failed     int
	Generation int
	Note       string
	Result     []byte // non-nil once the project has finished
	// Detail is an optional controller-specific status blob (gob), filled
	// when the project's controller exposes live structured state — the
	// repex controller publishes its exchange-acceptance statistics here.
	// Decodes as nil from frames older than the field.
	Detail []byte
}

// ReplJoin is a standby's registration with its primary. AppliedSeq lets the
// primary resume shipping exactly where the standby left off (or decide a
// snapshot baseline is needed because older records were compacted away).
type ReplJoin struct {
	StandbyID string
	// Addr is the standby's transport address, persisted by the primary so a
	// restarted ex-primary can find its fencer and demote cleanly.
	Addr       string
	Epoch      uint64
	AppliedSeq uint64
}

// ReplBatch is one replication shipment from primary to standby. A batch
// with no records and no snapshot is a pure lease heartbeat. Snapshot, when
// non-nil, carries a verbatim snapshot-file image the standby installs as
// its new baseline (compacting its replicated WAL).
type ReplBatch struct {
	PrimaryID string
	Epoch     uint64
	// Snapshot baseline (optional): the raw snapshot file bytes plus the
	// sequence number it is guaranteed to reflect.
	Snapshot    []byte
	SnapLastSeq uint64
	// Records is a gob-encoded []store.Record slice, in ascending,
	// contiguous sequence order; FirstSeq/LastSeq frame it. The store
	// packages on either side exchange records as opaque gob blobs, so the
	// wire layer stays ignorant of the WAL record schema.
	Records  []byte
	Count    int
	FirstSeq uint64
	LastSeq  uint64
	// LeaseTimeoutMillis tells the standby how long to wait after the last
	// accepted batch before concluding the primary is dead and promoting.
	LeaseTimeoutMillis int64
	// TailSeq is the last sequence in the primary's journal when it shipped
	// the batch. A standby whose applied frontier has reached it held every
	// record the primary had; since it last (re)joined, a standby promotes
	// only after that has happened. A batch from a primary older than the
	// field decodes with TailSeq 0, which every standby has reached, so
	// against such a primary the lease alone decides, as it used to.
	TailSeq uint64
}

// ReplAck acknowledges a ReplJoin or ReplBatch. Receiving a non-refused ack
// renews the primary's side of the lease; sending one renews the standby's.
// Epoch is always the responder's current epoch: a value above the sender's
// tells the sender it has been fenced by a promotion.
type ReplAck struct {
	ResponderID string
	Epoch       uint64
	AppliedSeq  uint64
	Refused     bool
	Reason      string
}

// Promoted announces a standby's self-promotion on the overlay. A fenced
// ex-primary that receives it demotes to standby; workers re-home to the new
// owner; clients retarget submissions.
type Promoted struct {
	NodeID   string
	Epoch    uint64
	Projects []string
}

// TenantStatus is one tenant's scheduler account: configuration (weight and
// quotas; zero quota fields mean unlimited) plus live usage, served by the
// tenant admin messages and embedded in durable snapshots.
type TenantStatus struct {
	ID     string
	Weight float64
	// Quotas (0 = unlimited).
	MaxQueued       int
	MaxCores        int
	MaxStorageBytes int64
	// Usage.
	Queued        int
	InflightCores int
	CoreSeconds   float64
	StorageBytes  int64
	// OldestWaitSeconds is how long the tenant's oldest queued command has
	// been waiting (0 when nothing is queued).
	OldestWaitSeconds float64
	// Shed and QuotaRejects count the tenant's submissions refused by
	// admission control (retryable) and by a quota (terminal). Appended;
	// a snapshot carries them, and restore leaves them at zero.
	Shed         int `wire:"appended"`
	QuotaRejects int `wire:"appended"`
}

// TenantListRequest asks for all tenant accounts.
type TenantListRequest struct{}

// TenantList is the reply to MsgTenantList.
type TenantList struct {
	Tenants []TenantStatus
}

// TenantQuotaRequest queries one tenant by ID.
type TenantQuotaRequest struct {
	Tenant string
}

// TenantQuotaUpdate configures a tenant's scheduling weight and quotas.
// Weight <= 0 keeps the current weight; negative quota fields keep the
// current value, zero clears (unlimited).
type TenantQuotaUpdate struct {
	Tenant          string
	Weight          float64
	MaxQueued       int
	MaxCores        int
	MaxStorageBytes int64
}

// Marshal encodes a payload struct: the binary codec for the registered
// types (into one buffer of exactly the encoded size), gob for the rest. A
// nil pointer is an error under either.
func Marshal(v any) ([]byte, error) {
	rv, p, err := value(v)
	if err != nil {
		return nil, err
	}
	if p != nil {
		return marshal(rv)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("wire: encoding %T: %w", v, err)
	}
	return buf.Bytes(), nil
}

// value returns v, a registered struct or a pointer to one, as an
// addressable struct with its plan, and no plan for any other type.
func value(v any) (reflect.Value, *plan, error) {
	p := registered(reflect.TypeOf(v))
	if p == nil {
		return reflect.Value{}, nil, nil
	}
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer {
		// The codec reaches fields by address: a struct given by value is
		// copied behind a new pointer.
		ptr := reflect.New(rv.Type())
		ptr.Elem().Set(rv)
		rv = ptr
	}
	if rv.IsNil() {
		return reflect.Value{}, nil, fmt.Errorf("wire: encoding %T: nil pointer", v)
	}
	return rv.Elem(), p, nil
}

// marshal is Marshal of rv, an addressable registered struct.
func marshal(rv reflect.Value) ([]byte, error) {
	b, err := encode(nil, rv, 1)
	if err == nil {
		b[0] = codecTag
	}
	return b, err
}

// Unmarshal decodes data into v, whichever of the two encodings data is in.
//
// The binary codec decodes in place: the []byte fields of the result
// (Envelope.Payload, CommandSpec.Payload and Checkpoint, CommandResult.Output
// and Checkpoint, and the engines' checkpoint and state bytes) are sub-slices
// of data, not copies. Callers therefore hand
// over data for good — it must not be written to or reused while v is alive.
// A single writer (an overlay link's write loop, the WAL appender) encodes
// every message into one send buffer it owns and reuses; a receiver
// allocates each frame (readBody, a WAL record's copy) and hands it over.
// Nothing is ever decoded from a send buffer. The sending side has the
// mirror rule: a body handed to Envelope.SetBody (and so to an overlay
// request) is read when its frame is written, and is not written after.
func Unmarshal(data []byte, v any) error {
	if len(data) > 0 && data[0] == codecTag {
		rv, p := reflect.ValueOf(v), registered(reflect.TypeOf(v))
		if p == nil || rv.Kind() != reflect.Pointer || rv.IsNil() {
			return fmt.Errorf("wire: decoding %T: data is binary-coded, which this type is not", v)
		}
		if err := decode(data[1:], p, rv.Elem()); err != nil {
			return fmt.Errorf("wire: decoding %T: %w", v, err)
		}
		return nil
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return fmt.Errorf("wire: decoding %T: %w", v, err)
	}
	return nil
}

// frameHeaderLen is the size of a frame's big-endian length prefix.
const frameHeaderLen = 4

// MaxReusedBuffer is the largest send buffer a single writer keeps between
// messages, the bound a reader trusts a header's word up to.
const MaxReusedBuffer = trustedBodyBytes

// WriteEnvelope frames and writes one envelope — a 4-byte big-endian length
// followed by the encoded envelope — in a single Write.
func WriteEnvelope(w io.Writer, env *Envelope) error {
	frame, err := AppendEnvelope(nil, env)
	if err != nil {
		return err
	}
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("wire: writing frame: %w", err)
	}
	return nil
}

// AppendEnvelope appends env's frame, as WriteEnvelope writes it, to dst.
func AppendEnvelope(dst []byte, env *Envelope) ([]byte, error) {
	if env == nil {
		return nil, errors.New("wire: encoding *wire.Envelope: nil pointer")
	}
	at := len(dst)
	frame, err := encode(dst, reflect.ValueOf(env).Elem(), frameHeaderLen+1)
	if err != nil {
		return nil, err
	}
	n := len(frame) - at - frameHeaderLen
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(frame[at:], uint32(n))
	frame[at+frameHeaderLen] = codecTag
	return frame, nil
}

// ReadEnvelope reads one framed envelope. The envelope's Payload is a
// sub-slice of the frame body, which is allocated per frame.
func ReadEnvelope(r io.Reader) (*Envelope, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err // io.EOF passes through for clean shutdown detection
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	body, err := readBody(r, int(n))
	if err != nil {
		return nil, fmt.Errorf("wire: reading frame body: %w", err)
	}
	var env Envelope
	if err := Unmarshal(body, &env); err != nil {
		return nil, err
	}
	if env.Version != ProtocolVersion {
		return nil, &VersionError{Got: env.Version, Want: ProtocolVersion}
	}
	return &env, nil
}

// trustedBodyBytes is the largest frame body allocated on the header's word
// alone.
const trustedBodyBytes = 1 << 20

// readBody reads a frame body of n bytes. Up to trustedBodyBytes it is one
// allocation; beyond that the buffer doubles as bytes actually arrive, so a
// hostile or torn header costs at most twice what its sender delivered.
func readBody(r io.Reader, n int) ([]byte, error) {
	body := make([]byte, min(n, trustedBodyBytes))
	got := 0
	for {
		if _, err := io.ReadFull(r, body[got:]); err != nil {
			return nil, err
		}
		if got = len(body); got == n {
			return body, nil
		}
		body = append(body, make([]byte, min(n-got, got))...)
	}
}
