package wire

// Cross-version compatibility tests for the protocol v2 (multi-tenant)
// additions. Two guarantees are under test:
//
//  1. Payload compatibility: frames encoded by a v1 node — before Tenant,
//     Priority, Deadline and ErrCode existed — must decode into the current
//     structs with the new fields at their zero values, never an error.
//     The fixtures below are captured byte-for-byte from the v1 encoder.
//
//  2. Version skew: a whole v1 envelope must be refused by ReadEnvelope with
//     ErrProtoVersion (a typed, matchable error), not a mis-decode.

import (
	"bytes"
	"errors"
	"testing"
)

// Captured v1 fixtures. Do not regenerate from current structs — the point
// is that these bytes were produced by the old field layout.
var (
	// gob(ProjectSubmit{Name:"villin", Controller:"adaptive-md", Params:"k=v"})
	// encoded when ProjectSubmit had only those three fields.
	submitV1Fixture = []byte("=\x7f\x03\x01\x01\rProjectSubmit\x01\xff\x80\x00\x01\x03\x01\x04Name\x01\f\x00\x01\nController\x01\f\x00\x01\x06Params\x01\n\x00\x00\x00\x1d\xff\x80\x01\x06villin\x01\vadaptive-md\x01\x03k=v\x00")

	// gob(CommandSpec{...}) from before the Tenant field.
	specV1Fixture = []byte("\xff\x82\xff\x81\x03\x01\x01\vCommandSpec\x01\xff\x82\x00\x01\t\x01\x02ID\x01\f\x00\x01\aProject\x01\f\x00\x01\x06Origin\x01\f\x00\x01\x04Type\x01\f\x00\x01\bMinCores\x01\x04\x00\x01\bMaxCores\x01\x04\x00\x01\bPriority\x01\x04\x00\x01\aPayload\x01\n\x00\x01\nCheckpoint\x01\n\x00\x00\x009\xff\x82\x01\x05cmd-1\x01\x06villin\x01\x05srv-a\x01\flandscape-md\x01\x02\x01\x10\x01\x06\x01\nsteps=1000\x00")

	// A complete framed v1 envelope (4-byte length prefix + gob), Version: 1,
	// Type: "submit", carrying submitV1Fixture as payload. Captured from the
	// v1 Envelope layout, which had no ErrCode field.
	frameV1Fixture = []byte("\x00\x00\x00\xf4q\xff\x83\x03\x01\x01\bEnvelope\x01\xff\x84\x00\x01\t\x01\aVersion\x01\x04\x00\x01\x04Type\x01\f\x00\x01\x04From\x01\f\x00\x01\x02To\x01\f\x00\x01\tRequestID\x01\x06\x00\x01\aIsReply\x01\x02\x00\x01\x03TTL\x01\x04\x00\x01\aPayload\x01\n\x00\x01\x03Err\x01\f\x00\x00\x00\xff\x80\xff\x84\x01\x02\x01\x06submit\x01\bclient-1\x01\x05srv-a\x01\a\x02\x10\x01\\=\x7f\x03\x01\x01\rProjectSubmit\x01\xff\x80\x00\x01\x03\x01\x04Name\x01\f\x00\x01\nController\x01\f\x00\x01\x06Params\x01\n\x00\x00\x00\x1d\xff\x80\x01\x06villin\x01\vadaptive-md\x01\x03k=v\x00\x00")
)

// Captured ProtocolVersion=2 fixtures from before the gang-scheduling
// fields (CommandSpec.GangID/GangSize) and ProjectStatus.Detail existed.
// As with the v1 fixtures: do not regenerate from current structs.
var (
	// gob(CommandSpec{ID:"cmd-7", Project:"villin", Tenant:"acme",
	// Origin:"srv-a", Type:"mdrun", MinCores:2, MaxCores:4, Priority:5,
	// Payload:"steps=500", Checkpoint:"ck"}) encoded when CommandSpec ended
	// at Checkpoint.
	specV2PreGangFixture = []byte("\xff\x8c\x7f\x03\x01\x01\vCommandSpec\x01\xff\x80\x00\x01\n\x01\x02ID\x01\f\x00\x01\aProject\x01\f\x00\x01\x06Tenant\x01\f\x00\x01\x06Origin\x01\f\x00\x01\x04Type\x01\f\x00\x01\bMinCores\x01\x04\x00\x01\bMaxCores\x01\x04\x00\x01\bPriority\x01\x04\x00\x01\aPayload\x01\n\x00\x01\nCheckpoint\x01\n\x00\x00\x00;\xff\x80\x01\x05cmd-7\x01\x06villin\x01\x04acme\x01\x05srv-a\x01\x05mdrun\x01\x04\x01\b\x01\n\x01\tsteps=500\x01\x02ck\x00")

	// gob(ProjectStatus{...}) encoded when ProjectStatus ended at Result.
	statusV2PreGangFixture = []byte("\xff\x9a\xff\x81\x03\x01\x01\rProjectStatus\x01\xff\x82\x00\x01\v\x01\x04Name\x01\f\x00\x01\nController\x01\f\x00\x01\x06Tenant\x01\f\x00\x01\x05State\x01\f\x00\x01\x06Queued\x01\x04\x00\x01\aRunning\x01\x04\x00\x01\bFinished\x01\x04\x00\x01\x06Failed\x01\x04\x00\x01\nGeneration\x01\x04\x00\x01\x04Note\x01\f\x00\x01\x06Result\x01\n\x00\x00\x000\xff\x82\x01\x06villin\x01\x03msm\x01\x04acme\x01\arunning\x01\x04\x01\x06\x01\b\x01\x02\x01\f\x01\x05gen 6\x00")
)

// Captured ProtocolVersion=2 fixture from before AnnounceRequest.WaitSeconds
// existed. As above: do not regenerate from the current struct.
//
// gob(AnnounceRequest{Info: WorkerInfo{ID:"w-7", Platform:"smp", Cores:4,
// Executables:{"landscape-md","mdrun"}, FSToken:"fs-a"}, Relayed:true})
// encoded when AnnounceRequest ended at Relayed.
var announcePreWaitFixture = []byte("2\x7f\x03\x01\x01\x0fAnnounceRequest\x01\xff\x80\x00\x01\x02\x01\x04Info\x01\xff\x82\x00\x01\aRelayed\x01\x02\x00\x00\x00S\xff\x81\x03\x01\x01\nWorkerInfo\x01\xff\x82\x00\x01\x05\x01\x02ID\x01\f\x00\x01\bPlatform\x01\f\x00\x01\x05Cores\x01\x04\x00\x01\vExecutables\x01\xff\x84\x00\x01\aFSToken\x01\f\x00\x00\x00\x16\xff\x83\x02\x01\x01\b[]string\x01\xff\x84\x00\x01\f\x00\x00.\xff\x80\x01\x01\x03w-7\x01\x03smp\x01\b\x01\x02\flandscape-md\x05mdrun\x01\x04fs-a\x00\x01\x01\x00")

// TestPreWaitAnnounceDecodesWithZeroWait: an announce from a worker that
// predates WaitSeconds decodes with the budget unstated (0), which a server
// holds for its own limit.
func TestPreWaitAnnounceDecodesWithZeroWait(t *testing.T) {
	var got AnnounceRequest
	if err := Unmarshal(announcePreWaitFixture, &got); err != nil {
		t.Fatalf("pre-wait AnnounceRequest fixture failed to decode: %v", err)
	}
	in := got.Info
	if in.ID != "w-7" || in.Platform != "smp" || in.Cores != 4 || in.FSToken != "fs-a" ||
		len(in.Executables) != 2 || in.Executables[0] != "landscape-md" || in.Executables[1] != "mdrun" ||
		!got.Relayed {
		t.Errorf("pre-wait fields corrupted: %+v", got)
	}
	if got.WaitSeconds != 0 {
		t.Errorf("WaitSeconds must decode as 0 from pre-wait frames, got %g", got.WaitSeconds)
	}
}

// TestPreGangCommandSpecDecodesWithZeroGangFields is the gang-scheduling
// compatibility guarantee: a pre-gang v2 frame decodes with GangID == "" and
// GangSize == 0 — exactly the "not gang-scheduled" state — and still
// validates, so a scheduler never mistakes old traffic for a gang (and a
// worker fed by an old server sees no phantom gang to co-schedule).
func TestPreGangCommandSpecDecodesWithZeroGangFields(t *testing.T) {
	var got CommandSpec
	if err := Unmarshal(specV2PreGangFixture, &got); err != nil {
		t.Fatalf("pre-gang CommandSpec fixture failed to decode: %v", err)
	}
	if got.ID != "cmd-7" || got.Project != "villin" || got.Tenant != "acme" ||
		got.Origin != "srv-a" || got.Type != "mdrun" || got.MinCores != 2 ||
		got.MaxCores != 4 || got.Priority != 5 || string(got.Payload) != "steps=500" ||
		string(got.Checkpoint) != "ck" {
		t.Errorf("pre-gang fields corrupted: %+v", got)
	}
	if got.GangID != "" || got.GangSize != 0 {
		t.Errorf("gang fields must decode as zero values from pre-gang frames, got GangID=%q GangSize=%d",
			got.GangID, got.GangSize)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("decoded pre-gang spec should still validate: %v", err)
	}
}

func TestPreGangProjectStatusDecodesWithNilDetail(t *testing.T) {
	var got ProjectStatus
	if err := Unmarshal(statusV2PreGangFixture, &got); err != nil {
		t.Fatalf("pre-gang ProjectStatus fixture failed to decode: %v", err)
	}
	if got.Name != "villin" || got.Controller != "msm" || got.Tenant != "acme" ||
		got.State != "running" || got.Queued != 2 || got.Running != 3 ||
		got.Finished != 4 || got.Failed != 1 || got.Generation != 6 || got.Note != "gen 6" {
		t.Errorf("pre-gang fields corrupted: %+v", got)
	}
	if got.Detail != nil {
		t.Errorf("Detail must decode as nil from pre-gang frames, got %q", got.Detail)
	}
}

// commandSpecPreGang is CommandSpec as a build from before gang scheduling
// knows it: the ten fields it decodes, and nothing else.
type commandSpecPreGang struct {
	ID         string
	Project    string
	Tenant     string
	Origin     string
	Type       string
	MinCores   int
	MaxCores   int
	Priority   int
	Payload    []byte
	Checkpoint []byte
}

// TestGangSpecDecodesByPreGangShape covers the reverse direction: a gang
// command decodes under the pre-gang field set (the bytes after the last
// field a decoder knows are skipped, as gob dropped unknown fields) — which
// is precisely why an old worker cannot tell a gang member from a solo
// command, and why the current worker re-checks gang completeness of every
// workload instead of trusting the dispatcher.
func TestGangSpecDecodesByPreGangShape(t *testing.T) {
	raw, err := Marshal(&CommandSpec{
		ID: "rx-e00001-r03", Project: "remd", Type: "repex-md",
		MinCores: 1, MaxCores: 1, GangID: "remd/e00001", GangSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got commandSpecPreGang
	if err := DecodeStruct(raw[1:], &got); err != nil {
		t.Fatalf("gang spec failed to decode under pre-gang shape: %v", err)
	}
	if got.ID != "rx-e00001-r03" || got.Project != "remd" || got.Type != "repex-md" {
		t.Errorf("shared fields corrupted: %+v", got)
	}
}

// TestGangSpecValidate: Validate reads no gang field, so a spec an older
// build wrote with one (a WAL record, a snapshot) is admitted whatever it
// holds there.
func TestGangSpecValidate(t *testing.T) {
	base := CommandSpec{ID: "c1", Project: "p", Type: "mdrun", MinCores: 1, MaxCores: 1}
	for _, gang := range []struct {
		id   string
		size int
	}{{"p/e0", 2}, {"", 3}, {"p/e0", 1}} {
		spec := base
		spec.GangID, spec.GangSize = gang.id, gang.size
		if err := spec.Validate(); err != nil {
			t.Errorf("spec in gang %q of %d rejected: %v", gang.id, gang.size, err)
		}
	}
}

func TestOldProjectSubmitDecodesWithZeroTenantFields(t *testing.T) {
	var got ProjectSubmit
	if err := Unmarshal(submitV1Fixture, &got); err != nil {
		t.Fatalf("v1 ProjectSubmit fixture failed to decode: %v", err)
	}
	if got.Name != "villin" || got.Controller != "adaptive-md" || string(got.Params) != "k=v" {
		t.Errorf("v1 fields corrupted: %+v", got)
	}
	if got.Tenant != "" || got.Priority != 0 || got.DeadlineUnixNano != 0 {
		t.Errorf("new fields must decode as zero values from v1 frames, got Tenant=%q Priority=%d Deadline=%d",
			got.Tenant, got.Priority, got.DeadlineUnixNano)
	}
}

func TestOldCommandSpecDecodesWithZeroTenant(t *testing.T) {
	var got CommandSpec
	if err := Unmarshal(specV1Fixture, &got); err != nil {
		t.Fatalf("v1 CommandSpec fixture failed to decode: %v", err)
	}
	if got.ID != "cmd-1" || got.Project != "villin" || got.Origin != "srv-a" ||
		got.Type != "landscape-md" || got.MinCores != 1 || got.MaxCores != 8 ||
		got.Priority != 3 || string(got.Payload) != "steps=1000" {
		t.Errorf("v1 fields corrupted: %+v", got)
	}
	if got.Tenant != "" {
		t.Errorf("Tenant must decode as \"\" from v1 frames, got %q", got.Tenant)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("decoded v1 spec should still validate: %v", err)
	}
}

func TestV1FrameRefusedWithErrProtoVersion(t *testing.T) {
	_, err := ReadEnvelope(bytes.NewReader(frameV1Fixture))
	if err == nil {
		t.Fatal("v1 frame accepted by a v2 node")
	}
	if !errors.Is(err, ErrProtoVersion) {
		t.Fatalf("version-skewed frame error = %v, want errors.Is(_, ErrProtoVersion)", err)
	}
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("error %v is not a *VersionError", err)
	}
	if ve.Got != 1 || ve.Want != ProtocolVersion {
		t.Errorf("VersionError = %+v, want Got=1 Want=%d", ve, ProtocolVersion)
	}
}

// TestOldEnvelopeShapeDecodes proves the envelope *layout* itself is
// gob-compatible: a struct without ErrCode decodes into the current Envelope
// with ErrCode == "". (The version check is a policy decision layered on top;
// here we call Unmarshal directly to isolate the layout question.)
func TestOldEnvelopeShapeDecodes(t *testing.T) {
	type envelopeV1 struct {
		Version   int
		Type      MsgType
		From, To  string
		RequestID uint64
		IsReply   bool
		TTL       int
		Payload   []byte
		Err       string
	}
	raw, err := Marshal(&envelopeV1{Version: 1, Type: MsgStatus, From: "old-node", Err: "boom"})
	if err != nil {
		t.Fatal(err)
	}
	var got Envelope
	if err := Unmarshal(raw, &got); err != nil {
		t.Fatalf("old envelope shape failed to decode: %v", err)
	}
	if got.Version != 1 || got.From != "old-node" || got.Err != "boom" {
		t.Errorf("v1 fields corrupted: %+v", got)
	}
	if got.ErrCode != "" {
		t.Errorf("ErrCode must decode as empty from old frames, got %q", got.ErrCode)
	}
}

// TestNewFrameDecodesByOldShape covers the reverse direction: a v2 payload
// with tenant fields decodes under the v1 field set (gob drops unknown
// fields), so an old node mid-rolling-upgrade mis-handles nothing even if a
// v2 payload slips past the handshake.
func TestNewFrameDecodesByOldShape(t *testing.T) {
	type projectSubmitV1 struct {
		Name       string
		Controller string
		Params     []byte
	}
	raw, err := Marshal(&ProjectSubmit{
		Name: "fip35", Controller: "sweep", Params: []byte("x"),
		Tenant: "acme", Priority: 9, DeadlineUnixNano: 12345,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got projectSubmitV1
	if err := Unmarshal(raw, &got); err != nil {
		t.Fatalf("v2 frame failed to decode under v1 shape: %v", err)
	}
	if got.Name != "fip35" || got.Controller != "sweep" || string(got.Params) != "x" {
		t.Errorf("shared fields corrupted: %+v", got)
	}
}

func TestErrCodeRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		err  error
		code string
	}{
		{ErrQuotaExceeded, ErrCodeQuota},
		{ErrAdmissionShed, ErrCodeShed},
		{ErrProtoVersion, ErrCodeProtoVersion},
	} {
		if got := CodeOf(tc.err); got != tc.code {
			t.Errorf("CodeOf(%v) = %q, want %q", tc.err, got, tc.code)
		}
		back := SentinelFor(tc.code)
		if !errors.Is(back, tc.err) {
			t.Errorf("SentinelFor(%q) = %v, does not match %v", tc.code, back, tc.err)
		}
	}
	if CodeOf(nil) != "" || CodeOf(errors.New("other")) != "" {
		t.Error("uncoded errors must map to empty code")
	}
	if SentinelFor("") != nil || SentinelFor("bogus") != nil {
		t.Error("unknown codes must map to nil")
	}
	// Wrapped errors still map: the server wraps sentinels with context.
	wrapped := errorfWrap(ErrQuotaExceeded)
	if CodeOf(wrapped) != ErrCodeQuota {
		t.Errorf("CodeOf(wrapped quota) = %q", CodeOf(wrapped))
	}
}

func errorfWrap(err error) error {
	return &wrapErr{err}
}

type wrapErr struct{ inner error }

func (w *wrapErr) Error() string { return "tenant acme: " + w.inner.Error() }
func (w *wrapErr) Unwrap() error { return w.inner }

// TestFrameChunkRoundTrip pins the streamed-chunk payload: chunks are
// journaled raw into the WAL and replayed byte-for-byte, so the encoding
// must round-trip every field exactly.
func TestFrameChunkRoundTrip(t *testing.T) {
	chunk := FrameChunk{
		Project: "villin", CommandID: "cmd-9", WorkerID: "w3",
		Seq: 2, FirstFrame: 11,
		Times:  []float64{16.5, 18},
		Frames: [][]float64{{1, 2, 3}, {4, 5, 6}},
		RMSD:   []float64{0.9, 0.8},
		Final:  true,
	}
	raw, err := Marshal(&chunk)
	if err != nil {
		t.Fatal(err)
	}
	var got FrameChunk
	if err := Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Project != chunk.Project || got.CommandID != chunk.CommandID ||
		got.WorkerID != chunk.WorkerID || got.Seq != 2 || got.FirstFrame != 11 ||
		!got.Final || len(got.Times) != 2 || len(got.Frames) != 2 || len(got.RMSD) != 2 {
		t.Errorf("FrameChunk roundtrip = %+v", got)
	}
	for i := range got.Frames {
		for d := range got.Frames[i] {
			if got.Frames[i][d] != chunk.Frames[i][d] {
				t.Fatalf("frame %d corrupted: %v", i, got.Frames[i])
			}
		}
	}
}

func TestTenantPayloadRoundTrip(t *testing.T) {
	status := TenantStatus{
		ID: "acme", Weight: 4, MaxQueued: 100, MaxCores: 64, MaxStorageBytes: 1 << 30,
		Queued: 3, InflightCores: 12, CoreSeconds: 98.5, StorageBytes: 4096,
		OldestWaitSeconds: 1.25,
	}
	raw, err := Marshal(&TenantList{Tenants: []TenantStatus{status}})
	if err != nil {
		t.Fatal(err)
	}
	var got TenantList
	if err := Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Tenants) != 1 || got.Tenants[0] != status {
		t.Errorf("TenantList roundtrip = %+v", got)
	}

	upd := TenantQuotaUpdate{Tenant: "acme", Weight: 2, MaxQueued: -1, MaxCores: 32, MaxStorageBytes: -1}
	raw, err = Marshal(&upd)
	if err != nil {
		t.Fatal(err)
	}
	var gotUpd TenantQuotaUpdate
	if err := Unmarshal(raw, &gotUpd); err != nil {
		t.Fatal(err)
	}
	if gotUpd != upd {
		t.Errorf("TenantQuotaUpdate roundtrip = %+v, want %+v", gotUpd, upd)
	}
}
