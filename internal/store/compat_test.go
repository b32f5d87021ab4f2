package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"testing"

	"copernicus/internal/wire"
)

// The snapshot-format contract for CommandSnap's appended fields, through the
// store's own snapshot reader in both formats. A gob snapshot (CPCSNAP1) from
// a build before a field decodes it by field name as zero; a binary one
// (CPCSNAP2) whose command body ends before the field decodes it as zero,
// and one with a field this build does not know skips it.

// gobSnapshotFile frames snap, any value of a Snapshot's shape, the way a
// gob-writing build did.
func gobSnapshotFile(t *testing.T, snap any) []byte {
	t.Helper()
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(snap); err != nil {
		t.Fatal(err)
	}
	return sealedSnapshot(snapMagicGob, body.Bytes())
}

// sealedSnapshot is a snapshot file of magic, header and body.
func sealedSnapshot(magic, body []byte) []byte {
	out := append(bytes.Clone(magic), make([]byte, frameHeaderLen)...)
	binary.BigEndian.PutUint32(out[len(magic):], uint32(len(body)))
	binary.BigEndian.PutUint32(out[len(magic)+4:], crc32.Checksum(body, castagnoli))
	return append(out, body...)
}

// oneCommandSnapshot is a binary snapshot file whose one project, "villin",
// holds one command whose body is cmdFields: the fields as some build wrote
// them, without the length prefix.
func oneCommandSnapshot(cmdFields []byte) []byte {
	proj := wire.AppendString(nil, "villin")
	proj = append(proj, make([]byte, 12)...) // Controller through CtrlState, all zero
	proj = binary.AppendUvarint(proj, 1)     // one command
	proj = wire.AppendBytes(proj, cmdFields)
	var snap []byte
	snap = append(snap, 0, 0)            // TakenAt, LastSeq
	snap = binary.AppendUvarint(snap, 1) // one project
	snap = wire.AppendBytes(snap, proj)
	return sealedSnapshot(snapMagic, wire.AppendBytes(nil, snap))
}

// decodeOneCommand decodes a snapshot file and returns its only command.
func decodeOneCommand(t *testing.T, file []byte) CommandSnap {
	t.Helper()
	snap, err := decodeSnapshot(file)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Projects) != 1 || len(snap.Projects[0].Commands) != 1 {
		t.Fatalf("snapshot decoded as %+v, want one project with one command", snap)
	}
	return snap.Projects[0].Commands[0]
}

// preStreamFields are a command's fields as a build before the Streamed
// watermark wrote them: Spec, Status, Worker, Retries, Checkpoint.
func preStreamFields(spec wire.CommandSpec, status int, worker string, retries int, checkpoint []byte) []byte {
	b := spec.AppendTo(nil)
	b = wire.AppendInt(b, status)
	b = wire.AppendString(b, worker)
	b = wire.AppendInt(b, retries)
	return wire.AppendBytes(b, checkpoint)
}

// TestPreStreamCommandSnapDecodes: a CommandSnap written before the Streamed
// watermark existed decodes with Streamed == 0 — the "nothing ingested yet"
// state — so recovery from an old snapshot falls back to batch delivery
// instead of failing or inventing a watermark.
func TestPreStreamCommandSnapDecodes(t *testing.T) {
	type commandSnapPreStream struct {
		Spec       wire.CommandSpec
		Status     int
		Worker     string
		Retries    int
		Checkpoint []byte
	}
	type projectSnapPreStream struct {
		Name     string
		Commands []commandSnapPreStream
	}
	spec := wire.CommandSpec{ID: "c1", Project: "villin", Type: "mdrun", MinCores: 1, MaxCores: 1}
	for name, file := range map[string][]byte{
		"gob": gobSnapshotFile(t, &struct{ Projects []projectSnapPreStream }{[]projectSnapPreStream{{
			Name: "villin", Commands: []commandSnapPreStream{{Spec: spec, Status: 2, Worker: "w1", Retries: 1, Checkpoint: []byte("ck")}},
		}}}),
		"binary": oneCommandSnapshot(preStreamFields(spec, 2, "w1", 1, []byte("ck"))),
	} {
		got := decodeOneCommand(t, file)
		if got.Spec.ID != "c1" || got.Status != 2 || got.Worker != "w1" ||
			got.Retries != 1 || string(got.Checkpoint) != "ck" {
			t.Errorf("%s: pre-stream fields corrupted: %+v", name, got)
		}
		if got.Streamed != 0 || got.Preempts != 0 {
			t.Errorf("%s: Streamed and Preempts must decode as 0 from pre-stream snapshots, got %d, %d",
				name, got.Streamed, got.Preempts)
		}
	}
}

// TestPrePreemptsCommandSnapDecodes: a CommandSnap written before the
// preemption tally was captured decodes with Preempts == 0 and every older
// field intact, so a restarted server counts that command's next eviction
// as its first, as the parent's snapshots implied.
func TestPrePreemptsCommandSnapDecodes(t *testing.T) {
	type commandSnapPrePreempts struct {
		Spec       wire.CommandSpec
		Status     int
		Worker     string
		Retries    int
		Checkpoint []byte
		Streamed   int
	}
	type projectSnapPrePreempts struct {
		Name     string
		Commands []commandSnapPrePreempts
	}
	spec := wire.CommandSpec{ID: "c3", Project: "villin", Type: "mdrun", MinCores: 1, MaxCores: 1}
	for name, file := range map[string][]byte{
		"gob": gobSnapshotFile(t, &struct{ Projects []projectSnapPrePreempts }{[]projectSnapPrePreempts{{
			Name: "villin", Commands: []commandSnapPrePreempts{{Spec: spec, Status: 1, Worker: "w2", Retries: 2, Streamed: 5}},
		}}}),
		"binary": oneCommandSnapshot(wire.AppendInt(preStreamFields(spec, 1, "w2", 2, nil), 5)),
	} {
		got := decodeOneCommand(t, file)
		if got.Spec.ID != "c3" || got.Status != 1 || got.Worker != "w2" || got.Retries != 2 || got.Streamed != 5 {
			t.Errorf("%s: pre-preempts fields corrupted: %+v", name, got)
		}
		if got.Preempts != 0 {
			t.Errorf("%s: Preempts must decode as 0 from older snapshots, got %d", name, got.Preempts)
		}
	}
}

// TestStreamCommandSnapDecodesByPreStreamShape covers the reverse: a
// snapshot a newer build wrote, with a field this one does not know, decodes
// under this build's shape (the bytes after the last known field are
// skipped, as gob dropped unknown fields), so a rolled-back server recovers
// cleanly — as a pre-stream server did from a snapshot with watermarks.
func TestStreamCommandSnapDecodesByPreStreamShape(t *testing.T) {
	want := CommandSnap{
		Spec:   wire.CommandSpec{ID: "c2", Project: "villin", Type: "mdrun", MinCores: 1, MaxCores: 1},
		Status: 1, Worker: "w1", Retries: 1, Checkpoint: []byte("ck"), Streamed: 17, Preempts: 3,
	}
	r := wire.NewReader(want.AppendTo(nil))
	fields := r.Bytes() // today's fields, without the length prefix
	got := decodeOneCommand(t, oneCommandSnapshot(wire.AppendString(bytes.Clone(fields), "a-field-from-the-future")))
	if got.Spec.ID != want.Spec.ID || got.Status != want.Status || got.Worker != want.Worker ||
		got.Retries != want.Retries || string(got.Checkpoint) != "ck" ||
		got.Streamed != want.Streamed || got.Preempts != want.Preempts {
		t.Errorf("fields before the unknown one corrupted: %+v, want %+v", got, want)
	}
}
