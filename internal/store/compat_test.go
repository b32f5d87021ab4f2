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

// projectSnapOf is ProjectSnap with commands of an older shape C, and
// snapshotOf a Snapshot of them: what a build before one of CommandSnap's
// fields wrote, in either format.
type projectSnapOf[C any] struct {
	Name, Controller, Tenant string
	Priority                 int
	State                    string
	Generation               int
	Note, FailErr            string
	Result                   []byte
	Finished, Failed         int
	Seed                     uint64
	CtrlState                []byte
	Commands                 []C
}

type snapshotOf[C any] struct {
	TakenAt  int64
	LastSeq  uint64
	Projects []projectSnapOf[C]
}

// binarySnapshotFile frames snap, any value of a Snapshot's shape, the way
// this build does.
func binarySnapshotFile(t *testing.T, snap any) []byte {
	t.Helper()
	body, err := wire.EncodeStruct(snap, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sealedSnapshot(snapMagic, body)
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

// oneCommand is a snapshot, in both formats, whose one project holds cmd.
func oneCommand[C any](t *testing.T, cmd C) map[string][]byte {
	snap := &snapshotOf[C]{Projects: []projectSnapOf[C]{{Name: "villin", Commands: []C{cmd}}}}
	return map[string][]byte{"gob": gobSnapshotFile(t, snap), "binary": binarySnapshotFile(t, snap)}
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
	spec := wire.CommandSpec{ID: "c1", Project: "villin", Type: "mdrun", MinCores: 1, MaxCores: 1}
	for name, file := range oneCommand(t, commandSnapPreStream{Spec: spec, Status: 2, Worker: "w1", Retries: 1, Checkpoint: []byte("ck")}) {
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
	spec := wire.CommandSpec{ID: "c3", Project: "villin", Type: "mdrun", MinCores: 1, MaxCores: 1}
	for name, file := range oneCommand(t, commandSnapPrePreempts{Spec: spec, Status: 1, Worker: "w2", Retries: 2, Streamed: 5}) {
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
	type commandSnapFuture struct {
		Spec       wire.CommandSpec
		Status     int
		Worker     string
		Retries    int
		Checkpoint []byte
		Streamed   int
		Preempts   int
		Future     string
	}
	want := CommandSnap{
		Spec:   wire.CommandSpec{ID: "c2", Project: "villin", Type: "mdrun", MinCores: 1, MaxCores: 1},
		Status: 1, Worker: "w1", Retries: 1, Checkpoint: []byte("ck"), Streamed: 17, Preempts: 3,
	}
	got := decodeOneCommand(t, oneCommand(t, commandSnapFuture{Spec: want.Spec, Status: want.Status,
		Worker: want.Worker, Retries: want.Retries, Checkpoint: want.Checkpoint, Streamed: want.Streamed,
		Preempts: want.Preempts, Future: "a-field-from-the-future"})["binary"])
	if got.Spec.ID != want.Spec.ID || got.Status != want.Status || got.Worker != want.Worker ||
		got.Retries != want.Retries || string(got.Checkpoint) != "ck" ||
		got.Streamed != want.Streamed || got.Preempts != want.Preempts {
		t.Errorf("fields before the unknown one corrupted: %+v, want %+v", got, want)
	}
}
