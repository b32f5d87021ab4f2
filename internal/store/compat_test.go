package store

import (
	"testing"

	"copernicus/internal/wire"
)

// TestPreStreamCommandSnapDecodes pins the snapshot-format contract for the
// streaming rollout: a CommandSnap written before the Streamed watermark
// existed decodes with Streamed == 0 — the "nothing ingested yet" state —
// so recovery from an old snapshot falls back to batch delivery instead of
// failing or inventing a watermark.
func TestPreStreamCommandSnapDecodes(t *testing.T) {
	type commandSnapPreStream struct {
		Spec       wire.CommandSpec
		Status     int
		Worker     string
		Retries    int
		Checkpoint []byte
	}
	raw, err := wire.Marshal(&commandSnapPreStream{
		Spec:       wire.CommandSpec{ID: "c1", Project: "villin", Type: "mdrun", MinCores: 1, MaxCores: 1},
		Status:     2,
		Worker:     "w1",
		Retries:    1,
		Checkpoint: []byte("ck"),
	})
	if err != nil {
		t.Fatal(err)
	}
	var got CommandSnap
	if err := wire.Unmarshal(raw, &got); err != nil {
		t.Fatalf("pre-stream CommandSnap failed to decode: %v", err)
	}
	if got.Spec.ID != "c1" || got.Status != 2 || got.Worker != "w1" ||
		got.Retries != 1 || string(got.Checkpoint) != "ck" {
		t.Errorf("pre-stream fields corrupted: %+v", got)
	}
	if got.Streamed != 0 {
		t.Errorf("Streamed must decode as 0 from pre-stream snapshots, got %d", got.Streamed)
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
	raw, err := wire.Marshal(&commandSnapPrePreempts{
		Spec:     wire.CommandSpec{ID: "c3", Project: "villin", Type: "mdrun", MinCores: 1, MaxCores: 1},
		Status:   1,
		Worker:   "w2",
		Retries:  2,
		Streamed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got CommandSnap
	if err := wire.Unmarshal(raw, &got); err != nil {
		t.Fatalf("pre-preempts CommandSnap failed to decode: %v", err)
	}
	if got.Spec.ID != "c3" || got.Status != 1 || got.Worker != "w2" || got.Retries != 2 || got.Streamed != 5 {
		t.Errorf("pre-preempts fields corrupted: %+v", got)
	}
	if got.Preempts != 0 {
		t.Errorf("Preempts must decode as 0 from older snapshots, got %d", got.Preempts)
	}
}

// TestStreamCommandSnapDecodesByPreStreamShape covers the reverse: a
// snapshot with watermarks decodes under the pre-stream field set (gob
// drops unknown fields), so a rolled-back server recovers cleanly — it
// simply re-ingests the stream from the final result blobs.
func TestStreamCommandSnapDecodesByPreStreamShape(t *testing.T) {
	type commandSnapPreStream struct {
		Spec       wire.CommandSpec
		Status     int
		Worker     string
		Retries    int
		Checkpoint []byte
	}
	raw, err := wire.Marshal(&CommandSnap{
		Spec:     wire.CommandSpec{ID: "c2", Project: "villin", Type: "mdrun", MinCores: 1, MaxCores: 1},
		Status:   1,
		Streamed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got commandSnapPreStream
	if err := wire.Unmarshal(raw, &got); err != nil {
		t.Fatalf("stream CommandSnap failed to decode under pre-stream shape: %v", err)
	}
	if got.Spec.ID != "c2" || got.Status != 1 {
		t.Errorf("shared fields corrupted: %+v", got)
	}
}
