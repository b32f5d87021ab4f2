package store

import (
	"errors"
	"os"
	"testing"

	"copernicus/internal/obs"
)

func TestReadSinceReturnsTail(t *testing.T) {
	s := mustOpen(t, testOptions(t))
	defer s.Close()
	appendN(t, s, 10)

	recs, gap, err := s.ReadSince(4, 0)
	if err != nil || gap {
		t.Fatalf("ReadSince: gap=%v err=%v", gap, err)
	}
	if len(recs) != 6 || recs[0].Seq != 5 || recs[5].Seq != 10 {
		t.Fatalf("ReadSince(4) = %d records, first %d", len(recs), recs[0].Seq)
	}

	// Caught up: nothing to ship, no gap.
	recs, gap, err = s.ReadSince(10, 0)
	if err != nil || gap || len(recs) != 0 {
		t.Fatalf("caught-up ReadSince = %d records, gap=%v err=%v", len(recs), gap, err)
	}

	// max bounds the batch.
	recs, _, err = s.ReadSince(0, 3)
	if err != nil || len(recs) != 3 || recs[2].Seq != 3 {
		t.Fatalf("bounded ReadSince = %d records err=%v", len(recs), err)
	}
}

func TestReadSinceSpansRotations(t *testing.T) {
	s := mustOpen(t, testOptions(t))
	defer s.Close()
	appendN(t, s, 5)
	if _, _, err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 5)

	recs, gap, err := s.ReadSince(2, 0)
	if err != nil || gap {
		t.Fatalf("gap=%v err=%v", gap, err)
	}
	if len(recs) != 8 || recs[0].Seq != 3 || recs[7].Seq != 10 {
		t.Fatalf("cross-rotation ReadSince = %d records", len(recs))
	}
}

func TestReadSinceReportsCompactedGap(t *testing.T) {
	s := mustOpen(t, testOptions(t))
	defer s.Close()
	appendN(t, s, 6)
	idx, last, err := s.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(idx, last, &Snapshot{}); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 2)

	// Records 1..6 are compacted below the snapshot; asking for them must
	// flag a gap so the shipper falls back to a snapshot baseline.
	_, gap, err := s.ReadSince(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !gap {
		t.Fatal("ReadSince into compacted history did not report a gap")
	}
}

func TestAppendReplicatedBatchPreservesSeqAndDedups(t *testing.T) {
	src := mustOpen(t, testOptions(t))
	defer src.Close()
	appendN(t, src, 5)
	recs, _, err := src.ReadSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}

	dst := mustOpen(t, testOptions(t))
	n, err := dst.AppendReplicatedBatch(recs)
	if err != nil || n != 5 {
		t.Fatalf("first apply: n=%d err=%v", n, err)
	}
	// Redelivery is a no-op.
	n, err = dst.AppendReplicatedBatch(recs[1:4])
	if err != nil || n != 0 {
		t.Fatalf("redelivery: n=%d err=%v", n, err)
	}
	if got := dst.LastSeq(); got != 5 {
		t.Fatalf("LastSeq = %d, want 5", got)
	}

	// A gap is refused before anything is written.
	gapRec := Record{Seq: 42, Type: RecCommandQueued, Project: "p"}
	if _, err := dst.AppendReplicatedBatch([]Record{gapRec}); !errors.Is(err, ErrReplicaGap) {
		t.Fatalf("gap apply err = %v, want ErrReplicaGap", err)
	}

	// The replica recovers with identical records and timestamps.
	dir := dst.Dir()
	dst.Close()
	rec, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 5 {
		t.Fatalf("replica recovered %d records, want 5", len(rec.Records))
	}
	for i, r := range rec.Records {
		if r.Seq != recs[i].Seq || r.Time != recs[i].Time {
			t.Fatalf("record %d: seq/time not preserved: %+v vs %+v", i, r, recs[i])
		}
	}
}

func TestInstallSnapshotBehindFastForwards(t *testing.T) {
	src := mustOpen(t, testOptions(t))
	defer src.Close()
	appendN(t, src, 8)
	idx, last, err := src.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := src.WriteSnapshot(idx, last, &Snapshot{Projects: []ProjectSnap{{Name: "p"}}}); err != nil {
		t.Fatal(err)
	}
	appendN(t, src, 3)
	snapLast, blob, err := src.NewestSnapshot()
	if err != nil || blob == nil {
		t.Fatalf("NewestSnapshot: %v", err)
	}
	if snapLast != 8 {
		t.Fatalf("snapshot LastSeq = %d, want 8", snapLast)
	}

	// Fresh replica: install baseline, then apply the live tail.
	dst := mustOpen(t, testOptions(t))
	installed, err := dst.InstallSnapshot(blob)
	if err != nil || !installed {
		t.Fatalf("InstallSnapshot: installed=%v err=%v", installed, err)
	}
	if got := dst.LastSeq(); got != 8 {
		t.Fatalf("after install LastSeq = %d, want 8", got)
	}
	tail, gap, err := src.ReadSince(8, 0)
	if err != nil || gap || len(tail) != 3 {
		t.Fatalf("tail read: %d gap=%v err=%v", len(tail), gap, err)
	}
	if _, err := dst.AppendReplicatedBatch(tail); err != nil {
		t.Fatal(err)
	}

	dir := dst.Dir()
	dst.Close()
	rec, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot == nil || rec.Snapshot.LastSeq != 8 {
		t.Fatalf("replica baseline = %+v", rec.Snapshot)
	}
	if rec.Gap != "" {
		t.Fatalf("replica has gap: %s", rec.Gap)
	}
	if len(rec.Records) != 3 || rec.Records[0].Seq != 9 {
		t.Fatalf("replica tail = %d records", len(rec.Records))
	}
}

func TestInstallSnapshotAheadKeepsAppliedRecords(t *testing.T) {
	src := mustOpen(t, testOptions(t))
	defer src.Close()
	appendN(t, src, 10)

	// Replica has applied everything the primary ever wrote.
	recs, _, err := src.ReadSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	dst := mustOpen(t, testOptions(t))
	if _, err := dst.AppendReplicatedBatch(recs); err != nil {
		t.Fatal(err)
	}

	// Primary now snapshots at LastSeq=6: older than the replica's frontier.
	idx, last, err := src.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	_ = last
	snap := &Snapshot{Projects: []ProjectSnap{{Name: "p"}}}
	if err := src.WriteSnapshot(idx, 6, snap); err != nil {
		t.Fatal(err)
	}
	_, blob, err := src.NewestSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	installed, err := dst.InstallSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !installed {
		t.Fatal("install deferred although the active segment is known")
	}
	// Records 7..10 must survive recovery on top of the new baseline.
	dir := dst.Dir()
	dst.Close()
	rec, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot == nil || rec.Snapshot.LastSeq != 6 {
		t.Fatalf("baseline = %+v", rec.Snapshot)
	}
	if rec.Gap != "" {
		t.Fatalf("gap after ahead-install: %s", rec.Gap)
	}
	if len(rec.Records) != 4 || rec.Records[0].Seq != 7 || rec.Records[3].Seq != 10 {
		t.Fatalf("tail = %+v", rec.Records)
	}
}

func TestInstallSnapshotUnknownSegmentDefers(t *testing.T) {
	// Replica applied records in a previous process; the current process
	// does not know which segment holds LastSeq+1, so installation of an
	// older snapshot must be deferred rather than risk stranding records.
	dst := mustOpen(t, testOptions(t))
	appendN(t, dst, 10) // stand-in for replicated records
	dir := dst.Dir()
	dst.Close()

	dst2 := mustOpen(t, Options{Dir: dir, SyncHook: noSync, Obs: obs.New()})
	defer dst2.Close()

	src := mustOpen(t, testOptions(t))
	defer src.Close()
	appendN(t, src, 10)
	idx, _, err := src.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := src.WriteSnapshot(idx, 6, &Snapshot{}); err != nil {
		t.Fatal(err)
	}
	_, blob, err := src.NewestSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	installed, err := dst2.InstallSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if installed {
		t.Fatal("snapshot installed into a segment of unknown span")
	}
}

func TestReplicaMetaRoundtrip(t *testing.T) {
	dir := t.TempDir()
	if m, err := LoadReplicaMeta(dir); err != nil || m != nil {
		t.Fatalf("empty dir: meta=%+v err=%v", m, err)
	}
	want := &ReplicaMeta{Epoch: 7, Role: RoleStandby, PeerID: "srv-a", PeerAddr: "host:9051"}
	if err := SaveReplicaMeta(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadReplicaMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("meta roundtrip = %+v, want %+v", got, want)
	}
}

func TestInspectSurfacesGapAndLastSeq(t *testing.T) {
	opts := testOptions(t)
	s := mustOpen(t, opts)
	appendN(t, s, 5)
	if _, _, err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 5)
	if _, _, err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 2)
	s.Close()

	insp, err := Inspect(opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if insp.LastSeq != 12 {
		t.Fatalf("LastSeq = %d, want 12", insp.LastSeq)
	}
	if insp.Gap != "" || !insp.Healthy {
		t.Fatalf("intact dir: gap=%q healthy=%v", insp.Gap, insp.Healthy)
	}

	// Delete a middle segment: the inspection must go loud.
	if err := os.Remove(segmentPath(opts.Dir, 2)); err != nil {
		t.Fatal(err)
	}
	insp, err = Inspect(opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if insp.Gap == "" || insp.Healthy {
		t.Fatalf("gapped dir: gap=%q healthy=%v", insp.Gap, insp.Healthy)
	}

	// Replica metadata is surfaced when present.
	if err := SaveReplicaMeta(opts.Dir, &ReplicaMeta{Epoch: 3, Role: RolePrimary}); err != nil {
		t.Fatal(err)
	}
	insp, err = Inspect(opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if insp.Replica == nil || insp.Replica.Epoch != 3 || insp.Replica.Role != RolePrimary {
		t.Fatalf("replica meta = %+v", insp.Replica)
	}
}
