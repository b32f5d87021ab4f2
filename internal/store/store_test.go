package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"copernicus/internal/obs"
)

func testOptions(t *testing.T) Options {
	t.Helper()
	return Options{Dir: t.TempDir(), SyncHook: noSync, Obs: obs.New()}
}

// noSync is a SyncHook that skips the fsync: tests on throwaway dirs.
func noSync(func() error) error { return nil }

func mustOpen(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func appendN(t *testing.T, s *Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Append(Record{Type: RecCommandQueued, Project: "proj",
			Command: "cmd", Data: []byte("payload")}); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
}

func TestEmptyDirRecoversEmpty(t *testing.T) {
	s := mustOpen(t, testOptions(t))
	defer s.Close()
	rec := s.Recovered()
	if rec.Snapshot != nil || len(rec.Records) != 0 || rec.Torn != "" {
		t.Fatalf("fresh dir should recover empty, got %+v", rec)
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	opts := testOptions(t)
	s := mustOpen(t, opts)
	appendN(t, s, 10)
	if err := s.Append(Record{Type: RecGeneration, Project: "proj",
		Generation: 3, Note: "gen advance"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, opts)
	defer s2.Close()
	rec := s2.Recovered()
	if rec.Torn != "" {
		t.Fatalf("unexpected torn tail: %s", rec.Torn)
	}
	if len(rec.Records) != 11 {
		t.Fatalf("recovered %d records, want 11", len(rec.Records))
	}
	for i, r := range rec.Records {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has Seq %d, want %d", i, r.Seq, i+1)
		}
	}
	last := rec.Records[10]
	if last.Type != RecGeneration || last.Generation != 3 || last.Note != "gen advance" {
		t.Fatalf("last record corrupted: %+v", last)
	}
	// Sequence numbering continues across restarts.
	if err := s2.Append(Record{Type: RecResult}); err != nil {
		t.Fatal(err)
	}
	s2.mu.Lock()
	next := s2.nextSeq
	s2.mu.Unlock()
	if next != 13 {
		t.Fatalf("nextSeq after restart append = %d, want 13", next)
	}
}

// TestTornTailEveryOffset truncates the segment at every possible length
// and checks recovery keeps exactly the fully-written prefix.
func TestTornTailEveryOffset(t *testing.T) {
	opts := testOptions(t)
	s := mustOpen(t, opts)
	appendN(t, s, 5)
	s.Close()

	segs, _, err := scanDir(opts.Dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("scanDir: %v (%d segs)", err, len(segs))
	}
	seg := segs[0].path
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Record boundaries: magic, then 5 equal frames.
	frameLen := (len(full) - len(segMagic)) / 5

	for cut := len(segMagic); cut < len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(segmentPath(dir, segs[0].index), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, _, err := loadDir(dir)
		if err != nil {
			t.Fatalf("cut=%d: loadDir: %v", cut, err)
		}
		wantComplete := (cut - len(segMagic)) / frameLen
		if len(rec.Records) != wantComplete {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, len(rec.Records), wantComplete)
		}
		if cut < len(full) && rec.Torn == "" && (cut-len(segMagic))%frameLen != 0 {
			t.Fatalf("cut=%d: mid-frame truncation not reported as torn", cut)
		}
	}
}

func TestCorruptMiddleByteStopsReplay(t *testing.T) {
	opts := testOptions(t)
	s := mustOpen(t, opts)
	appendN(t, s, 4)
	s.Close()

	segs, _, _ := scanDir(opts.Dir)
	data, _ := os.ReadFile(segs[0].path)
	frameLen := (len(data) - len(segMagic)) / 4
	// Flip a payload byte inside the third frame.
	data[len(segMagic)+2*frameLen+10] ^= 0xFF
	if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, _, err := loadDir(opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 2 {
		t.Fatalf("replay past a CRC failure: got %d records, want 2", len(rec.Records))
	}
	if rec.Torn == "" {
		t.Fatal("corruption not reported")
	}
}

func TestSnapshotTruncatesAndRecovers(t *testing.T) {
	opts := testOptions(t)
	opts.SnapshotEvery = 4
	s := mustOpen(t, opts)
	appendN(t, s, 4)
	if !s.ShouldSnapshot() {
		t.Fatal("ShouldSnapshot should fire after SnapshotEvery appends")
	}
	idx, last, err := s.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if last != 4 {
		t.Fatalf("rotate-time lastSeq = %d, want 4", last)
	}
	snap := &Snapshot{Projects: []ProjectSnap{{Name: "proj", Controller: "msm", Generation: 2}}}
	if err := s.WriteSnapshot(idx, last, snap); err != nil {
		t.Fatal(err)
	}
	if s.ShouldSnapshot() {
		t.Fatal("ShouldSnapshot should reset after rotation")
	}
	// Post-snapshot records form the replay tail.
	appendN(t, s, 3)
	s.Close()

	// Compaction removed the pre-snapshot segment.
	segs, snaps, _ := scanDir(opts.Dir)
	for _, f := range segs {
		if f.index < idx {
			t.Fatalf("segment %d not compacted away", f.index)
		}
	}
	if len(snaps) != 1 || snaps[0].index != idx {
		t.Fatalf("want exactly snapshot %d, got %+v", idx, snaps)
	}

	s2 := mustOpen(t, opts)
	defer s2.Close()
	rec := s2.Recovered()
	if rec.Snapshot == nil {
		t.Fatal("snapshot not recovered")
	}
	if rec.Snapshot.LastSeq != 4 {
		t.Fatalf("snapshot LastSeq = %d, want 4", rec.Snapshot.LastSeq)
	}
	if got := rec.Snapshot.Projects[0]; got.Name != "proj" || got.Generation != 2 {
		t.Fatalf("snapshot project corrupted: %+v", got)
	}
	if len(rec.Records) != 3 {
		t.Fatalf("replay tail %d records, want 3", len(rec.Records))
	}
	if rec.Records[0].Seq != 5 {
		t.Fatalf("tail starts at Seq %d, want 5", rec.Records[0].Seq)
	}
}

func TestSnapshotWithoutWALSegments(t *testing.T) {
	opts := testOptions(t)
	s := mustOpen(t, opts)
	appendN(t, s, 2)
	idx, last, _ := s.Rotate()
	if err := s.WriteSnapshot(idx, last, &Snapshot{Projects: []ProjectSnap{{Name: "p"}}}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Simulate "snapshot present but WAL missing": delete every segment.
	segs, _, _ := scanDir(opts.Dir)
	for _, f := range segs {
		os.Remove(f.path)
	}
	s2 := mustOpen(t, opts)
	defer s2.Close()
	rec := s2.Recovered()
	if rec.Snapshot == nil || rec.Snapshot.Projects[0].Name != "p" {
		t.Fatalf("snapshot alone should recover, got %+v", rec)
	}
	if len(rec.Records) != 0 {
		t.Fatalf("no WAL means no tail, got %d records", len(rec.Records))
	}
	// New appends must still work and not collide with snapshot seqs.
	if err := s2.Append(Record{Type: RecResult}); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptSnapshotFallsBackToOlder(t *testing.T) {
	opts := testOptions(t)
	s := mustOpen(t, opts)
	appendN(t, s, 2)
	idx1, last1, _ := s.Rotate()
	if err := s.WriteSnapshot(idx1, last1, &Snapshot{Projects: []ProjectSnap{{Name: "old"}}}); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 2)
	idx2, last2, _ := s.Rotate()
	if err := s.WriteSnapshot(idx2, last2, &Snapshot{Projects: []ProjectSnap{{Name: "new"}}}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Corrupt the newest snapshot; recovery must fall back to the older
	// one... but compaction already deleted it, so re-create the scenario:
	// corrupt the only snapshot and expect replay-from-records instead.
	_, snaps, _ := scanDir(opts.Dir)
	data, _ := os.ReadFile(snaps[len(snaps)-1].path)
	data[len(data)-1] ^= 0xFF
	os.WriteFile(snaps[len(snaps)-1].path, data, 0o644)

	s2 := mustOpen(t, opts)
	defer s2.Close()
	if s2.Recovered().Snapshot != nil {
		t.Fatal("corrupt snapshot should be rejected")
	}
	// Compaction already deleted the segments the fallback would need, so
	// the recovered state is stale — recovery must say so.
	if s2.Recovered().Gap == "" {
		t.Fatal("stale fallback past compacted segments not flagged as a gap")
	}
}

// TestRecordsDuringCaptureAreReplayed pins the snapshot protocol: the
// snapshot's LastSeq is the rotate-time sequence, so records journaled
// between Rotate and WriteSnapshot — which the captured state may not
// reflect — are replayed at recovery instead of being skipped.
func TestRecordsDuringCaptureAreReplayed(t *testing.T) {
	opts := testOptions(t)
	s := mustOpen(t, opts)
	appendN(t, s, 3)
	idx, last, err := s.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	// Journaling racing the state capture: the snapshot below does NOT
	// reflect these two records.
	appendN(t, s, 2)
	if err := s.WriteSnapshot(idx, last, &Snapshot{}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := mustOpen(t, opts)
	defer s2.Close()
	rec := s2.Recovered()
	if rec.Snapshot == nil || rec.Snapshot.LastSeq != 3 {
		t.Fatalf("snapshot LastSeq should be the rotate-time 3, got %+v", rec.Snapshot)
	}
	if len(rec.Records) != 2 {
		t.Fatalf("replay tail = %d records, want the 2 journaled during the capture", len(rec.Records))
	}
	if rec.Records[0].Seq != 4 || rec.Records[1].Seq != 5 {
		t.Fatalf("tail seqs %d,%d; want 4,5", rec.Records[0].Seq, rec.Records[1].Seq)
	}
}

// TestAppendsAfterWriteFaultSurviveRecovery pins the poisoned-segment
// rotation: once a write fault may have torn the active segment, later
// acknowledged appends must land in a fresh segment, out of the shadow of
// the corruption, and survive recovery.
func TestAppendsAfterWriteFaultSurviveRecovery(t *testing.T) {
	opts := testOptions(t)
	var fault string
	opts.WriteHook = func(frame []byte) ([]byte, error) {
		switch fault {
		case "error":
			fault = ""
			return nil, errors.New("disk on fire")
		case "short":
			fault = ""
			return frame[:len(frame)/2], nil
		}
		return frame, nil
	}
	s := mustOpen(t, opts)
	appendN(t, s, 2)
	fault = "error"
	if err := s.Append(Record{Type: RecResult}); err == nil {
		t.Fatal("injected error not surfaced")
	}
	appendN(t, s, 2)
	fault = "short"
	if err := s.Append(Record{Type: RecResult}); err == nil {
		t.Fatal("injected short write not surfaced")
	}
	appendN(t, s, 3)
	s.Close()

	s2 := mustOpen(t, Options{Dir: opts.Dir, SyncHook: noSync})
	defer s2.Close()
	rec := s2.Recovered()
	if len(rec.Records) != 7 {
		t.Fatalf("recovered %d records, want all 7 acknowledged ones", len(rec.Records))
	}
	for i, r := range rec.Records {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has Seq %d, want %d", i, r.Seq, i+1)
		}
	}
	if rec.Torn == "" {
		t.Fatal("torn frame left by the short write not reported")
	}
}

// TestMissingMiddleSegmentFlagsGap: a hole mid-chain means acknowledged
// records are gone; recovery must flag it rather than silently skipping.
func TestMissingMiddleSegmentFlagsGap(t *testing.T) {
	opts := testOptions(t)
	s := mustOpen(t, opts)
	appendN(t, s, 1)
	if _, _, err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 1)
	if _, _, err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 1)
	s.Close()

	segs, _, _ := scanDir(opts.Dir)
	if len(segs) < 3 {
		t.Fatalf("want >= 3 segments, got %d", len(segs))
	}
	os.Remove(segs[1].path)

	s2 := mustOpen(t, opts)
	defer s2.Close()
	if s2.Recovered().Gap == "" {
		t.Fatal("missing middle segment not flagged as a gap")
	}
}

func TestWriteHookFaults(t *testing.T) {
	opts := testOptions(t)
	fail := false
	short := false
	opts.WriteHook = func(frame []byte) ([]byte, error) {
		if fail {
			return nil, errors.New("disk on fire")
		}
		if short {
			return frame[:len(frame)/2], nil
		}
		return frame, nil
	}
	s := mustOpen(t, opts)
	appendN(t, s, 2)

	fail = true
	if err := s.Append(Record{Type: RecResult}); err == nil {
		t.Fatal("injected error not surfaced")
	}
	fail = false

	// A short (torn) write leaves a truncated frame on disk; the append
	// must report failure — the record was never durable — and recovery
	// must drop it, preserving the intact prefix.
	short = true
	if err := s.Append(Record{Type: RecResult, Project: "torn"}); err == nil {
		t.Fatal("short write not surfaced as an append error")
	}
	short = false
	s.Close()

	s2 := mustOpen(t, Options{Dir: opts.Dir, SyncHook: noSync, Obs: obs.New()})
	defer s2.Close()
	rec := s2.Recovered()
	if len(rec.Records) != 2 {
		t.Fatalf("recovered %d records, want the 2 intact ones", len(rec.Records))
	}
	if rec.Torn == "" {
		t.Fatal("short write not detected as torn tail")
	}
}

func TestAppendAfterTornTailUsesFreshSegment(t *testing.T) {
	opts := testOptions(t)
	s := mustOpen(t, opts)
	appendN(t, s, 3)
	s.Close()
	// Tear the tail by truncating mid-record.
	segs, _, _ := scanDir(opts.Dir)
	last := segs[len(segs)-1].path
	info, _ := os.Stat(last)
	os.Truncate(last, info.Size()-3)

	s2 := mustOpen(t, opts)
	if s2.Recovered().Torn == "" {
		t.Fatal("expected torn tail")
	}
	appendN(t, s2, 2)
	s2.Close()

	// The torn segment must be untouched; new records live in a new segment.
	s3 := mustOpen(t, opts)
	defer s3.Close()
	rec := s3.Recovered()
	if len(rec.Records) != 4 { // 2 intact from before + 2 new
		t.Fatalf("recovered %d records, want 4", len(rec.Records))
	}
}

func TestMetricsRecorded(t *testing.T) {
	opts := testOptions(t)
	s := mustOpen(t, opts)
	appendN(t, s, 3)
	if got := s.met.appends.Value(); got != 3 {
		t.Fatalf("appends counter = %d, want 3", got)
	}
	if s.met.fsyncs.Value() == 0 {
		t.Fatal("fsync batches counter never incremented")
	}
	idx, last, _ := s.Rotate()
	s.WriteSnapshot(idx, last, &Snapshot{})
	if got := s.met.snapshots.Value(); got != 1 {
		t.Fatalf("snapshots counter = %d, want 1", got)
	}
	s.Close()

	s2 := mustOpen(t, opts)
	defer s2.Close()
	if s2.met.recoveries.Value() != 1 {
		t.Fatal("recovery not counted on non-empty dir")
	}
}

func TestInspect(t *testing.T) {
	opts := testOptions(t)
	s := mustOpen(t, opts)
	appendN(t, s, 2)
	idx, last, _ := s.Rotate()
	s.WriteSnapshot(idx, last, &Snapshot{Projects: []ProjectSnap{{
		Name: "proj", Controller: "msm", State: "running", Generation: 1}}})
	appendN(t, s, 2)
	s.Close()

	insp, err := Inspect(opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if !insp.Healthy {
		t.Fatal("clean dir reported unhealthy")
	}
	if insp.Baseline != idx {
		t.Fatalf("baseline %d, want %d", insp.Baseline, idx)
	}
	if len(insp.Snapshots) != 1 || insp.Snapshots[0].Projects[0].Name != "proj" {
		t.Fatalf("snapshot not inspected: %+v", insp.Snapshots)
	}
	// Compaction deleted the pre-snapshot segment, so only the 2
	// post-snapshot records remain inspectable.
	var total int
	for _, seg := range insp.Segments {
		total += len(seg.Records)
		for _, r := range seg.Records {
			if r.Type != RecCommandQueued.String() {
				t.Fatalf("record rendered with wrong type %q", r.Type)
			}
		}
	}
	if total != 2 {
		t.Fatalf("inspected %d records, want 2", total)
	}

	// Corrupting a snapshot flips Healthy.
	_, snaps, _ := scanDir(opts.Dir)
	data, _ := os.ReadFile(snaps[0].path)
	data[len(data)-1] ^= 0xFF
	os.WriteFile(snaps[0].path, data, 0o644)
	insp2, err := Inspect(opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if insp2.Healthy {
		t.Fatal("corrupt snapshot not flagged")
	}

	if _, err := Inspect(filepath.Join(opts.Dir, "missing")); err == nil {
		t.Fatal("missing dir should error")
	}
}

func TestGroupCommitConcurrentAppends(t *testing.T) {
	opts := testOptions(t)
	opts.SyncHook = nil // real fsyncs so group commit actually batches
	s := mustOpen(t, opts)
	defer s.Close()
	const writers, each = 8, 20
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < each; i++ {
				if err := s.Append(Record{Type: RecResult, Project: "p",
					Command: "c", Worker: "w"}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := s.met.appends.Value(); got != writers*each {
		t.Fatalf("appends = %d, want %d", got, writers*each)
	}
	// Group commit must have merged at least some appends into shared
	// fsync batches.
	if f := s.met.fsyncs.Value(); f >= writers*each {
		t.Fatalf("no batching: %d fsyncs for %d appends", f, writers*each)
	}
}
