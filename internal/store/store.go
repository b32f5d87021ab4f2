// Package store is the durable-state subsystem of the reproduction: an
// append-only, CRC32C-framed write-ahead log of project lifecycle events
// with group-commit fsync batching, periodic snapshots with log
// truncation, and a recovery path that tolerates a torn final record.
//
// The paper's central claim is that the server — not the worker — owns the
// ensemble: projects, the command queue and adaptive-controller state all
// live server-side. This package makes that ownership survive a server
// crash: every state transition is journaled before it is acknowledged, a
// snapshot taken at segment rotation bounds replay time, and on restart
// the server replays snapshot + tail to resume MSM generations exactly
// where they left off (internal/server/persist.go drives the replay).
//
// On-disk layout inside the state directory:
//
//	wal-%016d.log    append-only segments of framed records
//	snap-%016d.snap  snapshot covering all segments with a lower index
//
// Each WAL record is framed as [4-byte length][4-byte CRC32C][body], the
// body in internal/wire's binary codec; each segment opens with an 8-byte
// magic (format.go has the layout, and the gob format older builds wrote). A
// crash mid-append leaves a torn final frame, which recovery detects by CRC
// and discards — the write was never acknowledged, so discarding it is
// correct. Snapshots are written through atomicfile, so a torn snapshot
// cannot exist.
package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"copernicus/internal/obs"
	"copernicus/internal/store/atomicfile"
	"copernicus/internal/wire"
)

// Options configures a Store. Dir is required.
type Options struct {
	// Dir is the state directory; created if missing.
	Dir string
	// FsyncInterval caps the group-commit wait. The syncer holds a batch
	// open until the Commit callers the previous fsync released wait on it
	// again, beside any still waiting when that fsync ended, but never
	// longer than this after it takes the batch up. The first batch, and
	// any batch whose writers come back sooner, is fsynced at once. 0 means
	// fsync as soon as the syncer gets the batch (still group commit:
	// appends that arrive while a previous fsync is in flight share the
	// next one).
	FsyncInterval time.Duration
	// SnapshotEvery is the number of appended records between snapshot
	// hints (ShouldSnapshot). 0 disables the hint; snapshots then happen
	// only when the owner asks. Default 512 when negative.
	SnapshotEvery int
	// WriteHook, when set, intercepts every WAL frame just before it is
	// written — the chaos harness's entry point for injecting short writes
	// and I/O errors. Returning a shortened slice simulates a torn write;
	// returning an error simulates a failing disk. The frame is the store's
	// append buffer: a hook must not keep it past its return.
	WriteHook func(frame []byte) ([]byte, error)
	// SyncHook, when set, runs in place of every fsync of the active segment
	// and is handed the real one. Test-only: it lets a test hold a group
	// commit in flight, fail it, note what it covered, or skip it.
	SyncHook func(sync func() error) error
	// Obs receives the copernicus_store_* metrics; nil selects a silent
	// bundle.
	Obs *obs.Obs
}

func (o *Options) fill() {
	if o.SnapshotEvery < 0 {
		o.SnapshotEvery = 512
	}
	if o.Obs == nil {
		o.Obs = obs.New()
	}
}

// Recovered is what Open found on disk: the newest readable snapshot and
// the WAL tail to replay on top of it.
type Recovered struct {
	// Snapshot is the recovery baseline; nil when no usable snapshot exists
	// (replay then starts from an empty server).
	Snapshot *Snapshot
	// Records is the tail to replay, in append order.
	Records []Record
	// Torn describes a discarded torn final record ("" when the log ended
	// cleanly).
	Torn string
	// Gap describes a hole in the segment chain the chosen baseline needs
	// ("" when the chain is intact). Non-empty means compaction (or manual
	// deletion) removed segments that recovery could not do without —
	// typically because the newest snapshot failed to decode and recovery
	// fell back past it — so the recovered state may be stale.
	Gap string
	// Segments is how many WAL segments were read.
	Segments int
}

// Store is a durable write-ahead log plus snapshot manager. All methods
// are safe for concurrent use.
type Store struct {
	opts Options
	log  *obs.Logger
	met  storeMetrics

	mu        sync.Mutex
	seg       *os.File
	frame     []byte // the append buffer every WAL frame is encoded into
	segIndex  uint64
	segBytes  int64
	nextSeq   uint64
	sinceSnap int
	closed    bool
	// durable is the commit frontier: every record with Seq <= durable has
	// its verdict — covered by a completed fsync, or by a range in failed
	// (one per failed fsync). Commit waits on synced (tied to mu) for it.
	durable uint64
	failed  []failedSync
	synced  *sync.Cond
	// pendingSince is when the oldest record that no fsync has picked up
	// yet was staged; zero when there is none.
	pendingSince time.Time
	// syncing is true while the syncer fsyncs seg outside mu, through
	// syncThrough: staging goes on, rotation and close wait on synced so the
	// file is not sealed or closed under it.
	syncing     bool
	syncThrough uint64
	// The group commit counts Commit callers, not records: a replicated
	// batch is many records and one writer. waiting are the callers blocked
	// on a record no fsync has picked up yet, riding those the in-flight
	// fsync covers. want is how many waiting callers the syncer holds the
	// next batch for: those still waiting when the last fsync ended, plus
	// the writers it released.
	waiting, riding, want int
	// segFirst maps segment index → the first sequence number appended (or
	// appendable) in that segment, for segments created by this process. It
	// lets replication shipping skip whole segments and lets a replica pick
	// a safe local baseline when installing a shipped snapshot.
	segFirst map[uint64]uint64
	// poisoned marks the active segment as possibly ending in a torn or
	// partial frame (a failed or shortened write). readRecords stops a
	// segment at the first corrupt frame, so appending past the damage
	// would silently lose every later record at recovery; the next append
	// rotates to a fresh segment first.
	poisoned bool

	recovered *Recovered

	// latMu guards latEWMA, the moving average behind AppendLatency. A
	// separate mutex so readers (the scheduler's Match hot path) never
	// contend with writers staging under s.mu.
	latMu   sync.Mutex
	latEWMA float64

	kick chan struct{}
	back chan struct{} // Commit: waiting has reached want
	stop chan struct{}
	wg   sync.WaitGroup
}

// failedSync is one failed fsync: records from..to may not be durable.
type failedSync struct {
	from, to uint64
	err      error
}

// storeMetrics are the copernicus_store_* series.
type storeMetrics struct {
	appends     *obs.Counter
	fsyncs      *obs.Counter
	capped      *obs.Counter
	walErrors   *obs.Counter
	snapshots   *obs.Counter
	recoveries  *obs.Counter
	appendWait  *obs.Histogram
	fsyncTime   *obs.Histogram
	recordBytes *obs.Histogram
	snapTime    *obs.Histogram
	recoverySec *obs.Gauge
	replayed    *obs.Gauge
}

// fsyncBuckets resolve sub-millisecond page-cache syncs up to slow disks.
var fsyncBuckets = []float64{1e-5, 1e-4, 5e-4, 1e-3, 5e-3, .01, .05, .1, .5, 1}

func newStoreMetrics(o *obs.Obs, dir string) storeMetrics {
	l := obs.L("dir", dir)
	m := o.Metrics
	return storeMetrics{
		appends: m.Counter("copernicus_store_wal_appends_total",
			"Records appended to the write-ahead log.", l),
		fsyncs: m.Counter("copernicus_store_wal_fsyncs_total",
			"Group-commit fsync batches issued.", l),
		capped: m.Counter("copernicus_store_wal_batch_capped_total",
			"Group commits whose wait for their writers ended at the fsync interval.", l),
		walErrors: m.Counter("copernicus_store_wal_errors_total",
			"WAL appends that failed at the I/O layer.", l),
		snapshots: m.Counter("copernicus_store_snapshots_total",
			"Snapshots written (each truncates the log).", l),
		recoveries: m.Counter("copernicus_store_recoveries_total",
			"Times a state directory was recovered at startup.", l),
		appendWait: m.Histogram("copernicus_store_wal_append_seconds",
			"Stage-to-durable latency of the oldest record in each group commit.",
			fsyncBuckets, l),
		fsyncTime: m.Histogram("copernicus_store_wal_fsync_seconds",
			"Latency of each group-commit fsync.", fsyncBuckets, l),
		recordBytes: m.Histogram("copernicus_store_wal_record_bytes",
			"Size of framed WAL records.", obs.SizeBuckets(), l),
		snapTime: m.Histogram("copernicus_store_snapshot_seconds",
			"Wall time of snapshot writes.", nil, l),
		recoverySec: m.Gauge("copernicus_store_recovery_seconds",
			"Wall time of the last startup recovery scan.", l),
		replayed: m.Gauge("copernicus_store_replayed_records",
			"WAL records handed to the last startup replay.", l),
	}
}

// Open loads the state directory (creating it if missing), reads the
// newest valid snapshot and the WAL tail into Recovered, and opens a fresh
// active segment so new appends never extend a possibly-torn file.
func Open(opts Options) (*Store, error) {
	opts.fill()
	if opts.Dir == "" {
		return nil, errors.New("store: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", opts.Dir, err)
	}
	s := &Store{
		opts:     opts,
		log:      opts.Obs.Log.Named("store").With("dir", opts.Dir),
		met:      newStoreMetrics(opts.Obs, opts.Dir),
		kick:     make(chan struct{}, 1),
		back:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		segFirst: make(map[uint64]uint64),
	}
	start := time.Now()
	rec, maxIndex, err := loadDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	s.recovered = rec
	if rec.Gap != "" {
		s.log.Error("recovered state may be stale: the write-ahead log has a gap",
			"detail", rec.Gap)
	}
	s.met.recoverySec.Set(time.Since(start).Seconds())
	s.met.replayed.Set(float64(len(rec.Records)))
	if rec.Snapshot != nil || len(rec.Records) > 0 {
		s.met.recoveries.Inc()
	}
	s.synced = sync.NewCond(&s.mu)
	s.nextSeq = 1
	if rec.Snapshot != nil && rec.Snapshot.LastSeq >= s.nextSeq {
		s.nextSeq = rec.Snapshot.LastSeq + 1
	}
	if n := len(rec.Records); n > 0 && rec.Records[n-1].Seq >= s.nextSeq {
		s.nextSeq = rec.Records[n-1].Seq + 1
	}
	s.durable = s.nextSeq - 1
	s.segIndex = maxIndex // rotateLocked moves to maxIndex+1
	if err := s.rotateLocked(); err != nil {
		return nil, err
	}
	s.opts.Obs.Metrics.GaugeFunc("copernicus_store_wal_segment_bytes",
		"Bytes in the active WAL segment.", obs.L("dir", opts.Dir),
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.segBytes)
		})
	s.wg.Add(1)
	go s.syncLoop()
	return s, nil
}

// Recovered returns what Open found on disk. The caller replays it once at
// startup; the slice is not copied.
func (s *Store) Recovered() *Recovered { return s.recovered }

// Dir returns the state directory.
func (s *Store) Dir() string { return s.opts.Dir }

// Append journals one record durably: Stage, then Commit of the staged
// record. An error means the record may not be durable; the owner decides
// whether to degrade or abort.
func (s *Store) Append(rec Record) error {
	seq, err := s.Stage(rec)
	if err != nil {
		return err
	}
	return s.Commit(seq)
}

// Stage assigns rec its Seq and Time, frames it and writes it to the active
// segment, and returns the Seq without waiting for an fsync. The WAL is
// prefix-durable: an fsync that covers a record covers every record staged
// before it. A failed Stage consumes no sequence number.
func (s *Store) Stage(rec Record) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.readyLocked(); err != nil {
		return 0, err
	}
	rec.Seq = s.nextSeq
	rec.Time = time.Now().UnixNano()
	if err := s.writeLocked(&rec); err != nil {
		return 0, err
	}
	return rec.Seq, nil
}

// Commit blocks until the fsync frontier covers seq, a Seq that Stage
// returned; Commit(LastSeq()) is a barrier over everything staged so far.
// Its error is a failed fsync over seq, which the store has already logged
// and counted once; nil also vouches for every earlier record that no
// failed fsync gave up on.
func (s *Store) Commit(seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq >= s.nextSeq {
		return fmt.Errorf("store: commit of record %d, but the log ends at %d", seq, s.nextSeq-1)
	}
	if s.durable < seq {
		if s.syncing && seq <= s.syncThrough {
			s.riding++
		} else {
			s.waiting++
			if s.waiting >= s.want {
				select {
				case s.back <- struct{}{}:
				default: // the syncer has a wake-up queued already
				}
			}
		}
		for s.durable < seq {
			s.synced.Wait()
		}
	}
	for _, f := range s.failed {
		if f.from <= seq && seq <= f.to {
			return fmt.Errorf("store: fsync covering record %d: %w", seq, f.err)
		}
	}
	return nil
}

// readyLocked checks that the store can take a frame. After a failed write
// or fsync the active segment may end in a torn frame, and recovery trusts a
// segment only up to its first corrupt one, so it opens a fresh segment first.
func (s *Store) readyLocked() error {
	if s.closed {
		return errors.New("store: closed")
	}
	if s.poisoned {
		if err := s.rotateLocked(); err != nil {
			s.met.walErrors.Inc()
			return fmt.Errorf("store: rotating away from poisoned segment: %w", err)
		}
	}
	return nil
}

// writeLocked frames rec (whose Seq the caller has set to s.nextSeq) and
// writes it to the active segment: the one routine that puts a frame in the
// WAL. It wakes the syncer but does not wait for it.
func (s *Store) writeLocked(rec *Record) error {
	frame, err := appendFrame(s.frame[:0], rec)
	if err != nil {
		return err
	}
	if cap(frame) <= wire.MaxReusedBuffer {
		s.frame = frame
	}
	full := len(frame)
	if s.opts.WriteHook != nil {
		if frame, err = s.opts.WriteHook(frame); err != nil {
			// The fault may have hit after partial bytes reached the file;
			// treat the segment as torn either way.
			s.poisoned = true
			s.met.walErrors.Inc()
			return fmt.Errorf("store: injected write fault: %w", err)
		}
	}
	// A frame the hook shortened is an injected torn write: it goes to disk,
	// the image a power cut leaves behind, and fails the append exactly like
	// a short write from the kernel. The record was never durable.
	n, err := s.seg.Write(frame)
	s.segBytes += int64(n)
	if err == nil && n != full {
		err = io.ErrShortWrite
	}
	if err != nil {
		s.poisoned = true
		s.met.walErrors.Inc()
		return fmt.Errorf("store: appending record %d: %d of %d bytes: %w", rec.Seq, n, full, err)
	}
	s.nextSeq = rec.Seq + 1
	s.sinceSnap++
	s.met.appends.Inc()
	s.met.recordBytes.Observe(float64(full))
	if s.pendingSince.IsZero() {
		s.pendingSince = time.Now()
	}
	select {
	case s.kick <- struct{}{}:
	default: // a kick is already queued; the syncer will pick this record up
	}
	return nil
}

// AppendLatency returns an exponentially-weighted moving average, in
// seconds, of how long the oldest record of each group commit waited from
// Stage to durable. The scheduler feeds it into queue.Match as a
// backpressure signal, so a slow WAL disk throttles new assignment instead of
// growing the in-flight window. Zero until the first fsync.
func (s *Store) AppendLatency() float64 {
	s.latMu.Lock()
	defer s.latMu.Unlock()
	return s.latEWMA
}

// observeAppendLatency folds one group commit's latency into the EWMA. Alpha
// 0.2 reacts to a disk going slow within a handful of commits while
// smoothing over a single unlucky fsync.
func (s *Store) observeAppendLatency(sec float64) {
	s.latMu.Lock()
	if s.latEWMA == 0 {
		s.latEWMA = sec
	} else {
		const alpha = 0.2
		s.latEWMA = alpha*sec + (1-alpha)*s.latEWMA
	}
	s.latMu.Unlock()
}

// syncLoop is the group-commit engine: one fsync per batch of staged
// records.
func (s *Store) syncLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case <-s.kick:
		}
		if !s.gather() {
			return
		}
		s.flush()
	}
}

// gather holds the pending batch open until the writers the last fsync
// released are waiting on it again, beside those that were still waiting
// when it ended, or for FsyncInterval, whichever comes first. Waiting for the
// writers rather than the clock lets a lone writer fsync at once, while
// writers woken together by one fsync share the next instead of splitting
// into alternating half-batches. It reports false when the store is stopping.
func (s *Store) gather() bool {
	d := s.opts.FsyncInterval
	if d <= 0 || s.gathered() {
		return true
	}
	timeout := time.NewTimer(d)
	defer timeout.Stop()
	for !s.gathered() {
		select {
		case <-s.stop:
			return false
		case <-timeout.C:
			if !s.gathered() {
				s.met.capped.Inc()
			}
			return true
		case <-s.back:
		}
	}
	return true
}

// gathered reports whether the pending batch may go: nothing is pending, or
// as many Commit callers wait on it as the syncer holds it for.
func (s *Store) gathered() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pendingSince.IsZero() || s.waiting >= s.want
}

// flush fsyncs the active segment outside s.mu, so writers keep staging into
// it, and moves the frontier over everything staged when the fsync began.
func (s *Store) flush() {
	s.mu.Lock()
	through, since := s.nextSeq-1, s.pendingSince
	if through == s.durable {
		s.mu.Unlock()
		return
	}
	seg := s.seg
	s.pendingSince = time.Time{}
	s.syncing, s.syncThrough = true, through
	s.riding, s.waiting = s.waiting, 0
	s.mu.Unlock()

	t0 := time.Now()
	err := s.fsync(seg)
	s.met.fsyncTime.Observe(time.Since(t0).Seconds())

	s.mu.Lock()
	s.syncing = false
	if err != nil {
		// Records staged behind the failing fsync sit in the same segment,
		// so their durability is just as unknown.
		through, s.pendingSince = s.nextSeq-1, time.Time{}
	}
	s.resolveLocked(through, since, err)
	s.mu.Unlock()
}

// fsync syncs one segment file, through the test hook if one is set.
func (s *Store) fsync(seg *os.File) error {
	if s.opts.SyncHook != nil {
		return s.opts.SyncHook(seg.Sync)
	}
	return seg.Sync()
}

// resolveLocked gives every record up to through (the oldest staged at
// since) the verdict of an fsync of the active segment, and wakes whoever
// waits on the frontier or on the fsync's end. A failure is logged and
// counted here, once, not by each waiter it fails.
func (s *Store) resolveLocked(through uint64, since time.Time, err error) {
	if err != nil {
		// Durability of everything in the segment is now unknown; the next
		// append starts a fresh one rather than extending it.
		s.poisoned = true
	}
	released := s.riding
	s.riding = 0
	if through == s.nextSeq-1 {
		released += s.waiting
		s.waiting = 0
	}
	if through > s.durable {
		s.want = s.waiting + released
		if err != nil {
			s.failed = append(s.failed, failedSync{from: s.durable + 1, to: through, err: err})
			s.met.walErrors.Inc()
			s.log.Error("fsync of the write-ahead log failed; continuing without durability for the records it covered",
				"first_seq", s.durable+1, "last_seq", through, "err", err)
		}
		s.durable = through
		s.met.fsyncs.Inc()
		elapsed := time.Since(since).Seconds()
		s.met.appendWait.Observe(elapsed)
		s.observeAppendLatency(elapsed)
	}
	s.synced.Broadcast()
}

// ShouldSnapshot reports whether enough records have accumulated since the
// last snapshot rotation to warrant a snapshot (Options.SnapshotEvery).
func (s *Store) ShouldSnapshot() bool {
	if s.opts.SnapshotEvery <= 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sinceSnap >= s.opts.SnapshotEvery
}

// AppendedSinceRotation reports how many records have been appended since
// the last snapshot rotation. Because a snapshot's LastSeq is fixed at
// rotation, every one of these records lands in the replay tail of the
// next recovery even if a snapshot is being captured right now — which is
// what makes the count useful for reasoning about (and testing) how much
// a crash would replay.
func (s *Store) AppendedSinceRotation() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sinceSnap
}

// Rotate seals the active segment (fsyncing it and releasing pending
// group-commit waiters) and opens a fresh one, returning the new segment's
// index and the sequence number of the last record appended before the
// rotation. The snapshot protocol is: idx, last := Rotate(); capture
// state; WriteSnapshot(idx, last, snap). Records appended between Rotate
// and the capture land in segment idx with Seq > last and are replayed on
// top of the snapshot at recovery; replay is idempotent, so the overlap
// is harmless. lastSeq must be the rotate-time value, NOT the append
// cursor at capture or write time: a state capture only guarantees to
// reflect records journaled before the rotation, and recovery skips
// replaying anything at or below the snapshot's LastSeq.
func (s *Store) Rotate() (idx, lastSeq uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.rotateLocked(); err != nil {
		return 0, 0, err
	}
	// Only a snapshot-protocol rotation resets the hint: rotations that
	// recover from a poisoned segment must not starve ShouldSnapshot.
	s.sinceSnap = 0
	return s.segIndex, s.nextSeq - 1, nil
}

// rotateLocked seals s.seg (if any) and opens segment s.segIndex+1. It
// first waits out an in-flight fsync, releasing s.mu meanwhile, so callers
// must not rely on state read before the call; the seal fsync itself runs
// under s.mu so no record slips into the old segment behind it. A poisoned
// segment is sealed best-effort: its tail is torn garbage anyway, and
// refusing to rotate would pin every future append to the damage.
func (s *Store) rotateLocked() error {
	if s.seg != nil {
		for s.syncing {
			s.synced.Wait()
		}
		if s.closed {
			return errors.New("store: closed")
		}
		// A seal failure matters to the rotation only when nobody else gets
		// to hear of it: records still above the frontier take the verdict.
		moot := s.poisoned || s.durable < s.nextSeq-1
		err := s.fsync(s.seg)
		s.resolveLocked(s.nextSeq-1, s.pendingSince, err)
		s.pendingSince = time.Time{}
		if err != nil && !moot {
			return fmt.Errorf("store: sealing segment %d: %w", s.segIndex, err)
		}
		if err := s.seg.Close(); err != nil && !s.poisoned {
			return fmt.Errorf("store: closing segment %d: %w", s.segIndex, err)
		}
	}
	idx := s.segIndex + 1
	path := segmentPath(s.opts.Dir, idx)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating segment %d: %w", idx, err)
	}
	if _, err := f.Write(segMagic); err != nil {
		f.Close()
		return fmt.Errorf("store: writing segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: syncing segment header: %w", err)
	}
	if err := atomicfile.SyncDir(s.opts.Dir); err != nil {
		f.Close()
		return err
	}
	s.seg = f
	s.segIndex = idx
	s.segBytes = int64(len(segMagic))
	s.poisoned = false
	s.segFirst[idx] = s.nextSeq
	return nil
}

// WriteSnapshot durably records snap as the recovery baseline for segment
// index idx, then deletes the WAL segments and snapshots it obsoletes.
// idx and lastSeq are the pair returned by the Rotate call that preceded
// the state capture; stamping a later append cursor instead would make
// recovery skip records the capture never saw.
func (s *Store) WriteSnapshot(idx, lastSeq uint64, snap *Snapshot) error {
	start := time.Now()
	snap.LastSeq = lastSeq
	snap.TakenAt = time.Now().UnixNano()
	if err := atomicfile.WriteFile(snapshotPath(s.opts.Dir, idx), encodeSnapshot(snap), 0o644); err != nil {
		return err
	}
	s.met.snapshots.Inc()
	s.met.snapTime.Observe(time.Since(start).Seconds())
	s.compact(idx)
	return nil
}

// compact removes WAL segments and snapshots older than the baseline idx.
func (s *Store) compact(idx uint64) {
	segs, snaps, err := scanDir(s.opts.Dir)
	if err != nil {
		s.log.Warn("compaction scan failed", "err", err)
		return
	}
	removed := 0
	for _, f := range segs {
		if f.index < idx {
			if err := os.Remove(f.path); err == nil {
				removed++
			}
		}
	}
	for _, f := range snaps {
		if f.index < idx {
			os.Remove(f.path)
		}
	}
	if removed > 0 {
		s.log.Info("compacted write-ahead log", "segments_removed", removed, "baseline", idx)
	}
	_ = atomicfile.SyncDir(s.opts.Dir)
	s.mu.Lock()
	for i := range s.segFirst {
		if i < idx {
			delete(s.segFirst, i)
		}
	}
	s.mu.Unlock()
}

// Close flushes and fsyncs the active segment and stops the syncer. It
// does NOT write a snapshot: a process killed before Close recovers
// identically, which is the whole point.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	s.wg.Wait() // the syncer is gone: no fsync is in flight past this point
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.fsync(s.seg)
	s.resolveLocked(s.nextSeq-1, s.pendingSince, err)
	if cerr := s.seg.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- directory scanning and recovery ---

type dirFile struct {
	path  string
	index uint64
}

func segmentPath(dir string, idx uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016d.log", idx))
}

func snapshotPath(dir string, idx uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016d.snap", idx))
}

// scanDir lists WAL segments and snapshots sorted by ascending index.
func scanDir(dir string) (segs, snaps []dirFile, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("store: reading %s: %w", dir, err)
	}
	for _, e := range entries {
		var idx uint64
		name := e.Name()
		switch {
		case len(name) == len("wal-0000000000000000.log") &&
			name[:4] == "wal-" && filepath.Ext(name) == ".log":
			if _, err := fmt.Sscanf(name, "wal-%016d.log", &idx); err == nil {
				segs = append(segs, dirFile{filepath.Join(dir, name), idx})
			}
		case len(name) == len("snap-0000000000000000.snap") &&
			name[:5] == "snap-" && filepath.Ext(name) == ".snap":
			if _, err := fmt.Sscanf(name, "snap-%016d.snap", &idx); err == nil {
				snaps = append(snaps, dirFile{filepath.Join(dir, name), idx})
			}
		}
	}
	byIndex := func(fs []dirFile) func(i, j int) bool {
		return func(i, j int) bool { return fs[i].index < fs[j].index }
	}
	sort.Slice(segs, byIndex(segs))
	sort.Slice(snaps, byIndex(snaps))
	return segs, snaps, nil
}

// loadDir builds the Recovered image: newest valid snapshot, then every
// record from segments at or after the snapshot's baseline index. A torn
// record ends replay of its own segment — frame boundaries after a tear
// are unrecoverable — but later segments are trusted again: recovery
// always rotates to a fresh segment before appending, so anything in a
// higher-indexed file was acknowledged after the tear was discarded.
func loadDir(dir string) (*Recovered, uint64, error) {
	segs, snaps, err := scanDir(dir)
	if err != nil {
		return nil, 0, err
	}
	rec := &Recovered{}
	var maxIndex uint64
	for _, f := range segs {
		if f.index > maxIndex {
			maxIndex = f.index
		}
	}
	for _, f := range snaps {
		if f.index > maxIndex {
			maxIndex = f.index
		}
	}

	// Newest snapshot that decodes and passes its CRC wins; older ones are
	// fallbacks in case a compaction raced a crash.
	baseline := uint64(0)
	for i := len(snaps) - 1; i >= 0; i-- {
		data, err := os.ReadFile(snaps[i].path)
		if err != nil {
			continue
		}
		snap, err := decodeSnapshot(data)
		if err != nil {
			continue
		}
		rec.Snapshot = snap
		baseline = snaps[i].index
		break
	}

	// Audit the chain of segments the chosen baseline needs before reading
	// it. Segment indexes are assigned contiguously, and compact() deletes
	// everything below the *newest* snapshot — so if recovery fell back
	// past that snapshot (it failed to decode), the segments its fallback
	// baseline needs may already be gone. Restoring through a hole would
	// silently produce stale state; Gap makes it loud instead.
	var tail []dirFile
	for _, f := range segs {
		if f.index >= baseline {
			tail = append(tail, f)
		}
	}
	for i := 1; i < len(tail); i++ {
		if tail[i].index != tail[i-1].index+1 {
			rec.Gap = fmt.Sprintf("WAL segments %d..%d are missing",
				tail[i-1].index+1, tail[i].index-1)
		}
	}
	if fellBack := len(snaps) > 0 &&
		(rec.Snapshot == nil || baseline != snaps[len(snaps)-1].index); fellBack {
		// With no usable snapshot, only a chain starting at the very first
		// segment replays full history; with an older one, the chain must
		// start at its own baseline index.
		want := uint64(1)
		if rec.Snapshot != nil {
			want = baseline
		}
		switch {
		case len(tail) == 0:
			rec.Gap = "fell back past the newest snapshot with no WAL segments left to replay"
		case tail[0].index != want:
			rec.Gap = fmt.Sprintf("fell back past the newest snapshot, but WAL segments %d..%d were already compacted away",
				want, tail[0].index-1)
		}
	}

	for _, f := range tail {
		recs, torn, err := readSegmentFile(f.path)
		if err != nil {
			return nil, 0, err
		}
		rec.Segments++
		// Skip records the snapshot already reflects (the Rotate →
		// capture window) — replay is idempotent anyway, but this keeps
		// the replayed-records gauge honest.
		for _, r := range recs {
			if rec.Snapshot != nil && r.Seq <= rec.Snapshot.LastSeq {
				continue
			}
			rec.Records = append(rec.Records, r)
		}
		if torn != "" {
			rec.Torn = fmt.Sprintf("%s: %s", filepath.Base(f.path), torn)
		}
	}
	return rec, maxIndex, nil
}
