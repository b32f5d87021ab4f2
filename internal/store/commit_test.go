package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// syncGate is a SyncHook that can hold fsyncs in flight and make them fail,
// and that tracks what completed fsyncs have made durable: the size of every
// segment when the last successful fsync began. A file cut to those sizes is
// the least a power cut at this instant could leave behind.
type syncGate struct {
	dir     string
	entered chan struct{} // one token per hook call that found the gate held

	mu      sync.Mutex
	held    chan struct{} // non-nil while fsyncs are being held
	fail    error         // verdict for fsyncs released from a hold
	durable map[string]int64
}

func newSyncGate(dir string) *syncGate {
	// The buffer only has to outlast the few held fsyncs one test provokes.
	return &syncGate{dir: dir, entered: make(chan struct{}, 16)}
}

func (g *syncGate) hook(sync func() error) error {
	sizes := make(map[string]int64)
	segs, _, _ := scanDir(g.dir)
	for _, f := range segs {
		if info, err := os.Stat(f.path); err == nil {
			sizes[f.path] = info.Size()
		}
	}
	g.mu.Lock()
	held := g.held
	g.mu.Unlock()
	if held != nil {
		g.entered <- struct{}{}
		<-held
	}
	g.mu.Lock()
	err := g.fail
	g.mu.Unlock()
	if err == nil {
		err = sync()
	}
	if err == nil {
		g.mu.Lock()
		g.durable = sizes
		g.mu.Unlock()
	}
	return err
}

func (g *syncGate) hold() {
	g.mu.Lock()
	g.held = make(chan struct{})
	g.mu.Unlock()
}

// release lets held fsyncs go, failing them (and no later ones) with err.
func (g *syncGate) release(err error) {
	g.mu.Lock()
	held := g.held
	g.held, g.fail = nil, err
	g.mu.Unlock()
	close(held)
}

func (g *syncGate) heal() {
	g.mu.Lock()
	g.fail = nil
	g.mu.Unlock()
}

// crashImage copies the state directory as a power cut would leave it: every
// segment cut back to what a completed fsync covers.
func (g *syncGate) crashImage(t *testing.T) string {
	g.mu.Lock()
	sizes := g.durable
	g.mu.Unlock()
	out := t.TempDir()
	for path, size := range sizes {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("reading %s: %v", path, err)
			continue
		}
		if err := os.WriteFile(filepath.Join(out, filepath.Base(path)), data[:size], 0o644); err != nil {
			t.Error(err)
		}
	}
	return out
}

func waitFor(t *testing.T, what string, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestCommitFrontier is the stage/commit contract: whenever Commit(seq)
// returns, record seq and every record before it survive a power cut at that
// instant, whatever other writers, commits and rotations are going on.
func TestCommitFrontier(t *testing.T) {
	opts := testOptions(t)
	gate := newSyncGate(opts.Dir)
	opts.SyncHook = gate.hook
	s := mustOpen(t, opts)
	defer s.Close()

	const writers, each = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < each; i++ {
				seq, err := s.Stage(Record{Type: RecResult, Project: "p",
					Command: fmt.Sprintf("w%d-%d", w, i)})
				if err != nil {
					t.Errorf("stage: %v", err)
					return
				}
				switch rng.Intn(8) {
				case 0:
					if _, _, err := s.Rotate(); err != nil {
						t.Errorf("rotate: %v", err)
					}
				case 1, 2, 3:
					continue // leave it to someone else's commit
				}
				if err := s.Commit(seq); err != nil {
					t.Errorf("commit %d: %v", seq, err)
					return
				}
				if rng.Intn(4) != 0 {
					continue
				}
				rec, err := ReadAll(gate.crashImage(t))
				if err != nil {
					t.Errorf("reading crash image: %v", err)
					return
				}
				for j := uint64(0); j < seq; j++ {
					if j >= uint64(len(rec.Records)) || rec.Records[j].Seq != j+1 {
						t.Errorf("commit %d returned, but the crash image holds only %d records in sequence",
							seq, j)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Commit(s.LastSeq()); err != nil {
		t.Fatal(err)
	}
	if got := s.LastSeq(); got != writers*each {
		t.Fatalf("last seq %d, want %d", got, writers*each)
	}
}

// TestFailedFsyncFailsWhatItCovered: a failing fsync fails every record it
// covered — including one staged while it was in flight, which sits in the
// same doubtful segment — is counted once, and poisons the segment so later
// appends start a fresh one.
func TestFailedFsyncFailsWhatItCovered(t *testing.T) {
	opts := testOptions(t)
	gate := newSyncGate(opts.Dir)
	opts.SyncHook = gate.hook
	s := mustOpen(t, opts)
	defer s.Close()
	appendN(t, s, 2)

	gate.hold()
	var seqs []uint64
	for i := 0; i < 3; i++ {
		seq, err := s.Stage(Record{Type: RecResult})
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
		if i == 1 {
			waitFor(t, "the fsync to start", gate.entered) // the third is staged behind it
		}
	}
	errs := make(chan error, len(seqs))
	for _, seq := range seqs {
		go func(seq uint64) { errs <- s.Commit(seq) }(seq)
	}
	s.mu.Lock()
	before, segBefore := s.met.walErrors.Value(), s.segIndex
	s.mu.Unlock()
	gate.release(errors.New("disk on fire"))
	for range seqs {
		select {
		case err := <-errs:
			if err == nil {
				t.Error("commit covered by a failed fsync returned nil")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a waiter was lost")
		}
	}
	if got := s.met.walErrors.Value() - before; got != 1 {
		t.Errorf("one failed fsync counted %d times", got)
	}
	gate.heal()
	appendN(t, s, 1)
	s.mu.Lock()
	segAfter := s.segIndex
	s.mu.Unlock()
	if segAfter == segBefore {
		t.Error("append after a failed fsync extended the poisoned segment")
	}
	if err := s.Commit(seqs[0]); err == nil {
		t.Error("a later successful fsync must not redeem a failed record")
	}
}

// TestRotateAndCloseWaitOutInflightSync: the fsync runs outside the store's
// mutex, so Rotate and Close can arrive while one is in flight. They must
// wait for it — not seal or close the file under it — and every waiter must
// still hear its verdict.
func TestRotateAndCloseWaitOutInflightSync(t *testing.T) {
	for _, op := range []string{"rotate", "close"} {
		t.Run(op, func(t *testing.T) {
			opts := testOptions(t)
			gate := newSyncGate(opts.Dir)
			opts.SyncHook = gate.hook
			s := mustOpen(t, opts)
			defer s.Close()

			gate.hold()
			seq, err := s.Stage(Record{Type: RecResult})
			if err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the fsync to start", gate.entered)
			committed, opDone := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(committed)
				if err := s.Commit(seq); err != nil {
					t.Errorf("commit: %v", err)
				}
			}()
			go func() {
				defer close(opDone)
				var err error
				if op == "rotate" {
					_, _, err = s.Rotate()
				} else {
					err = s.Close()
				}
				if err != nil {
					t.Errorf("%s: %v", op, err)
				}
			}()
			// Staging is not blocked by the in-flight fsync (unless the store
			// is already closing).
			if _, err := s.Stage(Record{Type: RecResult}); err != nil && op == "rotate" {
				t.Errorf("stage during fsync: %v", err)
			}
			select {
			case <-opDone:
				t.Fatalf("%s finished under an in-flight fsync", op)
			case <-time.After(20 * time.Millisecond):
			}
			gate.release(nil)
			waitFor(t, "the committer", committed)
			waitFor(t, op, opDone)
			if op == "rotate" {
				appendN(t, s, 1)
			}
		})
	}
}

// TestLoneWriterDoesNotWaitOutTheInterval: the fsync interval caps the
// group-commit wait, it does not set it. A writer whose every record is the
// whole batch fsyncs at once, so 100 sequential appends finish promptly even
// under an hour-long interval.
func TestLoneWriterDoesNotWaitOutTheInterval(t *testing.T) {
	opts := testOptions(t)
	opts.FsyncInterval = time.Hour
	s := mustOpen(t, opts)
	defer s.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			if err := s.Append(Record{Type: RecResult}); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
		}
	}()
	waitFor(t, "100 sequential appends", done)
	if got := s.met.fsyncs.Value(); got != 100 {
		t.Errorf("%d fsyncs for 100 sequential appends, want 100", got)
	}
	if got := s.met.capped.Value(); got != 0 {
		t.Errorf("%d batches waited out the interval", got)
	}
}

// startBehindHeldFsync opens a store whose first fsync, covering a record
// nobody commits, is held until every writer has staged its first record
// behind it, so the second fsync covers and releases them all together. Each
// writer appends rounds records; done closes when they have all returned.
func startBehindHeldFsync(t *testing.T, opts Options, writers, rounds int) (s *Store, done <-chan struct{}) {
	t.Helper()
	held, entered := make(chan struct{}), make(chan struct{}, 1)
	var calls atomic.Int32
	opts.SyncHook = func(sync func() error) error {
		if calls.Add(1) == 1 {
			entered <- struct{}{}
			<-held
		}
		return nil
	}
	s = mustOpen(t, opts)
	if _, err := s.Stage(Record{Type: RecResult}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "fsync 1 to start", entered)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := s.Append(Record{Type: RecResult}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		waiting := s.waiting
		s.mu.Unlock()
		if waiting == writers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d writers waiting behind fsync 1", waiting, writers)
		}
	}
	close(held)
	all := make(chan struct{})
	go func() { wg.Wait(); close(all) }()
	return s, all
}

// TestReleasedWritersShareTheNextFsync: the k writers one fsync releases
// re-stage and are covered by exactly one next fsync, not split between two
// — round after round, under an interval long enough that only the writers
// coming back can end the wait.
func TestReleasedWritersShareTheNextFsync(t *testing.T) {
	const writers, rounds = 4, 5
	opts := testOptions(t)
	opts.FsyncInterval = time.Hour
	s, done := startBehindHeldFsync(t, opts, writers, rounds)
	defer s.Close()
	waitFor(t, "the writers", done)
	if got, want := s.met.fsyncs.Value(), uint64(1+rounds); got != want {
		t.Errorf("%d writers × %d rounds took %d fsyncs, want %d (one per round)", writers, rounds, got, want)
	}
	if got := s.met.capped.Value(); got != 0 {
		t.Errorf("%d batches waited out the interval", got)
	}
}

// TestWaitForWritersIsCapped: when the writers the last fsync released do not
// come back, the batch goes at the fsync interval, and the capped counter
// says so.
func TestWaitForWritersIsCapped(t *testing.T) {
	opts := testOptions(t)
	opts.FsyncInterval = 5 * time.Millisecond
	s, done := startBehindHeldFsync(t, opts, 1, 1)
	defer s.Close()
	waitFor(t, "the writer", done) // fsync 2 released it: the next batch waits for one
	seq, err := s.Stage(Record{Type: RecResult})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); s.met.fsyncs.Value() < 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a record nobody commits was never fsynced")
		}
	}
	if err := s.Commit(seq); err != nil {
		t.Fatal(err)
	}
	if got := s.met.capped.Value(); got != 1 {
		t.Errorf("capped counter %d, want 1", got)
	}
}

// BenchmarkAppendParallel measures durable appends under 1, 4 and 16
// concurrent writers at the default 2 ms fsync interval, with the disk's own
// fsync and with one a SyncHook slows by 2 ms and by 8 ms: ns/op is wall
// time per record, and records/fsync is the batching the group commit
// achieved.
func BenchmarkAppendParallel(b *testing.B) {
	for _, slow := range []time.Duration{0, 2 * time.Millisecond, 8 * time.Millisecond} {
		name := "fsync=disk"
		if slow > 0 {
			name = fmt.Sprintf("fsync=+%v", slow)
		}
		for _, writers := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/writers=%d", name, writers), func(b *testing.B) {
				opts := Options{Dir: b.TempDir(), FsyncInterval: 2 * time.Millisecond}
				if slow > 0 {
					opts.SyncHook = func(sync func() error) error {
						time.Sleep(slow)
						return sync()
					}
				}
				benchAppend(b, opts, writers)
			})
		}
	}
}

func benchAppend(b *testing.B, opts Options, writers int) {
	s, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	data := make([]byte, 1024)
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if err := s.Append(Record{Type: RecResult, Data: data}); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/float64(s.met.fsyncs.Value()), "records/fsync")
}
