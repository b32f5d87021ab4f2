package queue

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"copernicus/internal/obs"
	"copernicus/internal/wire"
)

func cmd(id string, prio, minC, maxC int) wire.CommandSpec {
	return wire.CommandSpec{
		ID: id, Project: "p", Type: "sim",
		Priority: prio, MinCores: minC, MaxCores: maxC,
	}
}

func worker(cores int, execs ...string) wire.WorkerInfo {
	return wire.WorkerInfo{ID: "w", Platform: "smp", Cores: cores, Executables: execs}
}

func TestPushPopOrder(t *testing.T) {
	q := New()
	for i := 0; i < 5; i++ {
		if err := q.Push(cmd(fmt.Sprintf("c%d", i), 0, 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if q.Len() != 5 {
		t.Fatalf("Len = %d", q.Len())
	}
	wl := q.Match(worker(5, "sim"))
	if len(wl.Commands) != 5 {
		t.Fatalf("matched %d commands", len(wl.Commands))
	}
	// FIFO within equal priority.
	for i, c := range wl.Commands {
		if c.ID != fmt.Sprintf("c%d", i) {
			t.Errorf("position %d: %s", i, c.ID)
		}
	}
	if q.Len() != 0 {
		t.Errorf("queue should be empty, Len = %d", q.Len())
	}
}

func TestPriorityOrder(t *testing.T) {
	q := New()
	mustPush(t, q, cmd("low", 0, 1, 1))
	mustPush(t, q, cmd("high", 5, 1, 1))
	mustPush(t, q, cmd("mid", 2, 1, 1))
	wl := q.Match(worker(1, "sim"))
	if len(wl.Commands) != 1 || wl.Commands[0].ID != "high" {
		t.Errorf("got %v", wl.Commands)
	}
}

func mustPush(t *testing.T, q *Queue, c wire.CommandSpec) {
	t.Helper()
	if err := q.Push(c); err != nil {
		t.Fatal(err)
	}
}

func TestPushValidates(t *testing.T) {
	q := New()
	if err := q.Push(wire.CommandSpec{ID: "x"}); err == nil {
		t.Error("invalid command accepted")
	}
	mustPush(t, q, cmd("dup", 0, 1, 1))
	if err := q.Push(cmd("dup", 0, 1, 1)); err == nil {
		t.Error("duplicate ID accepted")
	}
}

func TestMatchExecutableFilter(t *testing.T) {
	q := New()
	mustPush(t, q, cmd("a", 0, 1, 1))
	other := cmd("b", 0, 1, 1)
	other.Type = "exotic"
	mustPush(t, q, other)
	wl := q.Match(worker(4, "sim"))
	if len(wl.Commands) != 1 || wl.Commands[0].ID != "a" {
		t.Fatalf("matched %v", wl.Commands)
	}
	// The exotic command stays queued.
	if !q.Contains("b") {
		t.Error("unmatchable command vanished")
	}
}

func TestMatchCoreBudget(t *testing.T) {
	q := New()
	mustPush(t, q, cmd("big", 0, 8, 8))
	mustPush(t, q, cmd("small", 0, 2, 2))
	wl := q.Match(worker(4, "sim"))
	// big doesn't fit, small does.
	if len(wl.Commands) != 1 || wl.Commands[0].ID != "small" {
		t.Fatalf("matched %v", wl.Commands)
	}
	if wl.Cores["small"] != 2 {
		t.Errorf("cores = %d", wl.Cores["small"])
	}
	if !q.Contains("big") {
		t.Error("oversized command dropped")
	}
}

func TestMatchGrowsTowardMaxCores(t *testing.T) {
	q := New()
	mustPush(t, q, cmd("a", 1, 2, 16)) // higher priority grows first
	mustPush(t, q, cmd("b", 0, 2, 4))
	wl := q.Match(worker(12, "sim"))
	if len(wl.Commands) != 2 {
		t.Fatalf("matched %d", len(wl.Commands))
	}
	total := wl.Cores["a"] + wl.Cores["b"]
	if total != 12 {
		t.Errorf("assigned %d cores of 12", total)
	}
	if wl.Cores["a"] < wl.Cores["b"] {
		t.Errorf("higher-priority command got fewer cores: %v", wl.Cores)
	}
	if wl.Cores["b"] > 4 {
		t.Errorf("command b exceeded MaxCores: %d", wl.Cores["b"])
	}
}

func TestMatchMaximalPacking(t *testing.T) {
	// Paper: the server "constructs a workload that maximally utilizes the
	// available resources".
	q := New()
	for i := 0; i < 10; i++ {
		mustPush(t, q, cmd(fmt.Sprintf("c%d", i), 0, 1, 1))
	}
	wl := q.Match(worker(6, "sim"))
	if len(wl.Commands) != 6 {
		t.Errorf("matched %d commands on a 6-core worker", len(wl.Commands))
	}
	if q.Len() != 4 {
		t.Errorf("remaining = %d", q.Len())
	}
}

func TestMatchZeroCoreWorker(t *testing.T) {
	q := New()
	mustPush(t, q, cmd("a", 0, 1, 1))
	wl := q.Match(worker(0, "sim"))
	if len(wl.Commands) != 0 {
		t.Error("zero-core worker received work")
	}
}

func TestRemove(t *testing.T) {
	q := New()
	mustPush(t, q, cmd("a", 0, 1, 1))
	mustPush(t, q, cmd("b", 0, 1, 1))
	mustPush(t, q, cmd("c", 0, 1, 1))
	if !q.Remove("b") {
		t.Fatal("Remove returned false for queued command")
	}
	if q.Remove("b") {
		t.Error("second Remove should return false")
	}
	wl := q.Match(worker(10, "sim"))
	if len(wl.Commands) != 2 {
		t.Fatalf("matched %d", len(wl.Commands))
	}
	for _, c := range wl.Commands {
		if c.ID == "b" {
			t.Error("removed command was matched")
		}
	}
}

func TestHeapOrderingManyPriorities(t *testing.T) {
	q := New()
	for i := 0; i < 100; i++ {
		mustPush(t, q, cmd(fmt.Sprintf("c%03d", i), i%7, 1, 1))
	}
	wl := q.Match(worker(100, "sim"))
	last := 1 << 30
	for _, c := range wl.Commands {
		if c.Priority > last {
			t.Fatal("priorities not non-increasing in match order")
		}
		last = c.Priority
	}
}

func BenchmarkPushMatch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		q := New()
		for k := 0; k < 225; k++ {
			_ = q.Push(cmd(fmt.Sprintf("c%d", k), 0, 1, 1))
		}
		for q.Len() > 0 {
			q.Match(worker(24, "sim"))
		}
	}
}

func TestConcurrentPushMatchRemove(t *testing.T) {
	// The queue is hammered concurrently by submitters, workers and a
	// terminating controller; invariants: no command is double-assigned,
	// and everything pushed is eventually matched or removed.
	q := New()
	const producers = 4
	const perProducer = 200
	var wg, prodWg sync.WaitGroup
	assigned := make(chan string, producers*perProducer)

	for p := 0; p < producers; p++ {
		wg.Add(1)
		prodWg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer prodWg.Done()
			for i := 0; i < perProducer; i++ {
				id := fmt.Sprintf("p%d-c%d", p, i)
				if err := q.Push(cmd(id, i%3, 1, 2)); err != nil {
					t.Errorf("push %s: %v", id, err)
				}
			}
		}(p)
	}
	done := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				wl := q.Match(worker(4, "sim"))
				for _, c := range wl.Commands {
					assigned <- c.ID
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Concurrent removals of a slice of IDs (may or may not be queued).
		for i := 0; i < perProducer; i += 7 {
			q.Remove(fmt.Sprintf("p0-c%d", i))
		}
	}()

	// Wait for every producer to finish, then for the consumers to drain
	// the queue completely.
	prodWg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for q.Len() > 0 {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(done)
	wg.Wait()
	close(assigned)

	seen := make(map[string]bool)
	for id := range assigned {
		if seen[id] {
			t.Fatalf("command %s assigned twice", id)
		}
		seen[id] = true
	}
	if q.Len() != 0 {
		t.Errorf("queue not drained: %d left", q.Len())
	}
}

// TestReadyHook: the readiness hook fires once for each event that can turn
// a failed Match into a successful one — and for nothing else — and reports
// the push that found the queue empty. The hook is called outside the
// queue's lock: it calls back into the queue here, which would deadlock
// otherwise.
func TestReadyHook(t *testing.T) {
	var q *Queue
	var fired []bool
	q = NewWithConfig(Config{Ready: func(first bool) {
		_ = q.Len()
		fired = append(fired, first)
	}})
	expect := func(what string, want ...bool) {
		t.Helper()
		if fmt.Sprint(fired) != fmt.Sprint(want) {
			t.Errorf("%s: hook fired %v, want %v", what, fired, want)
		}
		fired = nil
	}
	mustPush(t, q, cmd("a", 0, 1, 1))
	expect("push into an empty queue", true)
	mustPush(t, q, cmd("b", 0, 1, 1))
	expect("push into a non-empty queue", false)
	if err := q.Push(cmd("b", 0, 1, 1)); err == nil {
		t.Fatal("duplicate push accepted")
	}
	expect("rejected push")

	wl := q.Match(worker(1, "sim"))
	if len(wl.Commands) != 1 {
		t.Fatalf("matched %d", len(wl.Commands))
	}
	expect("match")
	q.Release("a", 0.1)
	expect("release with a command queued", false)
	q.Release("a", 0.1)
	expect("release of an unknown command")
	q.SetQuota(wire.TenantQuotaUpdate{Tenant: "", Weight: 2, MaxQueued: -1, MaxCores: -1, MaxStorageBytes: -1})
	expect("quota change with a command queued", false)
	if err := q.Requeue(cmd("a", 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	expect("requeue", false)

	q.Match(worker(4, "sim"))
	q.Release("a", 0.1)
	q.Release("b", 0.1)
	q.SetQuota(wire.TenantQuotaUpdate{Tenant: "", Weight: 1, MaxQueued: -1, MaxCores: -1, MaxStorageBytes: -1})
	expect("release and quota change with nothing queued")
}

// TestPropertyNoLeakedCoreGrant is the randomized grant-accounting property:
// across thousands of interleaved pushes, matches with random budgets, quota
// changes, releases and requeues, each tenant's in-flight cores equal the
// grants handed out and not yet released after every operation, and drop to
// zero once everything is released.
func TestPropertyNoLeakedCoreGrant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	clk := newSimClock()
	q := NewWithConfig(Config{Clock: clk.Now})

	type flight struct {
		spec  wire.CommandSpec
		cores int
	}
	inflight := map[string]flight{} // dispatched and unreleased
	granted := map[string]int{}     // tenant → outstanding granted cores
	tenants := []string{"a", "b", "c"}
	nextID := 0

	push := func(tenant string) {
		spec := wire.CommandSpec{ID: fmt.Sprintf("s%06d", nextID), Project: "p", Type: "sim", Tenant: tenant,
			MinCores: 1 + rng.Intn(3), MaxCores: 1 + rng.Intn(4)}
		nextID++
		if spec.MaxCores < spec.MinCores {
			spec.MaxCores = spec.MinCores
		}
		_ = q.Push(spec) // may bounce off quotas; fine
	}
	match := func() {
		wl := q.Match(wire.WorkerInfo{ID: "w", Cores: 1 + rng.Intn(24), Executables: []string{"sim"}})
		for _, c := range wl.Commands {
			cores := wl.Cores[c.ID]
			if cores < c.MinCores {
				t.Fatalf("command %s granted %d < MinCores %d", c.ID, cores, c.MinCores)
			}
			inflight[c.ID] = flight{spec: c, cores: cores}
			granted[c.Tenant] += cores
		}
	}
	releaseSome := func(requeue bool) {
		for id, fl := range inflight {
			if rng.Float64() > 0.5 {
				continue
			}
			q.Release(id, rng.Float64()*3)
			granted[fl.spec.Tenant] -= fl.cores
			delete(inflight, id)
			if requeue {
				if err := q.Requeue(fl.spec); err != nil {
					t.Fatalf("requeue %s: %v", id, err)
				}
			}
		}
	}

	for step := 0; step < 4000; step++ {
		tenant := tenants[rng.Intn(len(tenants))]
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			push(tenant)
		case 4, 5, 6:
			match()
		case 7:
			releaseSome(false)
		case 8:
			releaseSome(rng.Intn(2) == 0)
		case 9:
			// Random quota churn: the dispatch-time veto source.
			mc := -1
			if rng.Intn(2) == 0 {
				mc = rng.Intn(12)
			}
			q.SetQuota(wire.TenantQuotaUpdate{Tenant: tenant, Weight: -1,
				MaxQueued: -1, MaxCores: mc, MaxStorageBytes: -1})
		}
		clk.Advance(time.Duration(rng.Intn(500)) * time.Millisecond)
		for _, tn := range tenants {
			if got := q.InflightCores(tn); got != granted[tn] {
				t.Fatalf("step %d: tenant %s holds %d granted cores, queue says %d (leak)", step, tn, granted[tn], got)
			}
		}
	}

	// Drain: lift quotas, release everything, run matches until empty.
	for _, tn := range tenants {
		q.SetQuota(wire.TenantQuotaUpdate{Tenant: tn, Weight: -1, MaxQueued: -1, MaxCores: 0, MaxStorageBytes: -1})
	}
	for id := range inflight {
		q.Release(id, 1)
	}
	for q.Len() > 0 {
		wl := q.Match(wire.WorkerInfo{ID: "w", Cores: 64, Executables: []string{"sim"}})
		if len(wl.Commands) == 0 {
			t.Fatalf("%d commands queued that no 64-core worker is handed", q.Len())
		}
		for _, c := range wl.Commands {
			q.Release(c.ID, 1)
		}
	}
	for _, tn := range tenants {
		if got := q.InflightCores(tn); got != 0 {
			t.Fatalf("tenant %s leaked %d inflight cores after drain", tn, got)
		}
	}
}

// TestWider: the width query sees a queued command needing more cores than
// offered and at most the worker's, and forgets it once it leaves the queue,
// by a match or a removal.
func TestWider(t *testing.T) {
	q := New()
	for _, c := range []wire.CommandSpec{cmd("one", 0, 1, 1), cmd("two", 0, 2, 2), cmd("four", 0, 4, 4)} {
		if err := q.Push(c); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		cores, upTo int
		want        bool
	}{{1, 1, false}, {1, 2, true}, {2, 2, false}, {2, 3, false}, {2, 4, true}, {4, 8, false}} {
		if got := q.Wider(c.cores, c.upTo); got != c.want {
			t.Errorf("Wider(%d, %d) = %v, want %v", c.cores, c.upTo, got, c.want)
		}
	}
	if wl := q.Match(worker(4, "sim")); len(wl.Commands) != 2 || wl.Commands[1].ID != "two" {
		t.Fatalf("matched %+v, want one and two", wl.Commands)
	}
	if !q.Wider(1, 4) {
		t.Error("Wider(1, 4) lost four when one and two were matched")
	}
	q.Remove("four")
	if q.Wider(0, 8) {
		t.Error("Wider(0, 8) with nothing queued")
	}
}

// TestMatchTimedOnTheWallClock: copernicus_queue_match_seconds times Match
// on the wall clock, whatever the queue's own clock reads. Under a clock
// fixed in the past, timing it on that clock recorded years per call.
func TestMatchTimedOnTheWallClock(t *testing.T) {
	past := time.Unix(1_700_000_000, 0)
	q := NewWithConfig(Config{Clock: func() time.Time { return past }})
	q.SetObs(obs.New(), nil)
	if err := q.Push(cmd("c1", 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	q.Match(worker(1, "sim"))
	q.Match(worker(1, "sim")) // and an empty match
	if n, sum := q.matchSeconds.Count(), q.matchSeconds.Sum(); n != 2 || sum >= 1 {
		t.Errorf("match histogram: %d observations summing to %v s, want 2 under 1 s", n, sum)
	}
}
