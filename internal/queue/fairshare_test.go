package queue

// Property tests for the fair-share invariants the scheduler promises:
// observed core-share converges to configured weights, no tenant starves
// regardless of weight imbalance, and quota/admission/backpressure checks
// hold under concurrency.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"copernicus/internal/wire"
)

// simClock is an injectable virtual clock.
type simClock struct {
	mu  sync.Mutex
	now time.Time
}

func newSimClock() *simClock {
	return &simClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *simClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *simClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func fsSpec(id, tenant string, prio, minCores, maxCores int) wire.CommandSpec {
	return wire.CommandSpec{
		ID: id, Project: "p-" + tenant, Tenant: tenant, Type: "md",
		MinCores: minCores, MaxCores: maxCores, Priority: prio,
	}
}

func fsWorker(cores int) wire.WorkerInfo {
	return wire.WorkerInfo{ID: "w1", Cores: cores, Executables: []string{"md"}}
}

// TestFairShareConvergesToWeights drives randomized arrivals through the
// scheduler and checks each tenant's share of dispatched core-seconds lands
// within 10% of its weight share.
func TestFairShareConvergesToWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	clk := newSimClock()
	q := NewWithConfig(Config{Clock: clk.Now, StarvationAge: -1})
	weights := map[string]float64{"a": 1, "b": 2, "c": 5}
	for id, w := range weights {
		q.SetQuota(wire.TenantQuotaUpdate{Tenant: id, Weight: w, MaxQueued: -1, MaxCores: -1, MaxStorageBytes: -1})
	}

	// Keep every tenant saturated with randomized backlogs so the observed
	// share is the scheduler's choice, not an arrival artifact.
	next := 0
	backlog := func(tenant string, n int) {
		for i := 0; i < n; i++ {
			next++
			if err := q.Push(fsSpec(fmt.Sprintf("%s-%d", tenant, next), tenant, rng.Intn(5), 1, 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for id := range weights {
		backlog(id, 5+rng.Intn(10))
	}

	coreSec := map[string]float64{}
	for round := 0; round < 2000; round++ {
		wl := q.Match(fsWorker(4))
		for _, cmd := range wl.Commands {
			// Heavy-tailed-ish durations, different per tenant, so the
			// estimate-then-correct charging is exercised for real.
			dur := 0.5 + rng.Float64()*2
			if cmd.Tenant == "b" {
				dur *= 2
			}
			q.Release(cmd.ID, dur)
			coreSec[cmd.Tenant] += dur * float64(wl.Cores[cmd.ID])
		}
		clk.Advance(time.Second)
		for id := range weights {
			if st, _ := q.Tenant(id); st.Queued < 3 {
				backlog(id, 3+rng.Intn(5))
			}
		}
	}

	var totalW, totalS float64
	for _, w := range weights {
		totalW += w
	}
	for _, s := range coreSec {
		totalS += s
	}
	for id, w := range weights {
		want := w / totalW
		got := coreSec[id] / totalS
		if math.Abs(got-want)/want > 0.10 {
			t.Errorf("tenant %s core-share = %.3f, want %.3f ±10%% (core-seconds %v)",
				id, got, want, coreSec)
		}
	}
}

// TestWeightOneNeverStarved floods the queue from a weight-100 tenant and
// checks the weight-1 tenant still gets dispatched at roughly its fair
// share, with its oldest command's wait bounded by the starvation guard.
func TestWeightOneNeverStarved(t *testing.T) {
	clk := newSimClock()
	q := NewWithConfig(Config{Clock: clk.Now, StarvationAge: 20 * time.Second})
	q.SetQuota(wire.TenantQuotaUpdate{Tenant: "whale", Weight: 100, MaxQueued: -1, MaxCores: -1, MaxStorageBytes: -1})
	q.SetQuota(wire.TenantQuotaUpdate{Tenant: "minnow", Weight: 1, MaxQueued: -1, MaxCores: -1, MaxStorageBytes: -1})

	next := 0
	push := func(tenant string, n int) {
		for i := 0; i < n; i++ {
			next++
			if err := q.Push(fsSpec(fmt.Sprintf("%s-%d", tenant, next), tenant, 9, 1, 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	push("whale", 500)
	push("minnow", 20)

	dispatched := map[string]int{}
	lastMinnow, maxGap := 0, 0
	for round := 1; round <= 600; round++ {
		wl := q.Match(fsWorker(2))
		for _, cmd := range wl.Commands {
			dispatched[cmd.Tenant]++
			q.Release(cmd.ID, 1)
			if cmd.Tenant == "minnow" {
				if gap := round - lastMinnow; gap > maxGap {
					maxGap = gap
				}
				lastMinnow = round
			}
		}
		clk.Advance(time.Second)
		push("whale", len(wl.Commands)) // the whale never relents
		if st, _ := q.Tenant("minnow"); st.Queued < 5 {
			push("minnow", 5)
		}
	}

	if dispatched["minnow"] == 0 {
		t.Fatal("weight-1 tenant fully starved by weight-100 tenant")
	}
	// Fair share for weight 1 of 101 over 600 rounds × 2 cores is ~11
	// dispatches; require at least half that to prove sustained progress.
	if dispatched["minnow"] < 5 {
		t.Errorf("weight-1 tenant got %d dispatches in 600 rounds, want >= 5 (whale %d)",
			dispatched["minnow"], dispatched["whale"])
	}
	// Starvation-freedom under permanent overload means bounded *gaps*
	// between the weight-1 tenant's dispatches, not bounded queue waits
	// (total demand deliberately exceeds capacity here). Fair gap is ~50
	// rounds; allow generous slack.
	if maxGap > 200 {
		t.Errorf("weight-1 tenant went %d rounds without a dispatch", maxGap)
	}
}

// TestStarvationGuardOverridesFairShare pins a tenant's vtime far in the
// future (as if it had consumed a huge share) and checks its over-age
// command still dispatches.
func TestStarvationGuardOverridesFairShare(t *testing.T) {
	clk := newSimClock()
	q := NewWithConfig(Config{Clock: clk.Now, StarvationAge: 10 * time.Second})
	// "hog" consumed lots of time: dispatch and release an expensive command.
	if err := q.Push(fsSpec("hog-1", "hog", 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	wl := q.Match(fsWorker(1))
	if len(wl.Commands) != 1 {
		t.Fatal("setup dispatch failed")
	}
	q.Release("hog-1", 1e6) // vtime now enormous
	if err := q.Push(fsSpec("hog-2", "hog", 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	clk.Advance(11 * time.Second) // hog-2 is now over-age and hog has nothing running
	if err := q.Push(fsSpec("fresh-1", "fresh", 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	// Fair share alone would pick "fresh" (vtime ~0), but hog-2 is starved.
	wl = q.Match(fsWorker(1))
	if len(wl.Commands) != 1 || wl.Commands[0].ID != "hog-2" {
		t.Errorf("starved command not dispatched first: %+v", wl.Commands)
	}
}

func TestQueuedQuotaRejectsWithTypedError(t *testing.T) {
	q := New()
	q.SetQuota(wire.TenantQuotaUpdate{Tenant: "acme", Weight: 1, MaxQueued: 2, MaxCores: -1, MaxStorageBytes: -1})
	for i := 0; i < 2; i++ {
		if err := q.Push(fsSpec(fmt.Sprintf("c%d", i), "acme", 0, 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	err := q.Push(fsSpec("c2", "acme", 0, 1, 1))
	if !errors.Is(err, wire.ErrQuotaExceeded) {
		t.Fatalf("over-quota push error = %v, want ErrQuotaExceeded", err)
	}
	if errors.Is(err, wire.ErrAdmissionShed) {
		t.Error("quota breach must not look retryable")
	}
	// Requeue bypasses admission: recovered work is never bounced.
	if err := q.Requeue(fsSpec("c2", "acme", 0, 1, 1)); err != nil {
		t.Errorf("Requeue hit admission control: %v", err)
	}
	if q.Len() != 3 {
		t.Errorf("Len = %d, want 3", q.Len())
	}
}

func TestGlobalBoundShedsWithRetryableError(t *testing.T) {
	q := NewWithConfig(Config{MaxQueuedTotal: 3})
	for i := 0; i < 3; i++ {
		if err := q.Push(fsSpec(fmt.Sprintf("c%d", i), "t", 0, 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	err := q.Push(fsSpec("c3", "t", 0, 1, 1))
	if !errors.Is(err, wire.ErrAdmissionShed) {
		t.Fatalf("over-bound push error = %v, want ErrAdmissionShed", err)
	}
	if errors.Is(err, wire.ErrQuotaExceeded) {
		t.Error("shed must not look terminal")
	}
}

func TestCoreQuotaCapsMatch(t *testing.T) {
	q := New()
	q.SetQuota(wire.TenantQuotaUpdate{Tenant: "capped", Weight: 1, MaxQueued: -1, MaxCores: 2, MaxStorageBytes: -1})
	for i := 0; i < 4; i++ {
		if err := q.Push(fsSpec(fmt.Sprintf("c%d", i), "capped", 0, 1, 4)); err != nil {
			t.Fatal(err)
		}
	}
	wl := q.Match(fsWorker(8))
	used := 0
	for _, c := range wl.Cores {
		used += c
	}
	if used > 2 {
		t.Errorf("tenant with MaxCores=2 got %d cores (%v)", used, wl.Cores)
	}
	if st, _ := q.Tenant("capped"); st.InflightCores != used {
		t.Errorf("InflightCores = %d, want %d", st.InflightCores, used)
	}
	// After release the cap frees up.
	for _, cmd := range wl.Commands {
		q.Release(cmd.ID, 1)
	}
	if st, _ := q.Tenant("capped"); st.InflightCores != 0 {
		t.Errorf("InflightCores after release = %d, want 0", st.InflightCores)
	}
}

func TestStorageQuota(t *testing.T) {
	q := New()
	q.SetQuota(wire.TenantQuotaUpdate{Tenant: "s", Weight: 1, MaxQueued: -1, MaxCores: -1, MaxStorageBytes: 100})
	if err := q.CheckStorage("s", 80); err != nil {
		t.Fatalf("under-quota check failed: %v", err)
	}
	q.ChargeStorage("s", 80)
	if err := q.CheckStorage("s", 30); !errors.Is(err, wire.ErrQuotaExceeded) {
		t.Fatalf("over-quota storage check = %v, want ErrQuotaExceeded", err)
	}
	q.ChargeStorage("s", -50)
	if err := q.CheckStorage("s", 30); err != nil {
		t.Errorf("after freeing space check failed: %v", err)
	}
	if err := q.CheckStorage("unknown", 1<<40); err != nil {
		t.Errorf("unknown tenants are unlimited, got %v", err)
	}
}

func TestBackpressureScalesAndSheds(t *testing.T) {
	var pressure atomic.Value
	pressure.Store(0.0)
	q := NewWithConfig(Config{Pressure: func() float64 { return pressure.Load().(float64) }})
	for i := 0; i < 32; i++ {
		if err := q.Push(fsSpec(fmt.Sprintf("c%d", i), "t", 0, 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// No pressure: full budget.
	wl := q.Match(fsWorker(8))
	if len(wl.Commands) != 8 {
		t.Fatalf("no-pressure match gave %d commands, want 8", len(wl.Commands))
	}
	// Half pressure: budget halves.
	pressure.Store(0.5)
	wl = q.Match(fsWorker(8))
	if len(wl.Commands) != 4 {
		t.Errorf("pressure-0.5 match gave %d commands, want 4", len(wl.Commands))
	}
	if q.Pressure() != 0.5 {
		t.Errorf("Pressure() = %v, want 0.5", q.Pressure())
	}
	// At the shed threshold: nothing assigned, and pushes shed too.
	pressure.Store(0.97)
	wl = q.Match(fsWorker(8))
	if len(wl.Commands) != 0 {
		t.Errorf("over-threshold match gave %d commands, want 0", len(wl.Commands))
	}
	if err := q.Push(fsSpec("late", "t", 0, 1, 1)); !errors.Is(err, wire.ErrAdmissionShed) {
		t.Errorf("push under shed pressure = %v, want ErrAdmissionShed", err)
	}
	// Requeue still works even under shed pressure.
	if err := q.Requeue(fsSpec("requeued", "t", 0, 1, 1)); err != nil {
		t.Errorf("requeue under shed pressure = %v", err)
	}
}

func TestStarvedAndDominantTenant(t *testing.T) {
	clk := newSimClock()
	q := NewWithConfig(Config{Clock: clk.Now})
	if _, ok := q.Starved(time.Second); ok {
		t.Error("empty queue reported a starved tenant")
	}
	// "busy" has work running; "waiting" has only queued work.
	if err := q.Push(fsSpec("b1", "busy", 0, 2, 2)); err != nil {
		t.Fatal(err)
	}
	wl := q.Match(fsWorker(2))
	if len(wl.Commands) != 1 {
		t.Fatal("setup dispatch failed")
	}
	if err := q.Push(fsSpec("w1", "waiting", 0, 4, 4)); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(fsSpec("b2", "busy", 0, 2, 2)); err != nil {
		t.Fatal(err)
	}
	clk.Advance(30 * time.Second)
	tenant, ok := q.Starved(10 * time.Second)
	if !ok || tenant != "waiting" {
		t.Errorf("Starved = (%q, %v), want (waiting, true): a tenant with inflight work is not starved", tenant, ok)
	}
	victim, cores, ok := q.DominantTenant("waiting")
	if !ok || victim != "busy" || cores != 2 {
		t.Errorf("DominantTenant = (%q, %d, %v), want (busy, 2, true)", victim, cores, ok)
	}
	// Once busy's command releases and waiting's dispatches, "waiting" is no
	// longer starved ("busy" now is — its b2 is over-age with nothing
	// running, which is exactly the report we want).
	q.Release("b1", 1)
	wl = q.Match(fsWorker(4))
	if len(wl.Commands) != 1 || wl.Commands[0].ID != "w1" {
		t.Fatalf("expected w1 to dispatch, got %+v", wl.Commands)
	}
	if tenant, ok := q.Starved(10 * time.Second); !ok || tenant != "busy" {
		t.Errorf("Starved = (%q, %v), want (busy, true)", tenant, ok)
	}
	// Dispatch b2 too: with everything in flight, nothing is starved.
	wl = q.Match(fsWorker(2))
	if len(wl.Commands) != 1 || wl.Commands[0].ID != "b2" {
		t.Fatalf("expected b2 to dispatch, got %+v", wl.Commands)
	}
	if tenant, ok := q.Starved(10 * time.Second); ok {
		t.Errorf("nothing queued but Starved = (%q, true)", tenant)
	}
}

// TestConcurrentSubmitMatchQuota hammers Push/Match/Release/Remove/SetQuota
// from many goroutines; run under -race this is the scheduler's
// thread-safety proof. Invariant checked at the end: no command is both
// queued and in-flight, and inflight cores return to zero.
func TestConcurrentSubmitMatchQuota(t *testing.T) {
	q := NewWithConfig(Config{MaxQueuedTotal: 10000})
	tenants := []string{"t0", "t1", "t2", "t3"}
	for i, id := range tenants {
		q.SetQuota(wire.TenantQuotaUpdate{Tenant: id, Weight: float64(i + 1), MaxQueued: 100, MaxCores: 32, MaxStorageBytes: -1})
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var pushed, quotaHits atomic.Int64

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tenant := tenants[rng.Intn(len(tenants))]
				err := q.Push(fsSpec(fmt.Sprintf("g%d-%d", g, i), tenant, rng.Intn(10), 1, 2))
				switch {
				case err == nil:
					pushed.Add(1)
				case errors.Is(err, wire.ErrQuotaExceeded):
					quotaHits.Add(1)
				case errors.Is(err, wire.ErrAdmissionShed):
				default:
					t.Errorf("unexpected push error: %v", err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				wl := q.Match(fsWorker(16))
				for _, cmd := range wl.Commands {
					q.Release(cmd.ID, 0.01)
				}
				q.Tenants()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			q.SetQuota(wire.TenantQuotaUpdate{
				Tenant: tenants[rng.Intn(len(tenants))], Weight: 1 + rng.Float64()*4,
				MaxQueued: 50 + rng.Intn(100), MaxCores: -1, MaxStorageBytes: -1,
			})
			q.Remove(fmt.Sprintf("g%d-%d", rng.Intn(4), rng.Intn(1000)))
			q.Starved(time.Second)
			q.DominantTenant("")
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	// The per-tenant accounts must agree with the queue-wide count.
	queued := 0
	for _, st := range q.Tenants() {
		if st.InflightCores < 0 {
			t.Errorf("tenant %s ends with %d inflight cores", st.ID, st.InflightCores)
		}
		queued += st.Queued
	}
	if n := q.Len(); queued != n {
		t.Errorf("tenants hold %d queued commands, Len = %d", queued, n)
	}
	t.Logf("pushed=%d quotaHits=%d queued=%d", pushed.Load(), quotaHits.Load(), queued)
}

// TestColdStartTenantGetsItsShare: tenant a keeps 16 commands in flight on
// 16 one-core slots, each released 0.5 ms after dispatch, and tenant b starts
// 4 ms in. The 1 s default estimate charged to a's first dispatches is only
// provisional until Release refunds it, so it must not raise the clock b
// adopts when it goes active: over the next 200 dispatches b gets half.
func TestColdStartTenantGetsItsShare(t *testing.T) {
	const tick = 500 * time.Microsecond
	clk := newSimClock()
	q := NewWithConfig(Config{Clock: clk.Now})
	next := 0
	push := func(tenant string) {
		next++
		if err := q.Push(fsSpec(fmt.Sprintf("%s-%d", tenant, next), tenant, 0, 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		push("a")
	}
	var running []wire.CommandSpec
	served := map[string]int{}
	for round := 0; served["a"]+served["b"] < 200; round++ {
		// Last round's commands have run their 0.5 ms; each tenant replaces
		// what it got back, keeping 16 outstanding.
		for _, c := range running {
			q.Release(c.ID, tick.Seconds())
			push(c.Tenant)
		}
		running = running[:0]
		if round == 8 { // 4 ms in
			for i := 0; i < 16; i++ {
				push("b")
			}
		}
		for slot := 0; slot < 16; slot++ {
			for _, c := range q.Match(fsWorker(1)).Commands {
				running = append(running, c)
				if round >= 8 && served["a"]+served["b"] < 200 {
					served[c.Tenant]++
				}
			}
		}
		clk.Advance(tick)
	}
	if share := float64(served["b"]) / 200; math.Abs(share-0.5) > 0.1 {
		t.Errorf("b's share of the 200 dispatches after it started = %.2f (a %d, b %d), want 0.5 ± 0.1",
			share, served["a"], served["b"])
	}
}
