// Package queue implements the server-side command queue: a multi-tenant
// weighted fair-share scheduler over the resource-matching logic of §2.3.
//
// Commands are partitioned into per-tenant sub-queues (priority-FIFO within
// a tenant). Across tenants, dispatch order follows virtual-time fair
// queueing: each tenant account carries a virtual clock that advances by
// (estimated core-seconds / weight) whenever one of its commands is
// dispatched, and Match always serves the tenant with the smallest virtual
// clock that has a runnable command. Over time each tenant's observed
// core-share therefore tracks its configured weight, independent of how
// aggressively it submits. The estimate is corrected with the measured
// wall-clock charge when the command is released, so tenants whose commands
// run long pay for what they actually used.
//
// Three more control-plane mechanisms live here because they need the same
// lock as the scheduler state:
//
//   - Quotas: per-tenant bounds on queued commands, in-flight cores and
//     stored result bytes, enforced at Push/Match/CheckStorage with errors
//     that wrap the wire admission sentinels (ErrQuotaExceeded is terminal).
//   - Admission control: a global queued-command bound and a WAL-pressure
//     shed threshold; both reject with wire.ErrAdmissionShed (retryable).
//   - Backpressure: Config.Pressure feeds the store's append-latency EWMA
//     into Match, which scales the worker's core budget by (1-pressure) and
//     stops assigning entirely at the shed threshold — a slow WAL disk
//     throttles new work instead of growing the in-flight window.
//
// Starvation safety: priorities order commands only *within* a tenant, and
// a per-queue StarvationAge guarantees the globally oldest queued command is
// dispatched ahead of fair-share order once it has waited too long, so a
// weight-1 tenant makes progress even against a weight-100 flood.
//
// The unit of dispatch is one command: eligibility (executable, core budget,
// MaxCores quota) is decided per command, and commands are never held back
// for one another.
package queue

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"copernicus/internal/obs"
	"copernicus/internal/wire"
)

// Config tunes the scheduler. The zero value is a working single-tenant
// queue with no quotas and no backpressure.
type Config struct {
	// Clock supplies the current time; nil means time.Now. The DES fleet
	// simulator injects its virtual clock here so fair-share behaviour can
	// be tested over simulated hours in milliseconds.
	Clock func() time.Time
	// StarvationAge is how long a queued command may wait before it jumps
	// fair-share order (0 = default 30s; negative disables the guard).
	StarvationAge time.Duration
	// Pressure, when set, returns the WAL backpressure signal in [0,1]
	// (servers derive it from the store's append-latency EWMA). Match
	// scales the announced core budget by (1-pressure); at shedAt and above,
	// admission and matching shed entirely.
	Pressure func() float64
	// MaxQueuedTotal bounds the whole queue across tenants; Push beyond it
	// sheds with wire.ErrAdmissionShed. 0 = unlimited.
	MaxQueuedTotal int
	// Ready, when set, is called — outside the queue's lock — after every
	// event that can make a Match succeed that would have failed before it:
	// a Push or Requeue, and a Release or SetQuota while commands are
	// queued. first reports that the event put a command into an empty
	// queue. Servers hang their parked announces on it. What clears with
	// time alone (WAL pressure, starvation age) fires nothing.
	Ready func(first bool)
}

const (
	defaultStarvationAge = 30 * time.Second
	// shedAt is the pressure at or above which admission and matching shed
	// entirely.
	shedAt = 0.95
	// defaultEstSeconds seeds the dispatch-time cost estimate before any
	// command of a tenant has completed.
	defaultEstSeconds = 1.0
	// estAlpha is the EWMA weight for per-tenant command-duration estimates.
	estAlpha = 0.3
)

func (c *Config) fill() {
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.StarvationAge == 0 {
		c.StarvationAge = defaultStarvationAge
	}
}

// Queue is a concurrency-safe multi-tenant fair-share command queue.
type Queue struct {
	cfg Config

	mu      sync.Mutex
	tenants map[string]*tenantQ
	byID    map[string]*item
	// inflight tracks dispatched-but-unreleased commands for quota and
	// fair-share charge accounting.
	inflight map[string]*inflightCmd
	seq      uint64
	total    int // queued commands across all tenants
	// vclock is the scheduler's virtual time: the highest settled vtime
	// (vtime less its provisional charges) of a tenant at service. Newly
	// active tenants start at the clock, so an idle tenant cannot bank
	// credit and later monopolise the workers.
	vclock float64
	// estSeconds is the queue-wide command-duration EWMA, the fallback
	// estimate for tenants with no completed commands yet.
	estSeconds   float64
	lastPressure float64

	// Optional instrumentation, wired by SetObs; nil-safe to use unset.
	o            *obs.Obs
	baseLabels   obs.Labels
	pushes       *obs.Counter
	matched      *obs.Counter
	emptyMatches *obs.Counter
	shedTotal    *obs.Counter
	quotaRejects *obs.Counter
	matchSeconds *obs.Histogram
}

// tenantQ is one tenant's scheduling account.
type tenantQ struct {
	id     string
	weight float64
	// Quotas; 0 = unlimited.
	maxQueued  int
	maxCores   int
	maxStorage int64
	// vtime is the tenant's virtual clock (core-seconds / weight served).
	// provisional is the part of it charged at dispatch to commands still
	// in flight, which Release replaces with the measured charge.
	vtime       float64
	provisional float64
	// lastServed is when the scheduler last dispatched for this tenant;
	// the starvation guard fires only for tenants not served within
	// StarvationAge, so a backlogged-but-served tenant cannot use its old
	// items to defeat fair share.
	lastServed time.Time
	items      prioHeap // queued, by (priority desc, seq asc)
	ages       ageHeap  // the same items, by seq asc (== enqueue age)
	// Usage accounting.
	inflightCores int
	coreSeconds   float64 // released actual core-seconds, cumulative
	storageBytes  int64
	estSeconds    float64 // EWMA of this tenant's command wall seconds
	// Per-tenant metric handles (lazily created when obs is wired).
	metShed   *obs.Counter
	metQuota  *obs.Counter
	metrified bool
}

type item struct {
	cmd  wire.CommandSpec
	t    *tenantQ
	seq  uint64
	enq  time.Time
	pidx int // priority-heap position, -1 once removed
	aidx int // age-heap position, -1 once removed
}

// inflightCmd is the accounting record of a dispatched command.
type inflightCmd struct {
	t       *tenantQ
	cores   int
	est     float64 // per-core-second estimate used at dispatch
	charged float64 // vtime already charged for this command
	start   time.Time
}

// New returns an empty queue with default Config (single-tenant compatible:
// everything bills to the default tenant "" with weight 1 and no quotas).
func New() *Queue { return NewWithConfig(Config{}) }

// NewWithConfig returns an empty queue tuned by cfg.
func NewWithConfig(cfg Config) *Queue {
	cfg.fill()
	return &Queue{
		cfg:      cfg,
		tenants:  make(map[string]*tenantQ),
		byID:     make(map[string]*item),
		inflight: make(map[string]*inflightCmd),
	}
}

func (q *Queue) now() time.Time { return q.cfg.Clock() }

// readiness is what a mutating call tells unlock about itself.
type readiness struct {
	fire  bool // the call can have made a failed Match succeed
	first bool // it put a command into an empty queue
}

// unlock releases q.mu and then fires the readiness hook if r says so.
func (q *Queue) unlock(r *readiness) {
	q.mu.Unlock()
	if r.fire && q.cfg.Ready != nil {
		q.cfg.Ready(r.first)
	}
}

// tenantLocked returns (creating if needed) the account for id.
func (q *Queue) tenantLocked(id string) *tenantQ {
	t, ok := q.tenants[id]
	if !ok {
		t = &tenantQ{id: id, weight: 1}
		q.tenants[id] = t
		q.metrifyLocked(t)
	}
	return t
}

// SetObs wires queue metrics into o: the legacy copernicus_queue_* family
// plus the per-tenant copernicus_tenant_* family (labelled tenant="...").
// labels distinguish this queue's series when several queues share a
// registry (servers pass their node ID). Call before traffic arrives.
func (q *Queue) SetObs(o *obs.Obs, labels obs.Labels) {
	if o == nil {
		return
	}
	o.Metrics.GaugeFunc("copernicus_queue_depth",
		"Commands waiting for a worker.", labels,
		func() float64 { return float64(q.Len()) })
	o.Metrics.GaugeFunc("copernicus_queue_pressure",
		"WAL backpressure signal applied at the last match (0 = none, 1 = shed).",
		labels, func() float64 {
			q.mu.Lock()
			defer q.mu.Unlock()
			return q.lastPressure
		})
	q.pushes = o.Metrics.Counter("copernicus_queue_pushes_total",
		"Commands enqueued (including requeues after worker failures).", labels)
	q.matched = o.Metrics.Counter("copernicus_queue_matched_total",
		"Commands handed to workers by the resource matcher.", labels)
	q.emptyMatches = o.Metrics.Counter("copernicus_queue_empty_matches_total",
		"Worker announcements the local queue could not serve.", labels)
	q.shedTotal = o.Metrics.Counter("copernicus_queue_shed_total",
		"Submissions and matches shed by admission control or backpressure.", labels)
	q.quotaRejects = o.Metrics.Counter("copernicus_queue_quota_rejects_total",
		"Submissions rejected by a tenant quota.", labels)
	q.matchSeconds = o.Metrics.Histogram("copernicus_queue_match_seconds",
		"Latency of the workload-assembly matcher.",
		[]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1}, labels)
	q.mu.Lock()
	q.o = o
	q.baseLabels = labels
	for _, t := range q.tenants {
		q.metrifyLocked(t)
	}
	q.mu.Unlock()
}

// metrifyLocked registers t's per-tenant series. The gauge callbacks lock
// q.mu; that is safe because the obs registry renders gauge functions
// outside its own lock.
func (q *Queue) metrifyLocked(t *tenantQ) {
	if q.o == nil || t.metrified {
		return
	}
	t.metrified = true
	ls := obs.Labels{"tenant": t.id}
	for k, v := range q.baseLabels {
		ls[k] = v
	}
	m := q.o.Metrics
	tt := t
	m.GaugeFunc("copernicus_tenant_queued",
		"Commands queued for this tenant.", ls, func() float64 {
			q.mu.Lock()
			defer q.mu.Unlock()
			return float64(tt.items.Len())
		})
	m.GaugeFunc("copernicus_tenant_inflight_cores",
		"Cores currently assigned to this tenant's running commands.", ls,
		func() float64 {
			q.mu.Lock()
			defer q.mu.Unlock()
			return float64(tt.inflightCores)
		})
	m.GaugeFunc("copernicus_tenant_core_seconds",
		"Cumulative core-seconds of completed work billed to this tenant.", ls,
		func() float64 {
			q.mu.Lock()
			defer q.mu.Unlock()
			return tt.coreSeconds
		})
	m.GaugeFunc("copernicus_tenant_oldest_wait_seconds",
		"Age of this tenant's oldest queued command (0 when idle).", ls,
		func() float64 {
			q.mu.Lock()
			defer q.mu.Unlock()
			return q.oldestWaitLocked(tt)
		})
	t.metShed = m.Counter("copernicus_tenant_shed_total",
		"This tenant's submissions shed by admission control.", ls)
	t.metQuota = m.Counter("copernicus_tenant_quota_rejects_total",
		"This tenant's submissions rejected by a quota.", ls)
}

func (q *Queue) oldestWaitLocked(t *tenantQ) float64 {
	if t.ages.Len() == 0 {
		return 0
	}
	return q.now().Sub(t.ages[0].enq).Seconds()
}

// pressureLocked samples the backpressure signal, clamped to [0,1].
func (q *Queue) pressureLocked() float64 {
	if q.cfg.Pressure == nil {
		return 0
	}
	p := q.cfg.Pressure()
	if p < 0 || math.IsNaN(p) {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// Push validates a command and admits it through quota and admission
// control: the tenant's queued-command quota, the global queue bound, and
// the WAL shed threshold. Errors wrap wire.ErrQuotaExceeded (terminal) or
// wire.ErrAdmissionShed (retryable); match with errors.Is. Duplicate IDs
// are rejected. Recovery and requeue paths must use Requeue instead —
// admission applies to new work only.
func (q *Queue) Push(cmd wire.CommandSpec) error {
	return q.push(cmd, true)
}

// Requeue enqueues a command bypassing admission control: the command was
// already admitted once (WAL replay, worker-failure recovery, preemption),
// so bouncing it against quotas now would lose accepted work.
func (q *Queue) Requeue(cmd wire.CommandSpec) error {
	return q.push(cmd, false)
}

func (q *Queue) push(cmd wire.CommandSpec, admit bool) error {
	if err := cmd.Validate(); err != nil {
		return err
	}
	var ready readiness
	q.mu.Lock()
	defer q.unlock(&ready)
	if _, dup := q.byID[cmd.ID]; dup {
		return fmt.Errorf("queue: duplicate command ID %q", cmd.ID)
	}
	t := q.tenantLocked(cmd.Tenant)
	if admit {
		if p := q.pressureLocked(); p >= shedAt {
			q.shedTotal.Inc()
			t.metShed.Inc()
			return fmt.Errorf("queue: WAL pressure %.2f at shed threshold %.2f: %w",
				p, shedAt, wire.ErrAdmissionShed)
		}
		if q.cfg.MaxQueuedTotal > 0 && q.total >= q.cfg.MaxQueuedTotal {
			q.shedTotal.Inc()
			t.metShed.Inc()
			return fmt.Errorf("queue: %d commands queued, global bound %d: %w",
				q.total, q.cfg.MaxQueuedTotal, wire.ErrAdmissionShed)
		}
		if t.maxQueued > 0 && t.items.Len() >= t.maxQueued {
			q.quotaRejects.Inc()
			t.metQuota.Inc()
			return fmt.Errorf("queue: tenant %q has %d commands queued, quota %d: %w",
				t.id, t.items.Len(), t.maxQueued, wire.ErrQuotaExceeded)
		}
	}
	// A tenant going active adopts the scheduler's virtual clock, so idling
	// never banks credit.
	if t.items.Len() == 0 && t.inflightCores == 0 && t.vtime < q.vclock {
		t.vtime = q.vclock
	}
	it := &item{cmd: cmd, t: t, seq: q.seq, enq: q.now()}
	q.seq++
	q.byID[cmd.ID] = it
	heap.Push(&t.items, it)
	heap.Push(&t.ages, it)
	q.total++
	q.pushes.Inc()
	ready = readiness{fire: true, first: q.total == 1}
	return nil
}

// Len returns the number of queued commands across all tenants.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.total
}

// Remove deletes a queued command by ID, returning whether it was present.
// This is how the adaptive controller terminates not-yet-started
// trajectories.
func (q *Queue) Remove(id string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	it, ok := q.byID[id]
	if !ok {
		return false
	}
	q.removeItemLocked(it)
	return true
}

func (q *Queue) removeItemLocked(it *item) {
	delete(q.byID, it.cmd.ID)
	heap.Remove(&it.t.items, it.pidx)
	heap.Remove(&it.t.ages, it.aidx)
	q.total--
}

// Contains reports whether a command is queued.
func (q *Queue) Contains(id string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	_, ok := q.byID[id]
	return ok
}

// estimateLocked returns the per-core duration estimate for tenant t.
func (q *Queue) estimateLocked(t *tenantQ) float64 {
	if t.estSeconds > 0 {
		return t.estSeconds
	}
	if q.estSeconds > 0 {
		return q.estSeconds
	}
	return defaultEstSeconds
}

// quotaAllowsLocked reports whether t may take on extra in-flight cores.
func quotaAllowsLocked(t *tenantQ, extra int) bool {
	return t.maxCores == 0 || t.inflightCores+extra <= t.maxCores
}

// Match assembles a workload for the announced worker. Selection order is
// weighted fair share across tenants (smallest virtual clock first), with
// two overrides: the globally oldest command jumps the order once it has
// waited past StarvationAge, and per-tenant MaxCores quotas veto dispatch.
// WAL pressure scales the worker's usable core budget by (1-pressure) and
// sheds entirely at shedAt. Matched commands are removed from the queue and
// tracked as in-flight until Release. An empty workload means the queue
// holds nothing this worker may run right now.
func (q *Queue) Match(info wire.WorkerInfo) wire.Workload {
	start := q.now()
	defer func() { q.matchSeconds.Observe(time.Since(start).Seconds()) }()
	canRun := make(map[string]bool, len(info.Executables))
	for _, e := range info.Executables {
		canRun[e] = true
	}
	wl := wire.Workload{Cores: make(map[string]int)}
	if info.Cores < 1 {
		return wl
	}

	q.mu.Lock()
	defer q.mu.Unlock()

	pressure := q.pressureLocked()
	q.lastPressure = pressure
	if pressure >= shedAt {
		q.shedTotal.Inc()
		return wl
	}
	budget := int(float64(info.Cores)*(1-pressure) + 0.5)
	if budget < 1 {
		budget = 1 // below the shed threshold we always keep a trickle
	}

	remaining := budget
	var chosen []*item
	for remaining > 0 && q.total > 0 {
		it := q.selectLocked(canRun, remaining, start)
		if it == nil {
			break
		}
		t := it.t
		est := q.estimateLocked(t)
		// The clock follows settled vtime only: a cold tenant's first
		// dispatches are charged the default estimate until Release refunds
		// it, and a tenant going active meanwhile must not adopt that.
		if settled := t.vtime - t.provisional; settled > q.vclock {
			q.vclock = settled
		}
		t.lastServed = start
		// Provisional fair-share charge at MinCores; growth below adds the
		// difference. Charging per pick (not after the loop) keeps multiple
		// picks within one Match fair too.
		charge := est * float64(it.cmd.MinCores) / t.weight
		t.vtime += charge
		t.provisional += charge
		t.inflightCores += it.cmd.MinCores
		q.inflight[it.cmd.ID] = &inflightCmd{
			t: t, cores: it.cmd.MinCores, est: est, charged: charge, start: start,
		}
		remaining -= it.cmd.MinCores
		chosen = append(chosen, it)
	}

	// Grow assignments toward MaxCores while spare budget remains,
	// round-robin so no single command hoards the leftovers; per-tenant
	// core quotas still apply.
	for _, it := range chosen {
		wl.Cores[it.cmd.ID] = it.cmd.MinCores
	}
	for remaining > 0 {
		grew := false
		for _, it := range chosen {
			if remaining == 0 {
				break
			}
			if wl.Cores[it.cmd.ID] < it.cmd.MaxCores && quotaAllowsLocked(it.t, 1) {
				wl.Cores[it.cmd.ID]++
				it.t.inflightCores++
				remaining--
				grew = true
			}
		}
		if !grew {
			break
		}
	}
	// Account the growth in the fair-share charge.
	for _, it := range chosen {
		fl := q.inflight[it.cmd.ID]
		if final := wl.Cores[it.cmd.ID]; final > fl.cores {
			extra := fl.est * float64(final-fl.cores) / fl.t.weight
			fl.t.vtime += extra
			fl.t.provisional += extra
			fl.charged += extra
			fl.cores = final
		}
	}

	for _, it := range chosen {
		wl.Commands = append(wl.Commands, it.cmd)
	}
	if len(chosen) == 0 {
		q.emptyMatches.Inc()
	} else {
		q.matched.Add(uint64(len(chosen)))
	}
	return wl
}

// selectLocked picks the next command to dispatch: the starvation override
// first, then the smallest-vtime tenant with a runnable command. Returns nil
// when nothing fits (wrong executables, MinCores over budget, core quotas
// exhausted). The returned item is already removed from its queues.
func (q *Queue) selectLocked(canRun map[string]bool, remaining int, now time.Time) *item {
	// Starvation guard: a tenant the scheduler has not served within
	// StarvationAge, holding a command queued at least that long, jumps
	// fair-share order — even ahead of better-weighted tenants. The
	// served-recently condition matters: a tenant that floods faster than
	// its share drains still has old items, but it is being *served*, so
	// its backlog must not defeat fair share.
	if age := q.cfg.StarvationAge; age > 0 {
		var oldest *item
		for _, t := range q.tenants {
			if t.ages.Len() == 0 || now.Sub(t.lastServed) <= age {
				continue
			}
			head := t.ages[0]
			if now.Sub(head.enq) <= age {
				continue
			}
			if oldest == nil || head.seq < oldest.seq {
				oldest = head
			}
		}
		if oldest != nil && eligibleLocked(oldest, canRun, remaining) {
			q.removeItemLocked(oldest)
			return oldest
		}
	}

	// Fair share: try tenants in ascending vtime order until one yields a
	// runnable command.
	cands := make([]*tenantQ, 0, len(q.tenants))
	for _, t := range q.tenants {
		if t.items.Len() > 0 {
			cands = append(cands, t)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].vtime != cands[j].vtime {
			return cands[i].vtime < cands[j].vtime
		}
		return cands[i].id < cands[j].id // deterministic tie-break
	})
	for _, t := range cands {
		if it := q.takeEligibleLocked(t, canRun, remaining); it != nil {
			return it
		}
	}
	return nil
}

// eligibleLocked reports whether it can be dispatched right now: its
// executable runs on this worker and its MinCores fit both the remaining
// budget and the tenant's core quota.
func eligibleLocked(it *item, canRun map[string]bool, remaining int) bool {
	return canRun[it.cmd.Type] && it.cmd.MinCores <= remaining &&
		quotaAllowsLocked(it.t, it.cmd.MinCores)
}

// takeEligibleLocked pops t's best runnable command (priority desc, seq asc
// within the tenant), skipping commands the worker cannot run or that are
// over budget or quota. Returns nil if none fits.
//
// Within-tenant starvation guard: when the tenant's own oldest command has
// waited past StarvationAge, it is preferred over the priority head, so a
// tenant's low-priority commands cannot starve behind its endless stream of
// high-priority ones.
func (q *Queue) takeEligibleLocked(t *tenantQ, canRun map[string]bool, remaining int) *item {
	if age := q.cfg.StarvationAge; age > 0 && t.ages.Len() > 0 {
		if head := t.ages[0]; q.now().Sub(head.enq) > age && eligibleLocked(head, canRun, remaining) {
			q.removeItemLocked(head)
			return head
		}
	}
	var skipped []*item
	var found *item
	for t.items.Len() > 0 {
		it := heap.Pop(&t.items).(*item)
		skipped = append(skipped, it)
		if eligibleLocked(it, canRun, remaining) {
			found = it
			break
		}
	}
	// Reinsert everything popped (including the found item, which
	// removeItemLocked then takes out of both heaps the normal way).
	for _, s := range skipped {
		heap.Push(&t.items, s)
	}
	if found != nil {
		q.removeItemLocked(found)
	}
	return found
}

// Release settles a dispatched command's account: frees its in-flight
// cores and replaces the dispatch-time estimate with the actual charge
// (wallSeconds × cores / weight), crediting or debiting the tenant's
// virtual clock by the difference. wallSeconds <= 0 means unknown; the
// elapsed time since dispatch is used. Safe to call for unknown IDs
// (returns false) — double releases are no-ops.
func (q *Queue) Release(cmdID string, wallSeconds float64) bool {
	var ready readiness
	q.mu.Lock()
	defer q.unlock(&ready)
	fl, ok := q.inflight[cmdID]
	if !ok {
		return false
	}
	// Freed cores can lift a tenant's core-quota veto.
	ready.fire = q.total > 0
	delete(q.inflight, cmdID)
	t := fl.t
	t.inflightCores -= fl.cores
	if t.inflightCores < 0 {
		t.inflightCores = 0
	}
	if wallSeconds <= 0 {
		wallSeconds = q.now().Sub(fl.start).Seconds()
	}
	actual := wallSeconds * float64(fl.cores) / t.weight
	t.vtime += actual - fl.charged
	t.provisional -= fl.charged
	if t.vtime < 0 {
		t.vtime = 0
	}
	t.coreSeconds += wallSeconds * float64(fl.cores)
	// Refresh duration estimates for future dispatch charges.
	if t.estSeconds == 0 {
		t.estSeconds = wallSeconds
	} else {
		t.estSeconds = estAlpha*wallSeconds + (1-estAlpha)*t.estSeconds
	}
	if q.estSeconds == 0 {
		q.estSeconds = wallSeconds
	} else {
		q.estSeconds = estAlpha*wallSeconds + (1-estAlpha)*q.estSeconds
	}
	return true
}

// InflightCores returns the cores currently assigned to tenant's running
// commands (0 for unknown tenants).
func (q *Queue) InflightCores(tenant string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if t, ok := q.tenants[tenant]; ok {
		return t.inflightCores
	}
	return 0
}

// Starved returns the tenant whose oldest queued command has waited longer
// than age while the tenant has nothing running — the trigger for
// checkpoint-boundary preemption. When several qualify, the one waiting
// longest wins. ok is false when no tenant is starved.
func (q *Queue) Starved(age time.Duration) (tenant string, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	var oldest *item
	for _, t := range q.tenants {
		if t.ages.Len() == 0 || t.inflightCores > 0 {
			continue
		}
		head := t.ages[0]
		if now.Sub(head.enq) <= age {
			continue
		}
		if oldest == nil || head.enq.Before(oldest.enq) {
			oldest = head
		}
	}
	if oldest == nil {
		return "", false
	}
	return oldest.t.id, true
}

// DominantTenant returns the tenant (other than exclude) holding the most
// in-flight cores — the natural preemption victim owner. ok is false when
// nothing is in flight outside exclude.
func (q *Queue) DominantTenant(exclude string) (tenant string, cores int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for id, t := range q.tenants {
		if id == exclude || t.inflightCores == 0 {
			continue
		}
		if !ok || t.inflightCores > cores || (t.inflightCores == cores && id < tenant) {
			tenant, cores, ok = id, t.inflightCores, true
		}
	}
	return tenant, cores, ok
}

// SetQuota configures a tenant's scheduling weight and quotas (creating the
// account if needed) and returns the resulting status. Semantics follow
// wire.TenantQuotaUpdate: Weight <= 0 keeps the current weight, negative
// quota fields keep current values, zero clears (unlimited).
func (q *Queue) SetQuota(upd wire.TenantQuotaUpdate) wire.TenantStatus {
	var ready readiness
	q.mu.Lock()
	defer q.unlock(&ready)
	ready.fire = q.total > 0
	t := q.tenantLocked(upd.Tenant)
	if upd.Weight > 0 {
		t.weight = upd.Weight
	}
	if upd.MaxQueued >= 0 {
		t.maxQueued = upd.MaxQueued
	}
	if upd.MaxCores >= 0 {
		t.maxCores = upd.MaxCores
	}
	if upd.MaxStorageBytes >= 0 {
		t.maxStorage = upd.MaxStorageBytes
	}
	return q.statusLocked(t)
}

// Tenant returns one tenant's status; ok is false for unknown tenants.
func (q *Queue) Tenant(id string) (wire.TenantStatus, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	t, ok := q.tenants[id]
	if !ok {
		return wire.TenantStatus{}, false
	}
	return q.statusLocked(t), true
}

// Tenants returns every tenant account, sorted by ID.
func (q *Queue) Tenants() []wire.TenantStatus {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]wire.TenantStatus, 0, len(q.tenants))
	for _, t := range q.tenants {
		out = append(out, q.statusLocked(t))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (q *Queue) statusLocked(t *tenantQ) wire.TenantStatus {
	return wire.TenantStatus{
		ID:                t.id,
		Weight:            t.weight,
		MaxQueued:         t.maxQueued,
		MaxCores:          t.maxCores,
		MaxStorageBytes:   t.maxStorage,
		Queued:            t.items.Len(),
		InflightCores:     t.inflightCores,
		CoreSeconds:       t.coreSeconds,
		StorageBytes:      t.storageBytes,
		OldestWaitSeconds: q.oldestWaitLocked(t),
	}
}

// CheckStorage reports whether tenant may store add more bytes; the error
// wraps wire.ErrQuotaExceeded. Unknown tenants are unlimited.
func (q *Queue) CheckStorage(tenant string, add int64) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	t, ok := q.tenants[tenant]
	if !ok || t.maxStorage == 0 {
		return nil
	}
	if t.storageBytes+add > t.maxStorage {
		q.quotaRejects.Inc()
		t.metQuota.Inc()
		return fmt.Errorf("queue: tenant %q stores %d bytes, adding %d exceeds quota %d: %w",
			tenant, t.storageBytes, add, t.maxStorage, wire.ErrQuotaExceeded)
	}
	return nil
}

// ChargeStorage adjusts a tenant's stored-bytes accounting (negative delta
// on deletion). Creates the account if needed.
func (q *Queue) ChargeStorage(tenant string, delta int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	t := q.tenantLocked(tenant)
	t.storageBytes += delta
	if t.storageBytes < 0 {
		t.storageBytes = 0
	}
}

// prioHeap orders a tenant's queue by (priority desc, seq asc).
type prioHeap []*item

func (p prioHeap) Len() int { return len(p) }
func (p prioHeap) Less(i, j int) bool {
	if p[i].cmd.Priority != p[j].cmd.Priority {
		return p[i].cmd.Priority > p[j].cmd.Priority
	}
	return p[i].seq < p[j].seq
}
func (p prioHeap) Swap(i, j int) {
	p[i], p[j] = p[j], p[i]
	p[i].pidx = i
	p[j].pidx = j
}
func (p *prioHeap) Push(x any) {
	it := x.(*item)
	it.pidx = len(*p)
	*p = append(*p, it)
}
func (p *prioHeap) Pop() any {
	old := *p
	it := old[len(old)-1]
	it.pidx = -1
	old[len(old)-1] = nil
	*p = old[:len(old)-1]
	return it
}

// ageHeap orders the same items by seq asc (enqueue order), giving O(1)
// access to a tenant's oldest queued command for the starvation guard.
type ageHeap []*item

func (a ageHeap) Len() int           { return len(a) }
func (a ageHeap) Less(i, j int) bool { return a[i].seq < a[j].seq }
func (a ageHeap) Swap(i, j int) {
	a[i], a[j] = a[j], a[i]
	a[i].aidx = i
	a[j].aidx = j
}
func (a *ageHeap) Push(x any) {
	it := x.(*item)
	it.aidx = len(*a)
	*a = append(*a, it)
}
func (a *ageHeap) Pop() any {
	old := *a
	it := old[len(old)-1]
	it.aidx = -1
	old[len(old)-1] = nil
	*a = old[:len(old)-1]
	return it
}
