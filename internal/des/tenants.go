// Multi-tenant control-plane scenario: a discrete-event simulation that
// drives the REAL fair-share scheduler (internal/queue) under a virtual
// clock. Thousands of tenants submit heavy-tailed bursts of commands, a
// small set of "heavy hitter" tenants in distinct weight classes keep
// permanent backlogs, and a slow-fsync WAL fault window in the middle of
// the run exercises admission backpressure. The scenario measures the
// control plane's multi-tenant SLOs:
//
//   - core-time delivered to saturated tenants is proportional to their
//     configured weights,
//   - no tenant is starved (every backlogged tenant keeps being served
//     within a bounded gap, fault window included),
//   - during the fault the in-flight window drains and admission sheds
//     instead of letting the queue grow without bound.
//
// The WAL is modelled the way servers wire it: an append-latency EWMA
// (same alpha as internal/store) divided by the slow-append threshold
// becomes the queue's pressure signal. During the fault window every
// append sees fsync latencies well past the threshold, exactly like the
// chaos harness's slow-fsync WriteHook does to a real store.
package des

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"copernicus/internal/obs"
	"copernicus/internal/server"
	"copernicus/internal/wire"
)

// TenantParams configures the multi-tenant scenario. The zero value is not
// runnable; start from DefaultTenantParams.
type TenantParams struct {
	// Tenants is the background tenant population (each submits rare,
	// heavy-tailed bursts).
	Tenants int
	// WeightClasses are the fair-share weights exercised by the heavy
	// hitters; HeavyPerClass saturated tenants are created per class.
	WeightClasses []float64
	HeavyPerClass int
	// HeavyBacklog is the queued-command depth each heavy hitter tops its
	// sub-queue up to, keeping it permanently saturated.
	HeavyBacklog int

	Workers        int
	CoresPerWorker int

	// HorizonSeconds is the simulated duration.
	HorizonSeconds float64
	// MeanCmdSeconds is the mean command service time (exponential).
	MeanCmdSeconds float64
	// BackgroundLoad is the fraction of fleet capacity the background
	// population is tuned to request in aggregate.
	BackgroundLoad float64
	// ParetoAlpha shapes background burst sizes (P[B >= k] ~ k^-alpha);
	// MaxBatch truncates them.
	ParetoAlpha float64
	MaxBatch    int

	// CappedTenants background tenants get a MaxQueued quota of
	// CappedMaxQueued, so oversized bursts exercise the terminal
	// quota-rejection path.
	CappedTenants   int
	CappedMaxQueued int

	// StarvationAge is passed through to the queue (see queue.Config).
	StarvationAge time.Duration
	// MaxQueuedTotal bounds the whole queue (0 = unlimited).
	MaxQueuedTotal int

	// The WAL fault window [FaultStartFrac, FaultEndFrac) of the horizon.
	// Appends see WALFaultSeconds latency inside it and WALBaseSeconds
	// outside; pressure = EWMA / WALSlowSeconds.
	FaultStartFrac  float64
	FaultEndFrac    float64
	WALBaseSeconds  float64
	WALFaultSeconds float64
	WALSlowSeconds  float64

	// GapSLOSeconds is the starvation SLO: a tenant whose backlogged wait
	// between consecutive dispatches ever exceeds it counts as starved.
	GapSLOSeconds float64

	Seed uint64
	// Obs, when set, receives the queue's copernicus_queue_* and
	// copernicus_tenant_* metric families.
	Obs *obs.Obs
}

// DefaultTenantParams is a CI-sized run: 2000 background tenants plus eight
// saturated heavy hitters across four weight classes, one simulated hour,
// with a six-minute slow-fsync fault window at mid-run.
func DefaultTenantParams() TenantParams {
	return TenantParams{
		Tenants:         2000,
		WeightClasses:   []float64{1, 2, 4, 8},
		HeavyPerClass:   2,
		HeavyBacklog:    40,
		Workers:         25,
		CoresPerWorker:  8,
		HorizonSeconds:  3600,
		MeanCmdSeconds:  60,
		BackgroundLoad:  0.25,
		ParetoAlpha:     1.5,
		MaxBatch:        64,
		CappedTenants:   20,
		CappedMaxQueued: 2,
		StarvationAge:   30 * time.Second,
		FaultStartFrac:  0.50,
		FaultEndFrac:    0.60,
		WALBaseSeconds:  0.002,
		WALFaultSeconds: 0.300,
		WALSlowSeconds:  0.100,
		GapSLOSeconds:   900,
		Seed:            7,
	}
}

// TenantSLO is the per-tenant scorecard.
type TenantSLO struct {
	ID          string
	Weight      float64
	Submitted   int
	Dispatched  int
	Completed   int
	Shed        int // retryable admission rejections
	QuotaReject int // terminal quota rejections
	CoreSeconds float64
	// MaxWaitSeconds is the longest queue wait among dispatched commands;
	// MaxGapSeconds the longest backlogged stretch without a dispatch.
	MaxWaitSeconds float64
	MaxGapSeconds  float64
}

// TenantResult summarises a scenario run.
type TenantResult struct {
	Params   TenantParams
	Capacity int // total fleet cores

	Submitted   int
	Dispatched  int
	Completed   int
	Shed        int
	QuotaReject int

	// Heavy holds the saturated tenants' scorecards; MaxShareError is the
	// worst relative deviation of CoreSeconds/Weight among them (0.10 =
	// 10% off perfect weighted fairness).
	Heavy         []TenantSLO
	MaxShareError float64

	// Starvation accounting across ALL tenants.
	MaxWaitSeconds float64
	MaxGapSeconds  float64
	Starved        []string

	// Fault-window accounting.
	PeakPressure           float64
	FinalPressure          float64
	FaultSheds             int
	InflightAtFaultStart   int
	InflightAtFaultEnd     int
	MinInflightDuringFault int
	PeakInflightCores      int
	DispatchesAfterFault   int

	Utilization float64 // completed core-seconds / capacity core-seconds
}

type tenantStat struct {
	TenantSLO
	backlog      int
	backlogSince float64
	lastServed   float64
	everServed   bool
}

// noteGap folds how long st has gone unserved while backlogged, as of now,
// into its longest gap.
func (st *tenantStat) noteGap(now float64) {
	ref := st.backlogSince
	if st.everServed && st.lastServed > ref {
		ref = st.lastServed
	}
	st.MaxGapSeconds = math.Max(st.MaxGapSeconds, now-ref)
}

// tenantScenario is the engine state for one SimulateTenants run.
type tenantScenario struct {
	p        TenantParams
	f        *fleet
	rng      *rand.Rand
	walEWMA  float64       // the WAL's append-latency EWMA
	stats    []*tenantStat // heavy hitters first, then background
	heavyN   int
	meanGap  float64 // background tenants' mean gap between bursts
	enqAt    map[string]float64
	cmdOwner map[string]int // cmdID -> stats index
	nextCmd  int
	res      TenantResult
}

func (s *tenantScenario) inFault() bool {
	h := s.p.HorizonSeconds
	return s.f.now >= s.p.FaultStartFrac*h && s.f.now < s.p.FaultEndFrac*h
}

// walAppend journals one record. The latency EWMA uses internal/store's
// alpha, so pressure derives exactly as servers derive it.
func (s *tenantScenario) walAppend() {
	const alpha = 0.2
	lat := s.p.WALBaseSeconds
	if s.inFault() {
		lat = s.p.WALFaultSeconds
	}
	s.walEWMA = (1-alpha)*s.walEWMA + alpha*lat
	s.res.PeakPressure = math.Max(s.res.PeakPressure, s.pressure())
}

// pressure is the queue's backpressure signal: the EWMA over the slow-append
// threshold.
func (s *tenantScenario) pressure() float64 { return s.walEWMA / s.p.WALSlowSeconds }

// submit pushes one command for tenant ti, with full admission accounting.
func (s *tenantScenario) submit(ti int) {
	st := s.stats[ti]
	s.nextCmd++
	id := fmt.Sprintf("c%07d", s.nextCmd)
	err := s.f.q.Push(wire.CommandSpec{
		ID: id, Project: st.ID, Tenant: st.ID,
		Type: "sim", MinCores: 1, MaxCores: 1,
	})
	switch {
	case err == nil:
		st.Submitted++
		s.res.Submitted++
		if st.backlog == 0 {
			st.backlogSince = s.f.now
		}
		st.backlog++
		s.enqAt[id] = s.f.now
		s.cmdOwner[id] = ti
		s.walAppend() // servers journal every admitted command
	case errors.Is(err, wire.ErrQuotaExceeded):
		st.QuotaReject++
		s.res.QuotaReject++
	case errors.Is(err, wire.ErrAdmissionShed):
		st.Shed++
		s.res.Shed++
		if s.inFault() {
			s.res.FaultSheds++
		}
	}
}

// arrive submits background tenant ti's heavy-tailed burst (a truncated
// discrete Pareto) and schedules its next one.
func (s *tenantScenario) arrive(ti int) {
	u := s.rng.Float64()
	if u < 1e-12 {
		u = 1e-12 // keep the power law finite
	}
	burst := int(1 / math.Pow(u, 1/s.p.ParetoAlpha))
	if burst < 1 {
		burst = 1
	}
	if burst > s.p.MaxBatch {
		burst = s.p.MaxBatch
	}
	for k := 0; k < burst; k++ {
		s.submit(ti)
	}
	s.f.at(s.f.now+s.rng.ExpFloat64()*s.meanGap, func() { s.arrive(ti) })
}

// refill tops heavy hitter ti's backlog up, every 30 s.
func (s *tenantScenario) refill(ti int) {
	st := s.stats[ti]
	for st.backlog < s.p.HeavyBacklog {
		before := st.Submitted
		s.submit(ti)
		if st.Submitted == before {
			break // admission shed; retry at the next refill
		}
	}
	s.f.at(s.f.now+30, func() { s.refill(ti) })
}

// walTick is the periodic control-plane journal traffic (snapshots, worker
// lifecycle): it keeps the latency EWMA current even when admission is
// shedding, so pressure can decay once fsync recovers.
func (s *tenantScenario) walTick() {
	s.walAppend()
	s.f.at(s.f.now+15, s.walTick)
}

func (s *tenantScenario) runTime(wire.CommandSpec) float64 {
	return s.rng.ExpFloat64() * s.p.MeanCmdSeconds
}

// started does the dispatch bookkeeping: fault-window counts and how long
// the tenant went without service while backlogged.
func (s *tenantScenario) started(c wire.CommandSpec) {
	now := s.f.now
	if s.f.granted > s.res.PeakInflightCores {
		s.res.PeakInflightCores = s.f.granted
	}
	st := s.stats[s.cmdOwner[c.ID]]
	st.Dispatched++
	s.res.Dispatched++
	if now >= s.p.FaultEndFrac*s.p.HorizonSeconds {
		s.res.DispatchesAfterFault++
	}
	st.noteGap(now)
	st.lastServed = now
	st.everServed = true
	st.backlog--
	if st.backlog > 0 {
		st.backlogSince = now
	}
	if wait := now - s.enqAt[c.ID]; wait > st.MaxWaitSeconds {
		st.MaxWaitSeconds = wait
	}
	delete(s.enqAt, c.ID)
}

// finished settles the command's fair-share charge, as a result would.
func (s *tenantScenario) finished(c wire.CommandSpec, _ string, seconds float64) {
	s.f.q.Release(c.ID, seconds)
	if s.inFault() && s.f.granted < s.res.MinInflightDuringFault {
		s.res.MinInflightDuringFault = s.f.granted
	}
	s.stats[s.cmdOwner[c.ID]].Completed++
	s.res.Completed++
	delete(s.cmdOwner, c.ID)
	s.walAppend() // servers journal every result
}

// SimulateTenants runs the multi-tenant control-plane scenario and returns
// its SLO scorecard. It is deterministic for a given TenantParams.
func SimulateTenants(p TenantParams) (TenantResult, error) {
	if p.Tenants < 1 || p.Workers < 1 || p.CoresPerWorker < 1 {
		return TenantResult{}, fmt.Errorf("des: tenants, workers and cores must be positive")
	}
	if p.HorizonSeconds <= 0 || p.MeanCmdSeconds <= 0 {
		return TenantResult{}, fmt.Errorf("des: horizon and command time must be positive")
	}
	if len(p.WeightClasses) == 0 || p.HeavyPerClass < 1 {
		return TenantResult{}, fmt.Errorf("des: need at least one weight class and heavy hitter")
	}
	if p.ParetoAlpha <= 1 {
		return TenantResult{}, fmt.Errorf("des: ParetoAlpha must exceed 1")
	}

	s := &tenantScenario{
		p:        p,
		rng:      rand.New(rand.NewSource(int64(p.Seed))),
		enqAt:    make(map[string]float64),
		cmdOwner: make(map[string]int),
	}
	s.res.Params = p
	s.res.Capacity = p.Workers * p.CoresPerWorker

	// Commands are pushed raw, with no project: the scenario settles them.
	s.f = newFleet(server.Config{StarvationAge: p.StarvationAge, MaxQueuedTotal: p.MaxQueuedTotal, Obs: p.Obs},
		server.Hooks{Origin: "des", Pressure: s.pressure}, nil, p.Workers, p.CoresPerWorker, "sim", s)
	q := s.f.q

	// Heavy hitters: HeavyPerClass saturated tenants per weight class.
	for ci, w := range p.WeightClasses {
		for j := 0; j < p.HeavyPerClass; j++ {
			st := &tenantStat{TenantSLO: TenantSLO{ID: fmt.Sprintf("heavy-%d-%d", ci, j), Weight: w}}
			s.stats = append(s.stats, st)
			q.SetQuota(wire.TenantQuotaUpdate{Tenant: st.ID, Weight: w})
		}
	}
	s.heavyN = len(s.stats)

	// Background population, weight 1; the first CappedTenants carry a
	// tight queued-command quota.
	for i := 0; i < p.Tenants; i++ {
		st := &tenantStat{TenantSLO: TenantSLO{ID: fmt.Sprintf("bg-%04d", i), Weight: 1}}
		s.stats = append(s.stats, st)
		if i < p.CappedTenants && p.CappedMaxQueued > 0 {
			q.SetQuota(wire.TenantQuotaUpdate{
				Tenant: st.ID, MaxQueued: p.CappedMaxQueued,
				MaxCores: -1, MaxStorageBytes: -1,
			})
		}
	}

	// Background arrival rate: tune per-tenant exponential gaps so the
	// population requests BackgroundLoad of fleet capacity. Mean burst for
	// a truncated Pareto is approximated by alpha/(alpha-1).
	meanBurst := p.ParetoAlpha / (p.ParetoAlpha - 1)
	bgCommands := p.BackgroundLoad * float64(s.res.Capacity) * p.HorizonSeconds / p.MeanCmdSeconds
	arrivalsTotal := bgCommands / meanBurst
	s.meanGap = float64(p.Tenants) * p.HorizonSeconds / arrivalsTotal

	h := p.HorizonSeconds
	s.f.at(p.FaultStartFrac*h, func() {
		s.res.InflightAtFaultStart = s.f.granted
		s.res.MinInflightDuringFault = s.f.granted
	})
	s.f.at(p.FaultEndFrac*h, func() { s.res.InflightAtFaultEnd = s.f.granted })
	for i := 0; i < p.Tenants; i++ {
		s.f.at(s.rng.ExpFloat64()*s.meanGap, func() { s.arrive(s.heavyN + i) })
	}
	for i := 0; i < s.heavyN; i++ {
		s.f.at(0, func() { s.refill(i) })
	}
	s.f.at(0, s.walTick)
	s.f.run(h, func() bool { return false })

	s.res.FinalPressure = s.pressure()
	s.res.Utilization = s.f.busy / (float64(s.res.Capacity) * p.HorizonSeconds)

	// Fold still-backlogged tenants into the gap accounting and collect
	// the global SLOs.
	gapSLO := p.GapSLOSeconds
	if gapSLO <= 0 {
		gapSLO = 900
	}
	for _, st := range s.stats {
		if st.backlog > 0 {
			st.noteGap(p.HorizonSeconds)
		}
		if ts, ok := q.Tenant(st.ID); ok {
			st.CoreSeconds = ts.CoreSeconds
		}
		if st.MaxWaitSeconds > s.res.MaxWaitSeconds {
			s.res.MaxWaitSeconds = st.MaxWaitSeconds
		}
		if st.MaxGapSeconds > s.res.MaxGapSeconds {
			s.res.MaxGapSeconds = st.MaxGapSeconds
		}
		if st.MaxGapSeconds > gapSLO {
			s.res.Starved = append(s.res.Starved, st.ID)
		}
	}
	sort.Strings(s.res.Starved)

	// Weighted-fairness score across the saturated heavy hitters: the
	// spread of CoreSeconds/Weight relative to its mean.
	var shareSum float64
	shares := make([]float64, s.heavyN)
	for i := 0; i < s.heavyN; i++ {
		st := s.stats[i]
		s.res.Heavy = append(s.res.Heavy, st.TenantSLO)
		shares[i] = st.CoreSeconds / st.Weight
		shareSum += shares[i]
	}
	mean := shareSum / float64(s.heavyN)
	for _, sh := range shares {
		if mean <= 0 {
			s.res.MaxShareError = 1
			break
		}
		s.res.MaxShareError = math.Max(s.res.MaxShareError, math.Abs(sh/mean-1))
	}
	return s.res, nil
}
