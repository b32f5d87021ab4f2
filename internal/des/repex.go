// Replica-exchange scheduling scenario: a discrete-event simulation that
// drives the REAL fair-share queue (internal/queue) under a virtual clock,
// comparing the two REMD exchange patterns (Treikalis et al.) at scales the
// unit tests cannot reach. Every segment is one command in both:
//
//   - "sync": every epoch each rung's segment is submitted; the exchange
//     sweep (even/odd neighbour pairs) waits for the last of them, a global
//     barrier at the segment boundary.
//   - "async": a replica reaching its boundary exchanges with a neighbour
//     already waiting there, or parks until one arrives. No global barrier.
//
// With uniform segment durations the barrier is free and both patterns
// keep the ladder busy; under heavy-tailed durations the sync barrier
// stalls every replica on the epoch's slowest straggler, while async pays
// only nearest-neighbour waits — the scenario quantifies that gap as
// exchange throughput. A worker-churn fault window preempts running
// segments at checkpoint boundaries (release-then-requeue, exactly the
// server's ordering), and the run must finish with no leaked core grant.
package des

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"time"

	"copernicus/internal/obs"
	"copernicus/internal/queue"
	"copernicus/internal/repex"
	"copernicus/internal/wire"
)

// RepexDESParams configures one replica-exchange scheduling scenario. The
// zero value is not runnable; start from DefaultRepexDESParams.
type RepexDESParams struct {
	Replicas int    // temperature-ladder rungs
	Epochs   int    // segments per rung
	Mode     string // "sync" or "async"

	Workers        int
	CoresPerWorker int

	// MeanSegSeconds is the mean segment duration. ParetoAlpha selects the
	// duration law: 0 means every segment takes exactly the mean (uniform
	// hardware); alpha > 1 draws from a Pareto with that mean, modelling
	// the heavy-tailed segment times of shared clusters. MaxSegFactor > 0
	// truncates draws at MaxSegFactor x mean (a segment is a bounded step
	// count, so its duration cannot grow without limit).
	MeanSegSeconds float64
	ParetoAlpha    float64
	MaxSegFactor   float64

	// TMin, TMax span the ladder; exchange decisions use real Metropolis
	// acceptance over synthetic boundary potentials so acceptance rates
	// are physical rather than coin flips.
	TMin, TMax float64

	// DispatchLatency is the delay between a queue state change and the
	// matching round that reacts to it (announce round-trip).
	DispatchLatency float64

	// Worker churn: every ChurnEvery seconds inside [ChurnStart, ChurnEnd)
	// a worker is killed — its running commands are checkpoint-preempted
	// (progress floored to CheckpointSeconds) and requeued — and rejoins
	// ReviveAfter seconds later. ChurnEvery = 0 disables churn.
	ChurnStart, ChurnEnd, ChurnEvery, ReviveAfter float64
	CheckpointSeconds                             float64

	Seed uint64
	// Obs, when set, receives the queue's metric families.
	Obs *obs.Obs
}

// DefaultRepexDESParams is a CI-sized ladder: 64 replicas, uniform
// ten-minute segments, two workers that can each hold the whole ladder.
func DefaultRepexDESParams() RepexDESParams {
	return RepexDESParams{
		Replicas:          64,
		Epochs:            6,
		Mode:              "sync",
		Workers:           2,
		CoresPerWorker:    64,
		MeanSegSeconds:    600,
		ParetoAlpha:       0,
		TMin:              300,
		TMax:              450,
		DispatchLatency:   1,
		CheckpointSeconds: 60,
		Seed:              7,
	}
}

func (p *RepexDESParams) validate() error {
	if p.Replicas < 2 || p.Epochs < 1 {
		return fmt.Errorf("des: need >= 2 replicas and >= 1 epoch")
	}
	switch p.Mode {
	case "sync", "async":
	default:
		return fmt.Errorf("des: unknown repex mode %q", p.Mode)
	}
	if p.Workers < 1 || p.CoresPerWorker < 1 {
		return fmt.Errorf("des: need at least one worker with one core")
	}
	if p.MeanSegSeconds <= 0 {
		return fmt.Errorf("des: segment duration must be positive")
	}
	if p.ParetoAlpha != 0 && p.ParetoAlpha <= 1 {
		return fmt.Errorf("des: ParetoAlpha must be 0 (uniform) or > 1")
	}
	if p.TMin <= 0 || p.TMax <= p.TMin {
		return fmt.Errorf("des: need 0 < TMin < TMax")
	}
	if p.DispatchLatency <= 0 {
		p.DispatchLatency = 1
	}
	return nil
}

// RepexDESResult is the scenario scorecard.
type RepexDESResult struct {
	Params RepexDESParams

	Completed       bool // all rungs ran all epochs (no deadlock)
	MakespanSeconds float64
	SegmentsRun     int

	ExchangeAttempts uint64
	ExchangeAccepts  uint64
	ExchangesPerHour float64 // attempts / makespan — the mixing rate

	// ReplicaUtilization is busy replica-seconds over Replicas × makespan:
	// the fraction of ladder capacity actually simulating.
	ReplicaUtilization float64

	// Fault-window accounting.
	WorkerKills      int
	RequeuedSegments int

	// Invariant violations — all must be zero.
	GrantImbalance int // cores granted minus cores returned at the end
	QueueLeft      int // commands still queued after completion
}

// rxRun tracks one dispatched segment.
type rxRun struct {
	rung    int
	wi      int
	cores   int
	started float64
	seq     uint64 // assignment generation; stale completions are dropped
}

// rxScenario is the engine state for one SimulateRepex run.
type rxScenario struct {
	p      RepexDESParams
	now    float64
	seq    uint64
	events tEventHeap
	rng    *rand.Rand
	q      *queue.Queue

	temps []float64
	stats *repex.Stats

	rungs []repex.Rung // the controller's own rung model; State stays nil

	rem     map[string]float64 // cmdID -> remaining run time
	owner   map[string]int     // cmdID -> rung
	running map[string]*rxRun
	specs   map[string]wire.CommandSpec

	free    []int
	alive   []bool
	granted int

	epoch     int // sync: completed exchange rounds
	pendSync  int // sync: rungs not yet reported this epoch
	nextCmd   int
	busy      float64
	done      bool
	dispatchQ bool // a matching round is already scheduled

	res RepexDESResult
}

const (
	rxDispatch = iota
	rxComplete
	rxKill
	rxRevive
)

func (s *rxScenario) schedule(at float64, ev tEvent) {
	ev.at = at
	ev.seq = s.seq
	s.seq++
	heap.Push(&s.events, ev)
}

// wake schedules one matching round after the dispatch latency, coalescing
// bursts of queue changes into a single round.
func (s *rxScenario) wake() {
	if s.dispatchQ {
		return
	}
	s.dispatchQ = true
	s.schedule(s.now+s.p.DispatchLatency, tEvent{kind: rxDispatch})
}

// segDur draws a segment duration.
func (s *rxScenario) segDur() float64 {
	if s.p.ParetoAlpha == 0 {
		return s.p.MeanSegSeconds
	}
	// Pareto with the configured mean: xm·U^(-1/alpha), xm = mean·(α-1)/α.
	xm := s.p.MeanSegSeconds * (s.p.ParetoAlpha - 1) / s.p.ParetoAlpha
	u := s.rng.Float64()
	if u < 1e-12 {
		u = 1e-12
	}
	d := xm * math.Pow(u, -1/s.p.ParetoAlpha)
	if cap := s.p.MaxSegFactor * s.p.MeanSegSeconds; cap > 0 && d > cap {
		d = cap
	}
	return d
}

// samplePotential draws a synthetic boundary potential for rung r: mean
// scales with temperature (equipartition) and fluctuations with √T, so
// neighbouring rungs overlap and Metropolis acceptance is physical.
func (s *rxScenario) samplePotential(r int) float64 {
	t := s.temps[r]
	return 3*t + 12*math.Sqrt(t)*s.rng.NormFloat64()
}

// submitSegment queues rung r's next segment.
func (s *rxScenario) submitSegment(r int) {
	s.nextCmd++
	id := fmt.Sprintf("seg%06d", s.nextCmd)
	spec := wire.CommandSpec{
		ID: id, Project: "remd", Tenant: "remd",
		Type: "sim", MinCores: 1, MaxCores: 1,
	}
	if err := s.q.Push(spec); err != nil {
		panic(fmt.Sprintf("des: repex push: %v", err)) // single tenant, no quotas: must admit
	}
	s.rem[id] = s.segDur()
	s.owner[id] = r
	s.specs[id] = spec
	s.wake()
}

// submitEpoch queues every rung's next segment (sync mode).
func (s *rxScenario) submitEpoch() {
	s.pendSync = s.p.Replicas
	for r := 0; r < s.p.Replicas; r++ {
		s.submitSegment(r)
	}
}

// attemptExchange runs one Metropolis attempt between rungs i and i+1.
func (s *rxScenario) attemptExchange(i int) {
	s.res.ExchangeAttempts++
	if repex.Exchange(s.temps, s.rungs, s.stats, i, s.rng.Float64()) {
		s.res.ExchangeAccepts++
	}
}

// boundary handles rung r finishing a segment: RepexController's reaction,
// driven by the same repex schedules, over virtual time.
func (s *rxScenario) boundary(r int) {
	s.rungs[r].Segs++
	s.res.SegmentsRun++
	s.rungs[r].Potential = s.samplePotential(r)

	if s.p.Mode == "sync" {
		s.pendSync--
		if s.pendSync > 0 {
			return
		}
		for _, i := range repex.SweepPairs(s.p.Replicas, s.epoch%2 == 1) {
			s.attemptExchange(i)
		}
		s.epoch++
		if s.epoch >= s.p.Epochs {
			s.done = true
			return
		}
		s.submitEpoch()
		return
	}

	pair, run := repex.Arrive(s.rungs, r, s.p.Epochs)
	if pair >= 0 {
		s.attemptExchange(pair)
	}
	for _, n := range run {
		s.submitSegment(n)
	}
	// Every rung runs exactly Epochs segments, then retires.
	s.done = s.res.SegmentsRun == s.p.Replicas*s.p.Epochs
}

// matchRound lets every live worker announce its free cores and start what
// the scheduler hands back.
func (s *rxScenario) matchRound() {
	for wi := range s.free {
		if !s.alive[wi] || s.free[wi] < 1 {
			continue
		}
		wl := s.q.Match(wire.WorkerInfo{
			ID:          fmt.Sprintf("w%03d", wi),
			Platform:    "smp",
			Cores:       s.free[wi],
			Executables: []string{"sim"},
		})
		for _, c := range wl.Commands {
			cores := wl.Cores[c.ID]
			s.free[wi] -= cores
			s.granted += cores
			s.seq++
			run := &rxRun{rung: s.owner[c.ID], wi: wi, cores: cores,
				started: s.now, seq: s.seq}
			s.running[c.ID] = run
			s.schedule(s.now+s.rem[c.ID], tEvent{kind: rxComplete,
				who: wi, cmdID: c.ID, gen: run.seq})
		}
	}
}

// kill takes worker wi down: every running command is checkpoint-preempted
// and requeued with the server's release-then-requeue ordering.
func (s *rxScenario) kill(wi int) {
	if !s.alive[wi] {
		return
	}
	s.alive[wi] = false
	s.free[wi] = 0
	s.res.WorkerKills++
	for id, run := range s.running {
		if run.wi != wi {
			continue
		}
		elapsed := s.now - run.started
		banked := elapsed
		if s.p.CheckpointSeconds > 0 {
			banked = math.Floor(elapsed/s.p.CheckpointSeconds) * s.p.CheckpointSeconds
		}
		s.busy += banked
		s.rem[id] -= banked
		if s.rem[id] < 0 {
			s.rem[id] = 0
		}
		s.granted -= run.cores
		delete(s.running, id)
		s.q.Release(id, elapsed)
		if err := s.q.Requeue(s.specs[id]); err != nil {
			panic(fmt.Sprintf("des: repex requeue: %v", err))
		}
		s.res.RequeuedSegments++
	}
	s.schedule(s.now+s.p.ReviveAfter, tEvent{kind: rxRevive, who: wi})
	s.wake()
}

// SimulateRepex runs the replica-exchange scheduling scenario. It is
// deterministic for a given RepexDESParams.
func SimulateRepex(p RepexDESParams) (RepexDESResult, error) {
	if err := p.validate(); err != nil {
		return RepexDESResult{}, err
	}
	temps, err := repex.Ladder(p.TMin, p.TMax, p.Replicas)
	if err != nil {
		return RepexDESResult{}, err
	}
	s := &rxScenario{
		p:       p,
		rng:     rand.New(rand.NewSource(int64(p.Seed))),
		temps:   temps,
		stats:   repex.NewStats(p.Replicas),
		rungs:   make([]repex.Rung, p.Replicas),
		rem:     make(map[string]float64),
		owner:   make(map[string]int),
		running: make(map[string]*rxRun),
		specs:   make(map[string]wire.CommandSpec),
	}
	s.res.Params = p

	epoch := time.Unix(1_700_000_000, 0)
	s.q = queue.NewWithConfig(queue.Config{
		Clock: func() time.Time { return epoch.Add(time.Duration(s.now * float64(time.Second))) },
	})
	if p.Obs != nil {
		s.q.SetObs(p.Obs, obs.L("node", "des-repex"))
	}

	for r := 0; r < p.Replicas; r++ {
		s.rungs[r].Potential = s.samplePotential(r)
	}
	for wi := 0; wi < p.Workers; wi++ {
		s.free = append(s.free, p.CoresPerWorker)
		s.alive = append(s.alive, true)
	}
	if p.Mode == "sync" {
		s.submitEpoch()
	} else {
		for r := 0; r < p.Replicas; r++ {
			s.submitSegment(r)
		}
	}
	if p.ChurnEvery > 0 {
		k := 0
		for at := p.ChurnStart; at < p.ChurnEnd; at += p.ChurnEvery {
			s.schedule(at, tEvent{kind: rxKill, who: k % p.Workers})
			k++
		}
	}

	const maxEvents = 20_000_000 // runaway backstop; a deadlock otherwise spins on polls
	for n := 0; s.events.Len() > 0 && !s.done && n < maxEvents; n++ {
		ev := heap.Pop(&s.events).(tEvent)
		s.now = ev.at
		switch ev.kind {
		case rxDispatch:
			s.dispatchQ = false
			s.matchRound()
		case rxComplete:
			run, ok := s.running[ev.cmdID]
			if !ok || run.seq != ev.gen {
				continue // preempted before finishing; a fresh run owns it now
			}
			delete(s.running, ev.cmdID)
			s.busy += s.now - run.started
			s.granted -= run.cores
			s.free[run.wi] += run.cores
			s.q.Release(ev.cmdID, s.now-run.started)
			delete(s.rem, ev.cmdID)
			delete(s.specs, ev.cmdID)
			rung := s.owner[ev.cmdID]
			delete(s.owner, ev.cmdID)
			s.boundary(rung)
			s.wake()
		case rxKill:
			s.kill(ev.who)
		case rxRevive:
			s.alive[ev.who] = true
			s.free[ev.who] = p.CoresPerWorker
			s.wake()
		}
	}

	s.res.Completed = s.done
	s.res.MakespanSeconds = s.now
	s.res.GrantImbalance = s.granted
	s.res.QueueLeft = s.q.Len()
	if s.now > 0 {
		s.res.ExchangesPerHour = float64(s.res.ExchangeAttempts) / s.now * 3600
		s.res.ReplicaUtilization = s.busy / (float64(p.Replicas) * s.now)
	}
	return s.res, nil
}
