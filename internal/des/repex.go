// Replica-exchange scheduling scenario: the shipped repex controller
// (controller.RepexController) runs its ladder on the virtual-clock fleet
// (fleet.go) against the REAL fair-share queue, comparing the two REMD
// exchange patterns (Treikalis et al.) at scales the unit tests cannot
// reach. Every segment is one command in both:
//
//   - "sync": every epoch each rung's segment is submitted; the exchange
//     sweep (even/odd neighbour pairs) waits for the last of them, a global
//     barrier at the segment boundary.
//   - "async": a replica reaching its boundary exchanges with a neighbour
//     already waiting there, or parks until one arrives. No global barrier.
//
// The project runs on the server's own core (server.Core), so the controller
// runs exactly as under the server, retry budget included; only the engine
// is synthetic. Under
// heavy-tailed segment durations the sync barrier stalls every replica on
// the epoch's slowest straggler, while async pays only nearest-neighbour
// waits — the scenario quantifies that gap as exchange throughput. A
// worker-churn window preempts running segments at checkpoint boundaries,
// and the run must finish with no leaked core grant.
package des

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"copernicus/internal/controller"
	"copernicus/internal/engines"
	"copernicus/internal/obs"
	"copernicus/internal/server"
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

	// Worker churn: every ChurnEvery seconds inside [ChurnStart, ChurnEnd)
	// a worker is killed — its running commands are checkpoint-preempted
	// (progress floored to CheckpointSeconds) and requeued — and rejoins
	// ReviveAfter seconds later. ChurnEvery = 0 disables churn.
	ChurnStart, ChurnEnd, ChurnEvery, ReviveAfter float64
	CheckpointSeconds                             float64

	Seed uint64
	// Obs, when set, receives the queue's and the controller's metric
	// families.
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
		CheckpointSeconds: 60,
		Seed:              7,
	}
}

// validate checks what is the scenario's own; the ladder itself (rungs,
// epochs, mode, temperatures) is the controller's to refuse.
func (p *RepexDESParams) validate() error {
	if p.Workers < 1 || p.CoresPerWorker < 1 {
		return fmt.Errorf("des: need at least one worker with one core")
	}
	if p.MeanSegSeconds <= 0 {
		return fmt.Errorf("des: segment duration must be positive")
	}
	if p.ParetoAlpha != 0 && p.ParetoAlpha <= 1 {
		return fmt.Errorf("des: ParetoAlpha must be 0 (uniform) or > 1")
	}
	return nil
}

// RepexDESResult is the scenario scorecard.
type RepexDESResult struct {
	Params RepexDESParams

	Completed       bool // the controller finished the project (no deadlock)
	MakespanSeconds float64
	SegmentsRun     int

	ExchangeAttempts uint64
	ExchangeAccepts  uint64
	ExchangesPerHour float64 // attempts / makespan — the mixing rate

	// ReplicaUtilization is busy replica-seconds over Replicas × makespan:
	// the fraction of ladder capacity actually simulating.
	ReplicaUtilization float64

	// Fault-window accounting. A run a kill cut short is requeued, or failed
	// to the controller (which resubmits it) once its retry budget is spent.
	WorkerKills      int
	RequeuedSegments int
	FailedSegments   int

	// Invariant violations — all must be zero.
	GrantImbalance int // cores granted minus cores returned at the end
	QueueLeft      int // commands still queued after completion
}

// rxName is the project's name, and its tenant.
const rxName = "remd"

// rxScenario runs one RepexController project on a fleet's core.
type rxScenario struct {
	p    RepexDESParams
	f    *fleet
	rng  *rand.Rand
	done <-chan struct{} // closed when the project finishes or fails
	err  error           // a synthetic output that would not encode
}

// runTime draws a segment duration.
func (s *rxScenario) runTime(wire.CommandSpec) float64 {
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

// over reports that the project finished or failed, or that it stalled:
// nothing runs and nothing is queued, so no handler can run again.
func (s *rxScenario) over() bool {
	select {
	case <-s.done:
		return true
	default:
		return s.err != nil || (len(s.f.running) == 0 && s.f.q.Len() == 0)
	}
}

func (s *rxScenario) started(wire.CommandSpec) {}

// finished reports the segment's result to the core. Its boundary potential
// is synthetic: the mean scales with temperature (equipartition) and the
// fluctuations with √T, so neighbouring rungs overlap and Metropolis
// acceptance is physical.
func (s *rxScenario) finished(cmd wire.CommandSpec, worker string, seconds float64) {
	var pl engines.RepexMDPayload
	if err := wire.Unmarshal(cmd.Payload, &pl); err != nil {
		s.err = err
		return
	}
	t := pl.Config.Temperature
	out, err := wire.Marshal(&engines.RepexMDOutput{
		Potential:   3*t + 12*math.Sqrt(t)*s.rng.NormFloat64(),
		Temperature: t,
		Steps:       pl.TargetStep,
	})
	if err != nil {
		s.err = err
		return
	}
	s.f.core.Result(&wire.CommandResult{CommandID: cmd.ID, Project: cmd.Project, WorkerID: worker,
		OK: true, Output: out, WallSeconds: seconds}, nil)
}

// SimulateRepex runs the replica-exchange scheduling scenario. It is
// deterministic for a given RepexDESParams.
func SimulateRepex(p RepexDESParams) (RepexDESResult, error) {
	if err := p.validate(); err != nil {
		return RepexDESResult{}, err
	}
	s := &rxScenario{p: p, rng: rand.New(rand.NewSource(int64(p.Seed)))}
	s.f = newFleet(server.Config{Obs: p.Obs}, server.Hooks{Origin: "des-repex"}, controller.DefaultRegistry(),
		p.Workers, p.CoresPerWorker, engines.RepexMDName, s)
	s.f.checkpoint = p.CheckpointSeconds
	if p.ChurnEvery > 0 {
		k := 0
		for t := p.ChurnStart; t < p.ChurnEnd; t += p.ChurnEvery {
			wi := k % p.Workers
			s.f.at(t, func() { s.f.kill(wi) })
			s.f.at(t+p.ReviveAfter, func() { s.f.revive(wi) })
			k++
		}
	}

	// The engine is synthetic, so the MD configuration is left to the
	// controller's default; the ladder's seed is the scenario's, mixed with
	// the project's as on a server.
	params, err := wire.Marshal(&controller.RepexParams{
		Replicas: p.Replicas, Epochs: p.Epochs, Mode: p.Mode, Seed: p.Seed,
		TMin: p.TMin, TMax: p.TMax, SegmentSteps: 1, MinCores: 1, MaxCores: 1,
	})
	if err != nil {
		return RepexDESResult{}, err
	}
	if _, err := s.f.core.Submit(&wire.ProjectSubmit{Name: rxName, Controller: controller.RepexControllerName,
		Tenant: rxName, Params: params}); err != nil {
		return RepexDESResult{}, err
	}
	s.done = s.f.core.Done(rxName)
	s.f.run(math.Inf(1), s.over)
	st, _ := s.f.core.Project(rxName)
	if s.err == nil && st.State == "failed" {
		s.err = errors.New(st.Note)
	}
	if s.err != nil {
		return RepexDESResult{}, s.err
	}

	res := RepexDESResult{
		Params:           p,
		Completed:        st.State == "finished",
		MakespanSeconds:  s.f.now,
		WorkerKills:      s.f.kills,
		RequeuedSegments: s.f.lost - st.Failed,
		FailedSegments:   st.Failed,
		GrantImbalance:   s.f.granted,
		QueueLeft:        s.f.q.Len(),
	}
	if res.Completed {
		var rr controller.RepexResult
		if err := wire.Unmarshal(st.Result, &rr); err != nil {
			return RepexDESResult{}, err
		}
		res.SegmentsRun = rr.SegmentsRun
		for i := range rr.Attempts {
			res.ExchangeAttempts += rr.Attempts[i]
			res.ExchangeAccepts += rr.Accepts[i]
		}
	}
	if s.f.now > 0 {
		res.ExchangesPerHour = float64(res.ExchangeAttempts) / s.f.now * 3600
		res.ReplicaUtilization = s.f.busy / (float64(p.Replicas) * s.f.now)
	}
	return res, nil
}
