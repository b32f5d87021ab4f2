// Package des implements the discrete-event simulator behind the paper's
// scaling study. Figures 7–9 of the paper were produced exactly this way:
// "we additionally benchmarked simulations with different numbers of cores
// and then simulated the controller's activity given different numbers of
// cores per task and total resources allocated."
//
// The model is only the measured single-simulation speedup curve, which
// sets a segment's run time; the trajectory chains, RoundsPerGen 50-ns
// segments per trajectory per generation (the later rounds model the
// controller extending trajectories as they finish); and the clustering
// pause between generations. Dispatch is the shipped dispatch: each
// generation is a project on the virtual-clock fleet (fleet.go), whose
// workers run the server's core and the shipped worker core. The simulator
// reports time-to-solution, scaling efficiency tres(1)/(N·tres(N)) and
// ensemble-level bandwidth — the quantities plotted in Figs 7, 8 and 9.
//
// The multi-tenant (tenants.go) and replica-exchange (repex.go, with the
// real RepexController) scenarios run on the same fleet; the
// streaming-analysis scenario (stream.go) runs the real internal/msm code.
package des

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"copernicus/internal/controller"
	"copernicus/internal/server"
	"copernicus/internal/wire"
)

// SpeedModel is the single-simulation performance curve s(c):
//
//	s(c) = S1 · c · E(c),  E(c) = (1+(1/C0)^Alpha) / (1+(c/C0)^Alpha)
//
// normalised so E(1) = 1. S1 is the measured single-core speed in ns/day;
// C0 and Alpha shape the parallel-efficiency falloff of the MD engine.
type SpeedModel struct {
	S1    float64 // ns/day on one core
	C0    float64 // cores at which efficiency has roughly halved
	Alpha float64 // falloff steepness
}

// Efficiency returns E(c) in (0, 1].
func (m SpeedModel) Efficiency(cores int) float64 {
	if cores < 1 {
		return 0
	}
	norm := 1 + math.Pow(1/m.C0, m.Alpha)
	return norm / (1 + math.Pow(float64(cores)/m.C0, m.Alpha))
}

// NsPerDay returns the simulation speed on the given core count.
func (m SpeedModel) NsPerDay(cores int) float64 {
	return m.S1 * float64(cores) * m.Efficiency(cores)
}

// SegmentHours returns the wall time of one segment of the given length.
func (m SpeedModel) SegmentHours(cores int, segmentNs float64) float64 {
	return segmentNs / m.NsPerDay(cores) * 24
}

// Params describes one scaling-study scenario.
type Params struct {
	TotalCores  int // total cores across all resources
	CoresPerSim int // cores assigned to each individual simulation

	Trajectories int     // parallel trajectories per generation (paper: 225)
	SegmentNs    float64 // command length (paper: 50 ns)
	RoundsPerGen int     // sequential segments per trajectory per generation
	Generations  int     // generations to the stop criterion (first folded: 3)

	Speed SpeedModel

	// ClusteringHours is the controller's analysis pause at each
	// generation barrier.
	ClusteringHours float64
	// TransferSecondsPerCommand models result upload + workload pickup
	// latency per command (the paper estimates ≤30 s per running day).
	TransferSecondsPerCommand float64
	// BytesPerCommand is the result payload per finished command, for the
	// Fig 9 bandwidth accounting.
	BytesPerCommand float64
}

// PaperParams returns the scenario calibrated to the paper's villin run:
// tres(1) = 1.1·10⁵ hours for the full MSM command set, ~10–11 h per
// generation on ~5,000 cores, first folded conformation after three
// generations (~30 h), and ~53 % efficiency at 20,000 cores. See
// EXPERIMENTS.md for the calibration derivation.
func PaperParams() Params {
	return Params{
		TotalCores:                5000,
		CoresPerSim:               24,
		Trajectories:              225,
		SegmentNs:                 50,
		RoundsPerGen:              2,
		Generations:               3,
		Speed:                     SpeedModel{S1: 14.73, C0: 172.3, Alpha: 1.762},
		ClusteringHours:           0.25,
		TransferSecondsPerCommand: 15,
		BytesPerCommand:           4e6,
	}
}

func (p *Params) validate() error {
	if p.CoresPerSim < 1 || p.CoresPerSim > p.TotalCores {
		return fmt.Errorf("des: cores per simulation %d must be 1 to the total %d", p.CoresPerSim, p.TotalCores)
	}
	if p.Trajectories < 1 || p.RoundsPerGen < 1 || p.Generations < 1 {
		return fmt.Errorf("des: trajectory/round/generation counts must be positive")
	}
	// NaN fails every comparison; a negative or infinite time would run the
	// fleet's clock backwards or never end.
	for _, x := range []float64{p.SegmentNs, p.Speed.S1, p.Speed.C0, p.Speed.Alpha} {
		if !(x > 0) || math.IsInf(x, 1) {
			return fmt.Errorf("des: segment length and speed model parameters must be positive and finite")
		}
	}
	for _, x := range []float64{p.ClusteringHours, p.TransferSecondsPerCommand, p.BytesPerCommand} {
		if !(x >= 0) || math.IsInf(x, 1) {
			return fmt.Errorf("des: clustering pause, transfer time and payload must be non-negative and finite")
		}
	}
	return nil
}

// Result reports one simulated scenario.
type Result struct {
	Hours         float64 // time to solution
	Workers       int     // concurrent simulations
	Commands      int     // 50-ns segments executed
	SimulatedNs   float64 // total trajectory-ns produced
	BusyFraction  float64 // mean worker utilisation
	BandwidthMBps float64 // ensemble-level result traffic (Fig 9)
}

// scaling runs a Params scenario on the fleet and is the controller of its
// generations, one project at a time. Start submits every trajectory's
// first segment and each finish that trajectory's next, until it has run
// RoundsPerGen (the paper's extend-on-finish); the last finish ends the
// project, and the next generation is submitted ClusteringHours later.
// Segment k of a generation extends trajectory k mod Trajectories.
type scaling struct {
	p              Params
	f              *fleet
	run            float64 // a segment's run time, seconds
	left           int     // segments of the running generation not yet finished
	gens, commands int     // generations and segments finished
	err            error
}

func (s *scaling) Name() string { return "scaling" }
func (s *scaling) Start(ctx controller.Context, _ []byte) (err error) {
	s.left = s.p.Trajectories * s.p.RoundsPerGen
	for k := 0; err == nil && k < s.p.Trajectories; k++ {
		err = s.segment(ctx, k)
	}
	return err
}
func (s *scaling) CommandFinished(ctx controller.Context, res *wire.CommandResult) error {
	s.commands++
	if s.left--; s.left == 0 {
		ctx.Finish(nil)
		if s.gens++; s.gens < s.p.Generations {
			s.f.at(s.f.now+s.p.ClusteringHours*3600, s.submit)
		}
		return nil
	}
	k, err := strconv.Atoi(res.CommandID[strings.LastIndexByte(res.CommandID, '/')+1:])
	if k += s.p.Trajectories; err != nil || k >= s.p.Trajectories*s.p.RoundsPerGen {
		return err
	}
	return s.segment(ctx, k)
}
func (s *scaling) CommandFailed(controller.Context, wire.CommandSpec, string) error { return nil }

// segment submits segment k, which takes a worker's every core.
func (s *scaling) segment(ctx controller.Context, k int) error {
	return ctx.Submit(wire.CommandSpec{ID: ctx.ProjectName() + "/" + strconv.Itoa(k), Type: "sim",
		MinCores: s.p.CoresPerSim, MaxCores: s.p.CoresPerSim})
}

// submit submits the next generation's project.
func (s *scaling) submit() {
	_, s.err = s.f.core.Submit(&wire.ProjectSubmit{Name: "gen" + strconv.Itoa(s.gens), Controller: s.Name()})
}

func (s *scaling) runTime(wire.CommandSpec) float64 { return s.run }
func (s *scaling) started(wire.CommandSpec)         {}
func (s *scaling) finished(c wire.CommandSpec, worker string, seconds float64) {
	if _, err := s.f.core.Result(&wire.CommandResult{CommandID: c.ID, Project: c.Project, WorkerID: worker,
		OK: true, WallSeconds: seconds}, nil); err != nil {
		s.err = err
	}
}

// Simulate runs the scenario on the fleet, TotalCores/CoresPerSim workers
// of CoresPerSim cores each, and returns its metrics. An idle worker's
// announce is held for a century, so it stays parked until there is work
// instead of re-announcing every 2 s; the run must finish within that hold.
func Simulate(p Params) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	workers := p.TotalCores / p.CoresPerSim
	segHours := p.Speed.SegmentHours(p.CoresPerSim, p.SegmentNs)
	s := &scaling{p: p, run: segHours*3600 + p.TransferSecondsPerCommand}
	reg := controller.NewRegistry()
	reg.Register(s.Name(), func() controller.Controller { return s })
	const hold = 100 * 365 * 24 * time.Hour
	s.f = newFleet(server.Config{RelayTimeout: hold}, server.Hooks{Origin: "des-scaling"}, reg,
		workers, p.CoresPerSim, "sim", s)
	s.submit()
	s.f.run(hold.Seconds(), func() bool { return s.err != nil || s.gens == p.Generations })
	if s.err == nil && s.gens < p.Generations {
		s.err = fmt.Errorf("des: the run stopped after %d of %d generations", s.gens, p.Generations)
	}
	if s.err != nil {
		return Result{}, s.err
	}

	hours := s.f.now / 3600 // the final analysis is the result itself
	res := Result{Hours: hours, Workers: workers, Commands: s.commands, SimulatedNs: float64(s.commands) * p.SegmentNs}
	if hours > 0 {
		res.BusyFraction = float64(s.commands) * segHours / (hours * float64(workers))
		res.BandwidthMBps = float64(s.commands) * p.BytesPerCommand / 1e6 / (hours * 3600)
	}
	return res, nil
}

// ReferenceHours returns tres(1): the same workload on a single core — the
// normalisation of the Fig 7 efficiency axis.
func ReferenceHours(p Params) (float64, error) {
	p.TotalCores = 1
	p.CoresPerSim = 1
	r, err := Simulate(p)
	if err != nil {
		return 0, err
	}
	return r.Hours, nil
}

// Efficiency returns the paper's scaling-efficiency metric
// tres(1)/(N·tres(N)).
func Efficiency(refHours float64, totalCores int, hours float64) float64 {
	if hours <= 0 || totalCores <= 0 {
		return 0
	}
	return refHours / (float64(totalCores) * hours)
}

// SweepPoint is one point of a Figs 7–9 sweep.
type SweepPoint struct {
	TotalCores  int
	CoresPerSim int
	Result
	Efficiency float64
}

// Sweep simulates the cross product of total-core counts and cores-per-sim
// choices (skipping infeasible combinations where c > N), computing each
// point's efficiency against the shared single-core reference.
func Sweep(base Params, coresPerSim, totalCores []int) ([]SweepPoint, error) {
	ref, err := ReferenceHours(base)
	if err != nil {
		return nil, err
	}
	var out []SweepPoint
	for _, c := range coresPerSim {
		for _, n := range totalCores {
			if c > n {
				continue
			}
			p := base
			p.CoresPerSim, p.TotalCores = c, n
			r, err := Simulate(p)
			if err != nil {
				return nil, err
			}
			out = append(out, SweepPoint{TotalCores: n, CoresPerSim: c, Result: r, Efficiency: Efficiency(ref, n, r.Hours)})
		}
	}
	return out, nil
}
