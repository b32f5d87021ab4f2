// Package des implements the discrete-event simulator behind the paper's
// scaling study. Figures 7–9 of the paper were produced exactly this way:
// "we additionally benchmarked simulations with different numbers of cores
// and then simulated the controller's activity given different numbers of
// cores per task and total resources allocated."
//
// The model: a villin MSM project is a sequence of generations; each
// generation runs RoundsPerGen 50-ns segments per trajectory (the second
// round models the controller extending trajectories as they finish), with
// a clustering barrier between generations. Workers of CoresPerSim cores
// each pull segments from the queue; segment wall time follows a measured
// single-simulation speedup curve. The simulator reports time-to-solution,
// scaling efficiency tres(1)/(N·tres(N)) and ensemble-level bandwidth —
// the exact quantities plotted in Figs 7, 8 and 9.
//
// The package's other scenarios run shipped code instead of a model of it:
// the multi-tenant (tenants.go) and replica-exchange (repex.go) scenarios
// drive the real queue, and the latter the real RepexController, on one
// virtual-clock fleet that dispatches like the server (fleet.go); the
// streaming-analysis scenario (stream.go) runs the real internal/msm code.
package des

import (
	"container/heap"
	"fmt"
	"math"
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
	if p.TotalCores < 1 {
		return fmt.Errorf("des: need at least one core")
	}
	if p.CoresPerSim < 1 {
		return fmt.Errorf("des: need at least one core per simulation")
	}
	if p.CoresPerSim > p.TotalCores {
		return fmt.Errorf("des: cores per simulation %d exceeds total %d", p.CoresPerSim, p.TotalCores)
	}
	if p.Trajectories < 1 || p.RoundsPerGen < 1 || p.Generations < 1 {
		return fmt.Errorf("des: trajectory/round/generation counts must be positive")
	}
	if p.SegmentNs <= 0 {
		return fmt.Errorf("des: segment length must be positive")
	}
	if p.Speed.S1 <= 0 || p.Speed.C0 <= 0 || p.Speed.Alpha <= 0 {
		return fmt.Errorf("des: speed model parameters must be positive")
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

// workerHeap orders workers by the time they become free.
type workerHeap []float64

func (h workerHeap) Len() int           { return len(h) }
func (h workerHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h workerHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *workerHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *workerHeap) Pop() any          { old := *h; v := old[len(old)-1]; *h = old[:len(old)-1]; return v }

// Simulate runs the event simulation and returns the scenario metrics.
func Simulate(p Params) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	workers := p.TotalCores / p.CoresPerSim
	if workers < 1 {
		workers = 1
	}
	segHours := p.Speed.SegmentHours(p.CoresPerSim, p.SegmentNs)
	overhead := p.TransferSecondsPerCommand / 3600

	free := make(workerHeap, workers)
	heap.Init(&free)

	now := 0.0
	commands := 0
	busyHours := 0.0
	for gen := 0; gen < p.Generations; gen++ {
		// Each trajectory is a chain of RoundsPerGen sequential segments;
		// chains run independently (a trajectory's extension starts as soon
		// as its previous segment finishes and a worker is available — the
		// paper's extend-on-finish behaviour).
		ready := make([]float64, p.Trajectories) // chain next-segment ready time
		remaining := make([]int, p.Trajectories)
		for i := range ready {
			ready[i] = now
			remaining[i] = p.RoundsPerGen
		}
		genEnd := now
		total := p.Trajectories * p.RoundsPerGen
		for done := 0; done < total; done++ {
			// Earliest-ready chain with work left.
			best := -1
			for i := range ready {
				if remaining[i] > 0 && (best < 0 || ready[i] < ready[best]) {
					best = i
				}
			}
			w := heap.Pop(&free).(float64)
			start := math.Max(w, ready[best])
			end := start + segHours + overhead
			heap.Push(&free, end)
			ready[best] = end
			remaining[best]--
			commands++
			busyHours += segHours
			if end > genEnd {
				genEnd = end
			}
		}
		// Clustering barrier: all workers idle until analysis completes.
		now = genEnd + p.ClusteringHours
		for i := range free {
			if free[i] < now {
				free[i] = now
			}
		}
		heap.Init(&free)
	}
	hours := now - p.ClusteringHours // the final analysis is the result itself

	res := Result{
		Hours:       hours,
		Workers:     workers,
		Commands:    commands,
		SimulatedNs: float64(commands) * p.SegmentNs,
	}
	if hours > 0 {
		res.BusyFraction = busyHours / (hours * float64(workers))
		res.BandwidthMBps = float64(commands) * p.BytesPerCommand / 1e6 / (hours * 3600)
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
			p.CoresPerSim = c
			p.TotalCores = n
			r, err := Simulate(p)
			if err != nil {
				return nil, err
			}
			out = append(out, SweepPoint{
				TotalCores:  n,
				CoresPerSim: c,
				Result:      r,
				Efficiency:  Efficiency(ref, n, r.Hours),
			})
		}
	}
	return out, nil
}
