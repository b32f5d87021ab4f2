// Package experiments regenerates every figure and headline number of the
// paper's evaluation (see DESIGN.md §3 for the experiment index). Each Fig*
// function produces the same rows/series the paper reports; cmd/benchfig
// prints them and the repository-level benchmarks time and sanity-check
// them.
//
// Scale: the paper's absolute wall-clock numbers came from two
// supercomputers; here the villin workload runs on the calibrated surrogate
// (Figs 2–5) and the scheduler study runs on the same discrete-event
// methodology the authors used (Figs 7–9). EXPERIMENTS.md records
// paper-vs-measured for every row.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"copernicus/internal/controller"
	"copernicus/internal/core"
	"copernicus/internal/des"
	"copernicus/internal/msm"
	"copernicus/internal/topology"
	"copernicus/internal/wire"
)

// Scale selects the experiment size.
type Scale int

const (
	// ScaleSmall completes in seconds: reduced trajectory counts, the same
	// protocol shape. Used by the repository benchmarks.
	ScaleSmall Scale = iota
	// ScalePaper is the full §3 protocol: 9 starts × 25 tasks, 50-ns
	// segments, 8 generations. Minutes on one machine.
	ScalePaper
)

// VillinParams returns the adaptive-MSM parameters at the given scale.
func VillinParams(s Scale) controller.MSMParams {
	p := controller.DefaultMSMParams()
	if s == ScaleSmall {
		p.NStarts = 4
		p.TasksPerStart = 8
		p.SegmentNs = 50
		p.FrameNs = 2.5
		p.SegmentsPerGen = 64
		p.Generations = 4
		p.Clusters = 200
		// A shorter lag than the paper's 25 ns: the reduced dataset needs
		// more transition pairs per segment to keep the folded basin inside
		// the strongly-connected set (see TestAblationClusterCount for the
		// full-scale discretisation study).
		p.LagNs = 10
		p.PropagateNs = 2000
	}
	return p
}

// RunVillin executes the adaptive folding project on an in-process fabric
// and returns the full result consumed by Figs 2–5.
func RunVillin(s Scale, workers int) (*controller.MSMResult, error) {
	if workers <= 0 {
		workers = 4
	}
	return core.RunMSM(VillinParams(s), core.FabricConfig{
		Servers:          1,
		WorkersPerServer: workers,
	}, 30*time.Minute)
}

// Fig2 formats the per-generation trajectory RMSD evolution: for each
// generation, the min-RMSD traces of representative trajectories (the three
// best finishers plus three originals), plus the blind-prediction RMSD per
// generation — the content of the paper's Fig 2.
func Fig2(res *controller.MSMResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Fig 2 — per-generation trajectory RMSD (Å)\n")
	fmt.Fprintf(&b, "# paper: first folded structure at generation 3 (0.7 Å); blind prediction at generation 8 (1.4 Å)\n")
	fmt.Fprintf(&b, "%-12s %8s %12s %14s %12s\n", "generation", "minRMSD", "topStateRMSD", "foldedPiFrac", "states")
	for _, g := range res.Generations {
		fmt.Fprintf(&b, "%-12d %8.2f %12.2f %14.3f %12d\n",
			g.Generation, g.MinRMSD, g.TopStateRMSD, g.FoldedPiFrac, g.States)
	}
	// Representative trajectories: lowest final min-RMSD first.
	type trace struct {
		id   string
		born int
		min  float64
		gens []float64
	}
	var traces []trace
	for _, tr := range res.Trajs {
		if len(tr.GenMinRMSD) == 0 {
			continue
		}
		best := tr.GenMinRMSD[0]
		for _, v := range tr.GenMinRMSD {
			if v < best {
				best = v
			}
		}
		traces = append(traces, trace{id: tr.ID, born: tr.BornGen, min: best, gens: tr.GenMinRMSD})
	}
	sort.Slice(traces, func(i, j int) bool { return traces[i].min < traces[j].min })
	fmt.Fprintf(&b, "# representative trajectories (min RMSD per generation alive):\n")
	for i, tr := range traces {
		if i >= 6 {
			break
		}
		fmt.Fprintf(&b, "%-12s born=g%d  ", tr.id, tr.born)
		for gi, v := range tr.gens {
			fmt.Fprintf(&b, "g%d:%.2f ", tr.born+gi, v)
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// Fig3 reports the first-folded metric: minimum RMSD to native and the
// generation at which the folded cutoff was first crossed (paper: 0.6–0.7 Å
// within three generations / ~30 h).
func Fig3(res *controller.MSMResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Fig 3 — first folded conformation\n")
	fmt.Fprintf(&b, "# paper: 0.6-0.7 Å Cα RMSD after 3 generations\n")
	last := res.Generations[len(res.Generations)-1]
	fmt.Fprintf(&b, "min RMSD to native: %.2f Å\n", last.MinRMSD)
	if res.FirstFoldedGen >= 0 {
		fmt.Fprintf(&b, "first folded (≤ %.1f Å) in generation %d\n",
			res.Params.Landscape.FoldedRMSD, res.FirstFoldedGen)
	} else {
		fmt.Fprintf(&b, "never reached the folded cutoff\n")
	}
	if res.FirstNearNativeGen >= 0 {
		fmt.Fprintf(&b, "first near-native structure (≤ %.1f Å) in generation %d\n",
			res.Params.NearNativeRMSD, res.FirstNearNativeGen)
	}
	fmt.Fprintf(&b, "blind prediction (largest equilibrium cluster): %.2f Å\n", res.FinalTopStateRMSD)
	return b.String()
}

// Fig4 formats the microstate-MSM population evolution: fraction folded
// under p(t+τ) = p(t)T(τ) from the all-unfolded start (paper: 66%% folded by
// 2 µs, t½ ≈ 500–600 ns).
func Fig4(res *controller.MSMResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Fig 4 — population evolution of the microstate MSM\n")
	fmt.Fprintf(&b, "# paper: 66%% folded at 2 µs; t1/2 = 500-600 ns (experiment ~700 ns)\n")
	fmt.Fprintf(&b, "%-12s %14s\n", "time/ns", "fraction_folded")
	step := len(res.PopTimesNs) / 20
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(res.PopTimesNs); i += step {
		fmt.Fprintf(&b, "%-12.0f %14.3f\n", res.PopTimesNs[i], res.PopFolded[i])
	}
	if n := len(res.PopFolded); n > 0 {
		fmt.Fprintf(&b, "final fraction folded at %.0f ns: %.1f%%\n",
			res.PopTimesNs[n-1], 100*res.PopFolded[n-1])
	}
	if res.THalfOK {
		fmt.Fprintf(&b, "t1/2 of folding: %.0f ns\n", res.THalfNs)
	}
	if len(res.ProbeLagsNs) > 0 {
		fmt.Fprintf(&b, "# lag sensitivity (implied slowest timescale, ns):\n")
		for i, lag := range res.ProbeLagsNs {
			fmt.Fprintf(&b, "#   lag %5.1f ns -> t2 = %.0f ns\n", lag, res.ImpliedTimescales[i])
		}
		fmt.Fprintf(&b, "# Chapman-Kolmogorov error at the working lag: %.4f\n", res.CKError)
	}
	return b.String()
}

// Fig5 formats the ensemble-average RMSD vs time with its standard
// deviation (the paper's error bars).
func Fig5(res *controller.MSMResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Fig 5 — ensemble average Cα RMSD vs time\n")
	fmt.Fprintf(&b, "%-12s %10s %10s\n", "time/ns", "mean/Å", "std/Å")
	step := len(res.RMSDTimesNs) / 25
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(res.RMSDTimesNs); i += step {
		fmt.Fprintf(&b, "%-12.1f %10.2f %10.2f\n",
			res.RMSDTimesNs[i], res.RMSDMean[i], res.RMSDStd[i])
	}
	return b.String()
}

// Fig6Result carries the bandwidth of each level of the parallel hierarchy.
type Fig6Result struct {
	// RankBytesPerStep is the per-step message-passing traffic of the
	// 192-atom water box force-decomposed over 4 ranks (the "MPI" level),
	// computed by rankTraffic.
	RankBytesPerStep float64
	// EnsembleBytes and EnsembleSeconds measure the overlay traffic of a
	// small adaptive project (the "SSL" level).
	EnsembleBytes   int64
	EnsembleSeconds float64
	// HeartbeatBytes is the framed size of one heartbeat message.
	HeartbeatBytes int
}

// rankTraffic is the per-step traffic of force-decomposed MD over r ranks of
// n atoms: an all-gather of positions and a reduce of partial forces, each
// moving (r−1)·n vectors of 24 bytes (three float64) in r·(r−1) messages.
// r is clamped to n. The engine's own parallel level is the shard pool;
// this closed form is the MPI level of the paper's hierarchy.
func rankTraffic(n, r int) (bytes, msgs int) {
	r = min(r, n)
	return 2 * 24 * n * (r - 1), 2 * r * (r - 1)
}

// Fig6 measures the ensemble level on the real substrates and computes the
// message-passing level.
func Fig6() (*Fig6Result, error) {
	sys, err := topology.WaterBox(64, 1)
	if err != nil {
		return nil, err
	}
	bytes, _ := rankTraffic(sys.Top.NAtoms(), 4)
	out := &Fig6Result{RankBytesPerStep: float64(bytes)}

	// Ensemble level: a metered fabric running a small adaptive project.
	p := VillinParams(ScaleSmall)
	p.Generations = 2
	f, err := core.NewFabric(core.FabricConfig{Servers: 2, WorkersPerServer: 2})
	if err != nil {
		return nil, err
	}
	defer f.Close()
	start := time.Now()
	before := f.Net.BytesSent()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	if err := f.Submit(ctx, "fig6", controller.MSMControllerName, &p); err != nil {
		return nil, err
	}
	if _, err := f.Wait(ctx, "fig6"); err != nil {
		return nil, err
	}
	out.EnsembleBytes = f.Net.BytesSent() - before
	out.EnsembleSeconds = time.Since(start).Seconds()

	// Heartbeat size (paper: <200 bytes).
	hb, err := wire.Marshal(&wire.Heartbeat{WorkerID: "worker-0001", CommandIDs: []string{"traj-0001-seg0001"}})
	if err != nil {
		return nil, err
	}
	out.HeartbeatBytes = len(hb)
	return out, nil
}

// FormatFig6 renders the hierarchy table.
func FormatFig6(r *Fig6Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Fig 6 — multi-level parallel hierarchy, measured traffic\n")
	fmt.Fprintf(&b, "# paper: ensemble (SSL) avg 0.04 MB/s; MPI avg 0.5 GB/s; heartbeats <200 B\n")
	fmt.Fprintf(&b, "%-22s %18s %s\n", "level", "measured", "notes")
	fmt.Fprintf(&b, "%-22s %15.0f B/step  force-decomposed water box, 4 ranks\n",
		"message passing", r.RankBytesPerStep)
	mbps := float64(r.EnsembleBytes) / 1e6 / r.EnsembleSeconds
	fmt.Fprintf(&b, "%-22s %15.3f MB/s   adaptive project over 2-server overlay\n",
		"ensemble (overlay)", mbps)
	fmt.Fprintf(&b, "%-22s %15d B       per heartbeat (every 120 s)\n",
		"heartbeat", r.HeartbeatBytes)
	return b.String()
}

// Fig7Points sweeps scaling efficiency vs total cores for the paper's
// cores-per-simulation choices.
func Fig7Points() ([]des.SweepPoint, error) {
	return des.Sweep(des.PaperParams(),
		[]int{1, 12, 24, 48, 96},
		[]int{100, 225, 500, 1000, 2400, 5400, 10800, 21600, 50000})
}

// FormatFig7 renders the efficiency table.
func FormatFig7(points []des.SweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Fig 7 — scaling efficiency tres(1)/(N·tres(N)) vs total cores\n")
	fmt.Fprintf(&b, "# paper: tres(1) = 1.1e5 h; 53%% efficiency at 20,000 cores (c=96)\n")
	fmt.Fprintf(&b, "%-10s %-12s %-12s %-10s\n", "Ncores", "cores/sim", "efficiency", "busy")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10d %-12d %-12.3f %-10.2f\n", p.TotalCores, p.CoresPerSim, p.Efficiency, p.BusyFraction)
	}
	return b.String()
}

// FormatFig8 renders the time-to-solution table.
func FormatFig8(points []des.SweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Fig 8 — time to solution (hours) vs total cores\n")
	fmt.Fprintf(&b, "# paper: ~30 h at 5,000 cores; just over 10 h at 20,000 cores\n")
	fmt.Fprintf(&b, "%-10s %-12s %-14s %-10s\n", "Ncores", "cores/sim", "hours", "commands")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10d %-12d %-14.1f %-10d\n", p.TotalCores, p.CoresPerSim, p.Hours, p.Commands)
	}
	return b.String()
}

// FormatFig9 renders the ensemble-bandwidth table.
func FormatFig9(points []des.SweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Fig 9 — average ensemble-level bandwidth (MB/s) vs total cores\n")
	fmt.Fprintf(&b, "# paper: 0.001–0.1 MB/s across the sweep\n")
	fmt.Fprintf(&b, "%-10s %-12s %-12s\n", "Ncores", "cores/sim", "MB/s")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10d %-12d %-12.4f\n", p.TotalCores, p.CoresPerSim, p.BandwidthMBps)
	}
	return b.String()
}

// T1Heartbeat verifies the heartbeat/failover protocol budget: message size
// (paper: <200 B) and the detection latency bound (2× the interval).
func T1Heartbeat() (string, error) {
	hb, err := wire.Marshal(&wire.Heartbeat{
		WorkerID:   "worker-0123456789abcdef",
		CommandIDs: []string{"traj-0001-seg0001", "traj-0002-seg0002"},
	})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# T1 — heartbeat protocol (paper §2.3)\n")
	fmt.Fprintf(&b, "heartbeat payload: %d bytes (paper: <200 B)\n", len(hb))
	fmt.Fprintf(&b, "failure detection: 2x heartbeat interval (240 s at the paper's default)\n")
	return b.String(), nil
}

// T2SingleSimScaling reports the single-simulation strong-scaling curve:
// the calibrated DES speed model alongside the message-passing traffic a
// force decomposition of a 125-atom LJ fluid would move per step.
func T2SingleSimScaling() (string, error) {
	var b strings.Builder
	m := des.PaperParams().Speed
	fmt.Fprintf(&b, "# T2 — single-simulation strong scaling (villin-class system)\n")
	fmt.Fprintf(&b, "# paper: ~200 ns/day around 100 cores is the practical strong-scaling regime\n")
	fmt.Fprintf(&b, "%-8s %-12s %-12s\n", "cores", "ns/day", "efficiency")
	for _, c := range []int{1, 12, 24, 48, 96, 192} {
		fmt.Fprintf(&b, "%-8d %-12.0f %-12.2f\n", c, m.NsPerDay(c), m.Efficiency(c))
	}
	sys, err := topology.LJFluid(125, 8, 1)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "%-8s %-16s\n", "ranks", "bytes/step")
	for _, r := range []int{2, 4, 8} {
		bytes, _ := rankTraffic(sys.Top.NAtoms(), r)
		fmt.Fprintf(&b, "%-8d %-16.0f\n", r, float64(bytes))
	}
	return b.String(), nil
}

// T3AdaptiveVsEven compares adaptive and even weighting on the same budget:
// the mean per-state uncertainty of the final count matrix, the quantity
// adaptive sampling minimises (paper: up to ~2× sampling efficiency).
func T3AdaptiveVsEven() (string, error) {
	run := func(w msm.Weighting) (*controller.MSMResult, error) {
		p := VillinParams(ScaleSmall)
		p.Weighting = w
		p.Generations = 3
		return core.RunMSM(p, core.FabricConfig{Servers: 1, WorkersPerServer: 4}, 15*time.Minute)
	}
	adaptive, err := run(msm.AdaptiveWeighting)
	if err != nil {
		return "", err
	}
	even, err := run(msm.EvenWeighting)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# T3 — adaptive vs even weighting at equal sampling budget\n")
	fmt.Fprintf(&b, "# paper: adaptive weighting can boost sampling efficiency ~2x once states stabilise\n")
	fmt.Fprintf(&b, "%-10s %-14s %-14s %-12s\n", "mode", "ergodicStates", "foldedPiFrac", "minRMSD")
	a := adaptive.Generations[len(adaptive.Generations)-1]
	e := even.Generations[len(even.Generations)-1]
	fmt.Fprintf(&b, "%-10s %-14d %-14.3f %-12.2f\n", "adaptive", a.States, a.FoldedPiFrac, a.MinRMSD)
	fmt.Fprintf(&b, "%-10s %-14d %-14.3f %-12.2f\n", "even", e.States, e.FoldedPiFrac, e.MinRMSD)
	return b.String(), nil
}
