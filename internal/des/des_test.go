package des

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSpeedModelShape(t *testing.T) {
	m := PaperParams().Speed
	if e := m.Efficiency(1); math.Abs(e-1) > 1e-9 {
		t.Errorf("E(1) = %v, want 1", e)
	}
	// Efficiency decreases monotonically with cores.
	prev := 2.0
	for _, c := range []int{1, 12, 24, 48, 96, 192, 1000} {
		e := m.Efficiency(c)
		if e <= 0 || e > 1 {
			t.Errorf("E(%d) = %v out of (0,1]", c, e)
		}
		if e >= prev {
			t.Errorf("E(%d) = %v did not decrease", c, e)
		}
		prev = e
	}
	// Speed still increases with cores in the strong-scaling regime.
	if m.NsPerDay(96) <= m.NsPerDay(24) {
		t.Error("s(96) should exceed s(24)")
	}
	if m.Efficiency(0) != 0 {
		t.Error("E(0) should be 0")
	}
}

func TestSegmentHours(t *testing.T) {
	m := SpeedModel{S1: 10, C0: 1000, Alpha: 2}
	// 50 ns at ~10 ns/day on one core ≈ 5 days = 120 h.
	h := m.SegmentHours(1, 50)
	if math.Abs(h-120) > 1 {
		t.Errorf("segment hours = %v, want ~120", h)
	}
}

func TestValidation(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.TotalCores = 0 },
		func(p *Params) { p.CoresPerSim = 0 },
		func(p *Params) { p.CoresPerSim = p.TotalCores + 1 },
		func(p *Params) { p.Trajectories = 0 },
		func(p *Params) { p.RoundsPerGen = 0 },
		func(p *Params) { p.Generations = 0 },
		func(p *Params) { p.SegmentNs = 0 },
		func(p *Params) { p.Speed.S1 = 0 },
	}
	for i, mutate := range bad {
		p := PaperParams()
		mutate(&p)
		if _, err := Simulate(p); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestPaperCalibration(t *testing.T) {
	p := PaperParams()
	ref, err := ReferenceHours(p)
	if err != nil {
		t.Fatal(err)
	}
	// tres(1) = 1.1e5 hours (Fig 7 caption).
	if ref < 1.0e5 || ref > 1.2e5 {
		t.Errorf("tres(1) = %v h, paper 1.1e5", ref)
	}
	// First folded conformation at ~5000 cores in roughly 30 h (§4).
	r5000, err := Simulate(p)
	if err != nil {
		t.Fatal(err)
	}
	if r5000.Hours < 24 || r5000.Hours > 40 {
		t.Errorf("time at 5000 cores = %v h, paper ~30", r5000.Hours)
	}
	// One generation takes 10–11 h on the paper's resources (§4).
	gen := p
	gen.Generations = 1
	rg, err := Simulate(gen)
	if err != nil {
		t.Fatal(err)
	}
	if rg.Hours < 9 || rg.Hours > 13 {
		t.Errorf("generation time = %v h, paper 10-11", rg.Hours)
	}
	// 20,000 cores: "just over 10 h" and ~53% efficiency (§4, Fig 8).
	big := p
	big.TotalCores = 20000
	big.CoresPerSim = 96
	rb, err := Simulate(big)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Hours < 9 || rb.Hours > 13 {
		t.Errorf("time at 20k cores = %v h, paper ~10.4", rb.Hours)
	}
	eff := Efficiency(ref, 20000, rb.Hours)
	if eff < 0.45 || eff > 0.60 {
		t.Errorf("efficiency at 20k cores = %v, paper 0.53", eff)
	}
}

func TestTimeDecreasesWithCores(t *testing.T) {
	// Fig 8: more cores, less wall time, until the command count saturates.
	p := PaperParams()
	p.CoresPerSim = 24
	prev := math.Inf(1)
	for _, n := range []int{24, 240, 1200, 5400} {
		p.TotalCores = n
		r, err := Simulate(p)
		if err != nil {
			t.Fatal(err)
		}
		if r.Hours >= prev {
			t.Errorf("time did not decrease at N=%d: %v >= %v", n, r.Hours, prev)
		}
		prev = r.Hours
	}
}

func TestTimePlateausBeyondSaturation(t *testing.T) {
	// Once workers exceed trajectories, extra cores stop helping — the
	// Fig 8 plateau ("the time to result ceases to decrease").
	p := PaperParams()
	p.CoresPerSim = 24
	p.TotalCores = 24 * 225 // exactly one worker per trajectory
	sat, err := Simulate(p)
	if err != nil {
		t.Fatal(err)
	}
	p.TotalCores = 24 * 225 * 4
	beyond, err := Simulate(p)
	if err != nil {
		t.Fatal(err)
	}
	if beyond.Hours < sat.Hours*0.99 {
		t.Errorf("time kept decreasing past saturation: %v vs %v", beyond.Hours, sat.Hours)
	}
}

func TestEfficiencyDropsAtSaturation(t *testing.T) {
	// Fig 7: efficiency collapses once N exceeds what the command pool can
	// use.
	p := PaperParams()
	p.CoresPerSim = 1
	ref, err := ReferenceHours(p)
	if err != nil {
		t.Fatal(err)
	}
	effAt := func(n int) float64 {
		q := p
		q.TotalCores = n
		r, err := Simulate(q)
		if err != nil {
			t.Fatal(err)
		}
		return Efficiency(ref, n, r.Hours)
	}
	small := effAt(100)  // under-saturated: near 1
	large := effAt(2000) // far past 225 single-core workers
	if small < 0.85 {
		t.Errorf("efficiency at 100 cores = %v, want near 1", small)
	}
	if large > small/2 {
		t.Errorf("efficiency did not collapse past saturation: %v vs %v", large, small)
	}
}

func TestBiggerTasksExtendScaling(t *testing.T) {
	// The paper's central trade-off: at large N, decomposing individual
	// simulations over more cores (c=96) beats c=1 on time-to-solution even
	// though per-simulation efficiency is lower.
	p := PaperParams()
	at := func(n, c int) float64 {
		q := p
		q.TotalCores = n
		q.CoresPerSim = c
		r, err := Simulate(q)
		if err != nil {
			t.Fatal(err)
		}
		return r.Hours
	}
	n := 20000
	if at(n, 96) >= at(n, 1) {
		t.Errorf("at N=%d, c=96 (%v h) should beat c=1 (%v h)", n, at(n, 96), at(n, 1))
	}
	// And conversely at small N, c=1 wins (no decomposition overhead).
	n = 225
	if at(n, 1) > at(n, 96) {
		t.Errorf("at N=%d, c=1 (%v h) should beat c=96 (%v h)", n, at(n, 1), at(n, 96))
	}
}

func TestBandwidthGrowsWithCores(t *testing.T) {
	// Fig 9: ensemble bandwidth rises with core count (more results per
	// wall-clock second) until the 225 commands of a round at 24 cores each
	// occupy 5400 cores, holds there at 21,600, and stays in the sub-MB/s
	// regime throughout.
	p := PaperParams()
	p.CoresPerSim = 24
	prev := 0.0
	for _, n := range []int{240, 2400, 5400, 21600} {
		p.TotalCores = n
		r, err := Simulate(p)
		if err != nil {
			t.Fatal(err)
		}
		if saturated := n > p.Trajectories*p.CoresPerSim; r.BandwidthMBps < prev ||
			!saturated && r.BandwidthMBps == prev {
			t.Errorf("bandwidth %v MB/s at N=%d after %v", r.BandwidthMBps, n, prev)
		}
		if r.BandwidthMBps > 1 {
			t.Errorf("bandwidth %v MB/s implausibly high", r.BandwidthMBps)
		}
		prev = r.BandwidthMBps
	}
}

func TestCommandAccounting(t *testing.T) {
	p := PaperParams()
	p.TotalCores = 1000
	r, err := Simulate(p)
	if err != nil {
		t.Fatal(err)
	}
	want := p.Trajectories * p.RoundsPerGen * p.Generations
	if r.Commands != want {
		t.Errorf("commands = %d, want %d", r.Commands, want)
	}
	if r.SimulatedNs != float64(want)*p.SegmentNs {
		t.Errorf("simulated ns = %v", r.SimulatedNs)
	}
	if r.Workers != 1000/24 {
		t.Errorf("workers = %d", r.Workers)
	}
	if r.BusyFraction <= 0 || r.BusyFraction > 1 {
		t.Errorf("busy fraction = %v", r.BusyFraction)
	}
}

func TestPropertyEfficiencyBounded(t *testing.T) {
	p := PaperParams()
	ref, err := ReferenceHours(p)
	if err != nil {
		t.Fatal(err)
	}
	f := func(nRaw, cRaw uint16) bool {
		n := int(nRaw)%50000 + 1
		cs := []int{1, 12, 24, 48, 96}
		c := cs[int(cRaw)%len(cs)]
		if c > n {
			return true
		}
		q := p
		q.TotalCores = n
		q.CoresPerSim = c
		r, err := Simulate(q)
		if err != nil {
			return false
		}
		eff := Efficiency(ref, n, r.Hours)
		return eff > 0 && eff <= 1.05 // small slack for rounding at N=1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSweep(t *testing.T) {
	p := PaperParams()
	points, err := Sweep(p, []int{1, 24}, []int{100, 1000, 10000})
	if err != nil {
		t.Fatal(err)
	}
	// c=1 at all three N, c=24 at all three N (24 < 100).
	if len(points) != 6 {
		t.Fatalf("sweep points = %d", len(points))
	}
	for _, pt := range points {
		if pt.Hours <= 0 || pt.Efficiency <= 0 {
			t.Errorf("bad point %+v", pt)
		}
	}
}

func TestSweepSkipsInfeasible(t *testing.T) {
	p := PaperParams()
	points, err := Sweep(p, []int{96}, []int{10, 96})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 || points[0].TotalCores != 96 {
		t.Errorf("points = %+v", points)
	}
}

func BenchmarkSimulate5000(b *testing.B) {
	p := PaperParams()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(p); err != nil {
			b.Fatal(err)
		}
	}
}
