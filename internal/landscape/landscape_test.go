package landscape

import (
	"math"
	"testing"
	"testing/quick"

	"copernicus/internal/rng"
)

func defaultModel(t testing.TB) *Model {
	t.Helper()
	m, err := New(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.Dimension = 1 },
		func(p *Params) { p.Barrier = -1 },
		func(p *Params) { p.WellDepth = -1 },
		func(p *Params) { p.Wells = -1 },
		func(p *Params) { p.Diffusion = 0 },
		func(p *Params) { p.Dt = 0 },
		func(p *Params) { p.RMSDPerRadius = 0 },
		func(p *Params) { p.FoldedRMSD = 0 },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if _, err := New(p); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestPotentialShape(t *testing.T) {
	m := defaultModel(t)
	// Native (r~0) must be below unfolded (r~1) because of the tilt.
	native := m.Potential([]float64{0.01, 0, 0})
	unfolded := m.Potential([]float64{1, 0, 0})
	barrier := m.Potential([]float64{0.5, 0, 0})
	if native >= unfolded {
		t.Errorf("native U=%v should be below unfolded U=%v", native, unfolded)
	}
	if barrier <= native || barrier <= unfolded-m.Params().Tilt/2 {
		t.Errorf("barrier U=%v should sit above both basins (native %v, unfolded %v)",
			barrier, native, unfolded)
	}
}

func TestAngularWells(t *testing.T) {
	p := DefaultParams()
	p.Wells = 3
	p.WellDepth = 2
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	// At the gate radius, θ=0 is a well bottom and θ=π/3 a well ridge.
	bottom := m.Potential([]float64{0.5, 0, 0})
	x := 0.5 * math.Cos(math.Pi/3)
	y := 0.5 * math.Sin(math.Pi/3)
	ridge := m.Potential([]float64{x, y, 0})
	if ridge-bottom < 1 {
		t.Errorf("angular modulation too weak: ridge %v vs bottom %v", ridge, bottom)
	}
	// With wells disabled the two points are degenerate.
	p.Wells = 0
	m0, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m0.Potential([]float64{0.5, 0, 0})-m0.Potential([]float64{x, y, 0})) > 1e-12 {
		t.Error("without wells the potential must be radially symmetric")
	}
}

func TestGradientMatchesNumerical(t *testing.T) {
	m := defaultModel(t)
	const h = 1e-6
	points := [][]float64{
		{0.3, 0.2, -0.1},
		{0.9, -0.4, 0.2},
		{0.05, 0.02, 0.01},
		{-0.5, 0.5, 0.3},
	}
	grad := make([]float64, 3)
	for _, x := range points {
		m.Gradient(x, grad)
		for d := 0; d < 3; d++ {
			xp := append([]float64(nil), x...)
			xm := append([]float64(nil), x...)
			xp[d] += h
			xm[d] -= h
			num := (m.Potential(xp) - m.Potential(xm)) / (2 * h)
			if math.Abs(grad[d]-num) > 1e-4*(1+math.Abs(num)) {
				t.Errorf("grad[%d] at %v = %v, numerical %v", d, x, grad[d], num)
			}
		}
	}
}

func TestGradientAtOrigin(t *testing.T) {
	m := defaultModel(t)
	grad := make([]float64, 3)
	m.Gradient([]float64{0, 0, 0}, grad)
	for d, g := range grad {
		if g != 0 {
			t.Errorf("gradient[%d] at origin = %v, want 0", d, g)
		}
	}
}

func TestRMSDMapping(t *testing.T) {
	m := defaultModel(t)
	if got := m.RMSD([]float64{1, 0, 0}); math.Abs(got-14) > 1e-12 {
		t.Errorf("RMSD at r=1 is %v, want 14", got)
	}
	if !m.Folded([]float64{0.1, 0, 0}) {
		t.Error("r=0.1 (1.4 Å) should be folded")
	}
	if m.Folded([]float64{0.5, 0, 0}) {
		t.Error("r=0.5 (7 Å) should not be folded")
	}
	if math.Abs(m.FoldedRadius()-3.5/14) > 1e-12 {
		t.Errorf("FoldedRadius = %v", m.FoldedRadius())
	}
}

func TestUnfoldedStarts(t *testing.T) {
	m := defaultModel(t)
	seen := make([][]float64, 9)
	for i := 0; i < 9; i++ {
		x := m.UnfoldedStart(i, 42)
		if len(x) != 3 {
			t.Fatalf("start %d has dimension %d", i, len(x))
		}
		r := math.Sqrt(x[0]*x[0] + x[1]*x[1] + x[2]*x[2])
		if math.Abs(r-1.05) > 1e-9 {
			t.Errorf("start %d radius = %v, want 1.05", i, r)
		}
		if m.Folded(x) {
			t.Errorf("start %d is folded", i)
		}
		seen[i] = x
	}
	// Distinct starts.
	for i := 0; i < 9; i++ {
		for j := i + 1; j < 9; j++ {
			d := 0.0
			for k := range seen[i] {
				d += (seen[i][k] - seen[j][k]) * (seen[i][k] - seen[j][k])
			}
			if math.Sqrt(d) < 0.05 {
				t.Errorf("starts %d and %d nearly coincide", i, j)
			}
		}
	}
	// Deterministic for a fixed seed.
	again := m.UnfoldedStart(3, 42)
	for k := range again {
		if again[k] != seen[3][k] {
			t.Error("UnfoldedStart not deterministic")
		}
	}
}

func TestSimulateBasics(t *testing.T) {
	m := defaultModel(t)
	x0 := m.UnfoldedStart(0, 1)
	tr, err := m.Simulate(x0, 50, 0.05, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	// The paper's protocol: 50 ns with 50 ps frames → 1000 frames + start.
	if len(tr.Frames) != 1001 {
		t.Fatalf("frames = %d, want 1001", len(tr.Frames))
	}
	if tr.Times[0] != 0 || math.Abs(tr.Duration()-50) > 1e-9 {
		t.Errorf("times: start %v duration %v", tr.Times[0], tr.Duration())
	}
	// x0 must be untouched and equal to frame 0.
	for k := range x0 {
		if x0[k] != tr.Frames[0][k] {
			t.Error("frame 0 is not the start conformation")
		}
	}
	if tr.Last() == nil {
		t.Error("Last returned nil for a non-empty trajectory")
	}
}

func TestSimulateErrors(t *testing.T) {
	m := defaultModel(t)
	if _, err := m.Simulate([]float64{1, 2}, 10, 1, rng.New(1)); err == nil {
		t.Error("wrong dimension should fail")
	}
	if _, err := m.Simulate(m.UnfoldedStart(0, 1), 0, 1, rng.New(1)); err == nil {
		t.Error("zero duration should fail")
	}
	if _, err := m.Simulate(m.UnfoldedStart(0, 1), 10, 0, rng.New(1)); err == nil {
		t.Error("zero frame interval should fail")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	m := defaultModel(t)
	x0 := m.UnfoldedStart(0, 1)
	a, _ := m.Simulate(x0, 10, 0.5, rng.New(5))
	b, _ := m.Simulate(x0, 10, 0.5, rng.New(5))
	for i := range a.Frames {
		for k := range a.Frames[i] {
			if a.Frames[i][k] != b.Frames[i][k] {
				t.Fatal("Simulate not deterministic")
			}
		}
	}
}

func TestTrajEmpty(t *testing.T) {
	var tr Traj
	if tr.Last() != nil {
		t.Error("Last of empty trajectory should be nil")
	}
	if tr.Duration() != 0 {
		t.Error("Duration of empty trajectory should be 0")
	}
}

func TestEquilibriumFoldedFractionCalibration(t *testing.T) {
	m := defaultModel(t)
	eq := m.EquilibriumFoldedFraction()
	// Calibration target: roughly two thirds folded at equilibrium
	// (the paper reports 66% folded by 2 µs).
	if eq < 0.55 || eq < 0 || eq > 0.85 {
		t.Errorf("equilibrium folded fraction = %v, calibration target ~0.66", eq)
	}
	// More tilt, more folded.
	p := DefaultParams()
	p.Tilt += 2
	m2, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if m2.EquilibriumFoldedFraction() <= eq {
		t.Error("increasing tilt must increase folded population")
	}
}

// TestEquilibriumFoldedFractionMatchesQuadrature checks the radial formula,
// angular wells integrated out by I₀, against a quadrature of exp(−U) over
// r, cos φ and θ that calls Potential itself. Midpoint rules on [0, r_c]
// and [r_c, 1.6] in r, and on cos φ; θ's integrand is periodic, where the
// midpoint rule converges fast. Without the I₀ factor the formula read
// 0.672 where the quadrature reads 0.692; with no wells both read 0.672.
func TestEquilibriumFoldedFractionMatchesQuadrature(t *testing.T) {
	for _, wells := range []int{3, 0} {
		m := modelWithWells(t, wells)
		const nR, nCos, nTheta = 400, 4, 64
		shell := func(lo, hi float64) float64 {
			dr, dc, dt := (hi-lo)/nR, 2.0/nCos, 2*math.Pi/nTheta
			sum := 0.0
			x := make([]float64, 3)
			for i := 0; i < nR; i++ {
				r := lo + (float64(i)+0.5)*dr
				for j := 0; j < nCos; j++ {
					c := -1 + (float64(j)+0.5)*dc
					sinPhi := math.Sqrt(1 - c*c)
					for k := 0; k < nTheta; k++ {
						th := (float64(k) + 0.5) * dt
						x[0], x[1], x[2] = r*sinPhi*math.Cos(th), r*sinPhi*math.Sin(th), r*c
						sum += r * r * math.Exp(-m.Potential(x)) * dr * dc * dt
					}
				}
			}
			return sum
		}
		rc := m.FoldedRadius()
		folded := shell(0, rc)
		want := folded / (folded + shell(rc, 1.6))
		got := m.EquilibriumFoldedFraction()
		if math.Abs(got-want) > 1e-4 {
			t.Errorf("wells=%d: EquilibriumFoldedFraction = %.5f, 3-d quadrature %.5f", wells, got, want)
		}
		t.Logf("wells=%d: formula %.6f, quadrature %.6f", wells, got, want)
	}
}

func TestFoldingHappensOnSimulationTimescale(t *testing.T) {
	// A short ensemble must show some folding by 500 ns but not instant
	// folding — the separation of timescales the MSM pipeline needs.
	m := defaultModel(t)
	r := rng.New(11)
	folded200, folded500 := 0, 0
	const nTraj = 40
	for k := 0; k < nTraj; k++ {
		tr, err := m.Simulate(m.UnfoldedStart(k%9, 3), 500, 25, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range tr.Frames {
			if m.Folded(f) {
				if tr.Times[i] <= 200 {
					folded200++
				}
				folded500++
				break
			}
		}
	}
	if folded500 == 0 {
		t.Error("no trajectory folded within 500 ns; kinetics far too slow")
	}
	if folded200 > nTraj*3/4 {
		t.Errorf("%d/%d trajectories folded within 200 ns; kinetics far too fast", folded200, nTraj)
	}
}

func TestPropertyPotentialRotationInvariantWithoutWells(t *testing.T) {
	p := DefaultParams()
	p.Wells = 0
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	f := func(x, y, z, angle float64) bool {
		c := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0.3
			}
			return math.Mod(v, 2)
		}
		x, y, z, angle = c(x), c(y), c(z), c(angle)
		u1 := m.Potential([]float64{x, y, z})
		// Rotate about z.
		xr := x*math.Cos(angle) - y*math.Sin(angle)
		yr := x*math.Sin(angle) + y*math.Cos(angle)
		u2 := m.Potential([]float64{xr, yr, z})
		return math.Abs(u1-u2) < 1e-9*(1+math.Abs(u1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// oldGradient is the gradient as first written: θ from atan2, gate
// evaluated twice, separate Sin and Cos. Gradient computes cos kθ and sin kθ
// without them and must track it to rounding.
func oldGradient(m *Model, x, out []float64) []float64 {
	r := norm(x)
	d := r - 1
	dUdr := 16*m.p.Barrier*(2*r*d*d+2*r*r*d) + m.p.Tilt
	var dUdTheta, wellR float64
	if m.p.Wells > 0 {
		theta := math.Atan2(x[1], x[0])
		k := float64(m.p.Wells)
		dUdTheta = m.p.WellDepth * k * math.Sin(k*theta) * gate(r)
		wellR = m.p.WellDepth * (1 - math.Cos(k*theta)) * (gate(r) * (-2 * (r - 0.5) / 0.045))
	}
	if r < 1e-12 {
		for i := range out {
			out[i] = 0
		}
		return out
	}
	for i := range x {
		out[i] = (dUdr + wellR) * x[i] / r
	}
	if m.p.Wells > 0 {
		rho2 := x[0]*x[0] + x[1]*x[1]
		if rho2 > 1e-12 {
			out[0] += dUdTheta * (-x[1] / rho2)
			out[1] += dUdTheta * (x[0] / rho2)
		}
	}
	return out
}

// oldPotential is Potential as first written, θ from atan2.
func oldPotential(m *Model, x []float64) float64 {
	r := norm(x)
	u := m.radialU(r)
	if m.p.Wells > 0 {
		theta := math.Atan2(x[1], x[0])
		u += m.p.WellDepth * (1 - math.Cos(float64(m.p.Wells)*theta)) * gate(r)
	}
	return u
}

// gradientGap returns the largest component difference of two gradients
// relative to want's L1 norm.
func gradientGap(got, want []float64) float64 {
	var gap, l1 float64
	for i := range want {
		gap = math.Max(gap, math.Abs(got[i]-want[i]))
		l1 += math.Abs(want[i])
	}
	if l1 == 0 {
		return gap
	}
	return gap / l1
}

func modelWithWells(t testing.TB, wells int) *Model {
	t.Helper()
	p := DefaultParams()
	p.Wells = wells
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestGradientAndStepTrackOldFormula: computing cos kθ and sin kθ as a power
// of (x₀ + i·x₁)/ρ rounds differently from atan2 and Sincos, and by no more
// than that. Over random points for several well counts the gradient stays
// within 1e-13 of the old formula's, relative to its L1 norm (the largest
// gap measured was 4.3e-14, at one well); Step, fed the same noise, stays
// within 1e-12 of the old formula's trajectory over 2·10⁵ steps on five
// seeds (measured: 2.2e-14), so a trajectory samples the old model's own
// path.
func TestGradientAndStepTrackOldFormula(t *testing.T) {
	const gradTol, trajTol = 1e-13, 1e-12
	for _, wells := range []int{1, 2, 3, 5} {
		m := modelWithWells(t, wells)
		pick := rng.New(11)
		x := make([]float64, m.Dim())
		got, want := make([]float64, m.Dim()), make([]float64, m.Dim())
		worst := 0.0
		for n := 0; n < 100000; n++ {
			for i := range x {
				x[i] = 1.5 * (2*pick.Float64() - 1)
			}
			m.Gradient(x, got)
			oldGradient(m, x, want)
			gap := gradientGap(got, want)
			if gap > gradTol {
				t.Fatalf("wells=%d: Gradient(%v) = %v, old formula %v (gap %.2g of |g|₁)", wells, x, got, want, gap)
			}
			if u, v := m.Potential(x), oldPotential(m, x); math.Abs(u-v) > gradTol*(1+math.Abs(v)) {
				t.Fatalf("wells=%d: Potential(%v) = %v, old formula %v", wells, x, u, v)
			}
			worst = math.Max(worst, gap)
		}
		t.Logf("wells=%d: worst gradient gap %.2g of |g|₁", wells, worst)
	}

	m := defaultModel(t)
	worst := 0.0
	for seed := uint64(1); seed <= 5; seed++ {
		a, b := m.UnfoldedStart(int(seed), seed), m.UnfoldedStart(int(seed), seed)
		ra, rb := rng.New(seed), rng.New(seed)
		grad := make([]float64, m.Dim())
		for n := 0; n < 200000; n++ {
			m.Step(a, grad, ra)
			oldGradient(m, b, grad)
			for i := range b {
				b[i] += m.drift*grad[i] + m.noise*rb.Norm()
			}
			for i := range a {
				worst = math.Max(worst, math.Abs(a[i]-b[i]))
			}
			if worst > trajTol {
				t.Fatalf("seed %d, step %d: x = %v, old step %v", seed, n, a, b)
			}
		}
	}
	t.Logf("worst trajectory gap %.2g", worst)
}

// TestGradientOnTheWellAxis: at ρ = 0 the angle is undefined. The wells
// contribute nothing there, the force is radial along x₂, and it is the
// old formula's (atan2(0, 0) = 0) to the bit.
func TestGradientOnTheWellAxis(t *testing.T) {
	m := defaultModel(t)
	got, want := make([]float64, 3), make([]float64, 3)
	for _, z := range []float64{0.3, -0.5, 0.6, 1.2} {
		x := []float64{0, 0, z}
		m.Gradient(x, got)
		oldGradient(m, x, want)
		if got[0] != 0 || got[1] != 0 || got[2] == 0 || got[2] != want[2] {
			t.Errorf("Gradient(%v) = %v, old formula %v", x, got, want)
		}
		if u := m.Potential(x); u != m.radialU(math.Abs(z)) {
			t.Errorf("Potential(%v) = %v, radial part alone %v", x, u, m.radialU(math.Abs(z)))
		}
	}
}

// TestGradientWhereRho2Underflows: x₀² + x₁² underflows (to a subnormal at
// 1e-160, to 0 at 1e-170) while ρ > 0. The angle is still well defined,
// and the well term must read it as the old formula did; the angular force
// stays off, as the old ρ² > 1e-12 guard has it.
func TestGradientWhereRho2Underflows(t *testing.T) {
	got, want := make([]float64, 3), make([]float64, 3)
	for _, wells := range []int{1, 2, 3, 5} {
		m := modelWithWells(t, wells)
		for _, x := range [][]float64{
			{1e-160, 1e-160, 0.5},
			{1e-160, 1e-160, 0.6},
			{-3e-170, 1e-170, 0.45},
			{1e-170, -2e-170, -0.62},
		} {
			m.Gradient(x, got)
			oldGradient(m, x, want)
			if gap := gradientGap(got, want); gap > 1e-13 {
				t.Errorf("wells=%d: Gradient(%v) = %v, old formula %v", wells, x, got, want)
			}
			if u, v := m.Potential(x), oldPotential(m, x); math.Abs(u-v) > 1e-13*(1+math.Abs(v)) {
				t.Errorf("wells=%d: Potential(%v) = %v, old formula %v", wells, x, u, v)
			}
			cos, sin := wellPhase(wells, x[0], x[1])
			theta := float64(wells) * math.Atan2(x[1], x[0])
			if math.Abs(cos-math.Cos(theta)) > 1e-15 || math.Abs(sin-math.Sin(theta)) > 1e-15 {
				t.Errorf("wells=%d: wellPhase(%v) = (%v, %v), want (%v, %v)",
					wells, x[:2], cos, sin, math.Cos(theta), math.Sin(theta))
			}
		}
	}
}

func BenchmarkStep(b *testing.B) {
	m, err := New(DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	x := m.UnfoldedStart(0, 1)
	grad := make([]float64, len(x))
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step(x, grad, r)
	}
}

// BenchmarkGradient evaluates the gradient over the frames of nine short
// trajectories, one from each unfolded start, so θ and r vary as in a run.
func BenchmarkGradient(b *testing.B) {
	m, err := New(DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	var points [][]float64
	r := rng.New(1)
	for k := 0; k < 9; k++ {
		tr, err := m.Simulate(m.UnfoldedStart(k, 1), 20, 0.5, r.Split())
		if err != nil {
			b.Fatal(err)
		}
		points = append(points, tr.Frames...)
	}
	grad := make([]float64, m.Dim())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Gradient(points[i%len(points)], grad)
	}
}

func BenchmarkSimulate50ns(b *testing.B) {
	m, err := New(DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Simulate(m.UnfoldedStart(i%9, 1), 50, 1.5, r.Split()); err != nil {
			b.Fatal(err)
		}
	}
}
