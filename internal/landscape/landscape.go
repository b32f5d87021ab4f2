// Package landscape implements the coarse-grained protein-folding surrogate
// that stands in for villin-in-explicit-solvent (see DESIGN.md §1): real
// villin trajectories need ~500,000 core-hours, but the MSM pipeline only
// consumes time series of conformations with two-state folding kinetics,
// metastable intermediates and an RMSD-to-native observable. This model
// produces exactly that statistical structure at laptop cost.
//
// The model is overdamped Langevin (Brownian) dynamics on a funnel free
// energy surface in d dimensions (d = 3 by default). The radial coordinate
// r = |x| is the folding progress variable: the native basin sits near
// r = 0, the unfolded ensemble near r = 1, separated by a tunable barrier.
// An angular modulation carves metastable intermediate wells at mid-radius,
// giving the Markov state model non-trivial structure, and the 3-d volume
// element supplies the configurational entropy that makes the unfolded state
// broad, just as for a real chain.
//
// Reduced units: energies in kT, times in ns, lengths dimensionless. The
// RMSD observable maps radius to Ångström so the analysis pipeline speaks
// the paper's units.
package landscape

import (
	"fmt"
	"math"

	"copernicus/internal/rng"
)

// Params defines the surrogate free-energy surface and its dynamics.
type Params struct {
	// Dimension is the configuration-space dimension (>= 2).
	Dimension int

	// Barrier is the folding barrier height in kT at the transition radius.
	Barrier float64

	// Tilt is a linear bias (kT per unit radius) toward the native basin;
	// larger values increase the equilibrium folded population.
	Tilt float64

	// Wells is the number of angular intermediate wells at mid-radius
	// (0 disables them) and WellDepth their depth in kT.
	Wells     int
	WellDepth float64

	// Diffusion is the diffusion coefficient in (length)²/ns, which sets
	// the overall folding timescale.
	Diffusion float64

	// Dt is the Brownian integration timestep in ns.
	Dt float64

	// RMSDPerRadius converts the radial coordinate to Cα-RMSD in Å.
	RMSDPerRadius float64

	// FoldedRMSD is the folded-state cutoff in Å (the paper uses 3.5 Å).
	FoldedRMSD float64
}

// DefaultParams returns the calibrated surface: folding t½ of roughly
// 500–600 ns and ~2/3 of the population folded by 2 µs under the paper's
// simulation protocol (see EXPERIMENTS.md for the measured values).
func DefaultParams() Params {
	return Params{
		Dimension:     3,
		Barrier:       5.0,
		Tilt:          7.6,
		Wells:         3,
		WellDepth:     1.5,
		Diffusion:     0.003,
		Dt:            0.005,
		RMSDPerRadius: 14.0,
		FoldedRMSD:    3.5,
	}
}

// Model is an immutable folding surrogate. It is safe for concurrent use;
// all mutable state lives in the caller-supplied RNG and coordinates.
type Model struct {
	p Params
	// drift (−D·dt) and noise (√(2·D·dt)) are Step's coefficients.
	drift, noise float64
}

// New validates the parameters and returns a Model.
func New(p Params) (*Model, error) {
	if p.Dimension < 2 {
		return nil, fmt.Errorf("landscape: dimension must be >= 2, got %d", p.Dimension)
	}
	if p.Barrier < 0 || p.WellDepth < 0 {
		return nil, fmt.Errorf("landscape: negative barrier or well depth")
	}
	if p.Wells < 0 {
		return nil, fmt.Errorf("landscape: negative well count")
	}
	if p.Diffusion <= 0 {
		return nil, fmt.Errorf("landscape: diffusion must be positive, got %g", p.Diffusion)
	}
	if p.Dt <= 0 {
		return nil, fmt.Errorf("landscape: timestep must be positive, got %g", p.Dt)
	}
	if p.RMSDPerRadius <= 0 || p.FoldedRMSD <= 0 {
		return nil, fmt.Errorf("landscape: RMSD mapping must be positive")
	}
	return &Model{p: p, drift: -p.Diffusion * p.Dt, noise: math.Sqrt(2 * p.Diffusion * p.Dt)}, nil
}

// Params returns the model parameters.
func (m *Model) Params() Params { return m.p }

// Dim returns the configuration-space dimension.
func (m *Model) Dim() int { return m.p.Dimension }

// Potential returns the potential energy (in kT) at x.
//
// U(x) = 16·B·r²(r−1)² + Tilt·r + WellDepth·(1−cos(Wells·θ))·g(r)
//
// where the quartic has minima at r = 0 (native) and r = 1 (unfolded) with a
// barrier of height B at r = ½, the tilt favours the native basin, and the
// angular term (θ in the x₀x₁-plane, gated by a Gaussian g centred on the
// barrier region) carves intermediate wells.
func (m *Model) Potential(x []float64) float64 {
	r := norm(x)
	u := m.radialU(r)
	if m.p.Wells > 0 {
		theta := math.Atan2(x[1], x[0])
		u += m.p.WellDepth * (1 - math.Cos(float64(m.p.Wells)*theta)) * gate(r)
	}
	return u
}

func (m *Model) radialU(r float64) float64 {
	d := r - 1
	return 16*m.p.Barrier*r*r*d*d + m.p.Tilt*r
}

// gate localises the angular wells around the transition region.
func gate(r float64) float64 {
	d := r - 0.5
	return math.Exp(-d * d / 0.045)
}

// Gradient computes ∇U at x into out (len must equal Dim). It returns out.
func (m *Model) Gradient(x, out []float64) []float64 {
	r := norm(x)
	// dU_radial/dr
	d := r - 1
	dUdr := 16*m.p.Barrier*(2*r*d*d+2*r*r*d) + m.p.Tilt

	var dUdTheta, wellR float64
	if m.p.Wells > 0 {
		theta := math.Atan2(x[1], x[0])
		k := float64(m.p.Wells)
		sin, cos := math.Sincos(k * theta)
		g := gate(r)
		dGate := g * (-2 * (r - 0.5) / 0.045) // d gate/dr
		dUdTheta = m.p.WellDepth * k * sin * g
		wellR = m.p.WellDepth * (1 - cos) * dGate
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
		// θ depends only on x₀, x₁: ∂θ/∂x₀ = −x₁/ρ², ∂θ/∂x₁ = x₀/ρ².
		rho2 := x[0]*x[0] + x[1]*x[1]
		if rho2 > 1e-12 {
			out[0] += dUdTheta * (-x[1] / rho2)
			out[1] += dUdTheta * (x[0] / rho2)
		}
	}
	return out
}

// RMSD maps a conformation to its Cα-RMSD from the native structure in Å.
func (m *Model) RMSD(x []float64) float64 { return m.p.RMSDPerRadius * norm(x) }

// Folded reports whether x is within the folded-state RMSD cutoff.
func (m *Model) Folded(x []float64) bool { return m.RMSD(x) <= m.p.FoldedRMSD }

// FoldedRadius returns the radial coordinate of the folded cutoff.
func (m *Model) FoldedRadius() float64 { return m.p.FoldedRMSD / m.p.RMSDPerRadius }

// UnfoldedStart returns the i-th canonical unfolded starting conformation,
// mirroring the paper's nine extended-chain starts: points at radius ~1
// spread deterministically over directions, with seed-controlled jitter.
func (m *Model) UnfoldedStart(i int, seed uint64) []float64 {
	r := rng.New(seed ^ (uint64(i)+1)*0x9E3779B97F4A7C15)
	x := make([]float64, m.p.Dimension)
	// Deterministic base direction from the index via a low-discrepancy
	// angle, jittered by the seed.
	theta := 2 * math.Pi * math.Mod(float64(i)*0.61803398875, 1)
	x[0] = math.Cos(theta)
	x[1] = math.Sin(theta)
	for d := 2; d < m.p.Dimension; d++ {
		x[d] = 0.3 * r.Norm()
	}
	// Jitter and renormalise to r ≈ 1.05 (slightly outside the unfolded
	// minimum so early dynamics relax inward, as extended chains do).
	for d := range x {
		x[d] += 0.05 * r.Norm()
	}
	n := norm(x)
	for d := range x {
		x[d] *= 1.05 / n
	}
	return x
}

// Step advances x in place by one Brownian step using the supplied RNG:
// x ← x − D ∇U dt + √(2 D dt) ξ  (kT = 1).
func (m *Model) Step(x []float64, grad []float64, r *rng.Source) {
	m.Gradient(x, grad)
	for i := range x {
		x[i] += m.drift*grad[i] + m.noise*r.Norm()
	}
}

// Traj is a simulated trajectory: frames of conformations at the given
// times (ns). Frames[0] is the starting conformation.
type Traj struct {
	Times  []float64
	Frames [][]float64
}

// Simulate runs Brownian dynamics from x0 for the given duration (ns),
// recording a frame every frameEvery ns (the first frame is x0 itself).
// x0 is not modified.
func (m *Model) Simulate(x0 []float64, duration, frameEvery float64, r *rng.Source) (Traj, error) {
	if len(x0) != m.p.Dimension {
		return Traj{}, fmt.Errorf("landscape: start has dimension %d, model %d", len(x0), m.p.Dimension)
	}
	if duration <= 0 || frameEvery <= 0 {
		return Traj{}, fmt.Errorf("landscape: duration and frame interval must be positive")
	}
	stepsPerFrame := int(math.Round(frameEvery / m.p.Dt))
	if stepsPerFrame < 1 {
		stepsPerFrame = 1
	}
	nFrames := int(math.Round(duration / frameEvery))
	if nFrames < 1 {
		nFrames = 1
	}

	x := append([]float64(nil), x0...)
	grad := make([]float64, len(x))
	tr := Traj{
		Times:  make([]float64, 0, nFrames+1),
		Frames: make([][]float64, 0, nFrames+1),
	}
	record := func(t float64) {
		tr.Times = append(tr.Times, t)
		tr.Frames = append(tr.Frames, append([]float64(nil), x...))
	}
	record(0)
	for f := 1; f <= nFrames; f++ {
		for s := 0; s < stepsPerFrame; s++ {
			m.Step(x, grad, r)
		}
		record(float64(f) * float64(stepsPerFrame) * m.p.Dt)
	}
	return tr, nil
}

// Last returns the final conformation of the trajectory.
func (t Traj) Last() []float64 {
	if len(t.Frames) == 0 {
		return nil
	}
	return t.Frames[len(t.Frames)-1]
}

// Duration returns the simulated time span in ns.
func (t Traj) Duration() float64 {
	if len(t.Times) == 0 {
		return 0
	}
	return t.Times[len(t.Times)-1] - t.Times[0]
}

// EquilibriumFoldedFraction estimates the Boltzmann-weight fraction of the
// folded region by radial quadrature of exp(−G(r)) with the d-dimensional
// volume element r^(d−1) (angular wells average out to a constant factor at
// this level). It is used to sanity-check calibrations, not in the pipeline.
func (m *Model) EquilibriumFoldedFraction() float64 {
	const rMax = 1.6
	const nBins = 4000
	dr := rMax / nBins
	var folded, total float64
	dim := float64(m.p.Dimension)
	rc := m.FoldedRadius()
	for i := 0; i < nBins; i++ {
		r := (float64(i) + 0.5) * dr
		w := math.Pow(r, dim-1) * math.Exp(-m.radialU(r))
		total += w
		if r <= rc {
			folded += w
		}
	}
	if total == 0 {
		return 0
	}
	return folded / total
}

func norm(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}
