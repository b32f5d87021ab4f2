// Package md implements the molecular dynamics engine that plays the role
// Gromacs plays in the paper: the compute kernel that worker clients execute.
//
// The engine integrates Newton's equations with velocity Verlet over
// Lennard-Jones, reaction-field Coulomb, harmonic bond/angle and periodic
// dihedral interactions, with a cell-list/Verlet neighbour list, a choice of
// thermostats (Berendsen, Langevin, Nosé–Hoover), deterministic seeding, and
// binary checkpointing so an interrupted command can be resumed by a
// different worker — the failure-recovery path of the paper's §2.3.
//
// Parallelism inside one simulation is the shard pool: the force loop and
// both neighbour rebuild paths, the cell grid's slabs and the small-box
// all-pairs sweep's row bands, are split across goroutines (the paper's
// thread level).
// Above it sit commands and the overlay fleet; the MPI level's Fig 6 traffic
// is a closed form in internal/experiments, and SIMD is out of scope.
//
// Units: nm, ps, u, e, kJ/mol (the Gromacs unit system).
package md

import (
	"fmt"
	"math"
	"time"

	"copernicus/internal/rng"
	"copernicus/internal/topology"
	"copernicus/internal/vec"
)

// ThermostatKind selects the temperature-coupling algorithm.
type ThermostatKind int

const (
	// NoThermostat integrates pure NVE dynamics.
	NoThermostat ThermostatKind = iota
	// Berendsen rescales velocities toward the target temperature with a
	// relaxation time TauT. Cheap and stable, wrong ensemble.
	Berendsen
	// Langevin applies friction and matched Gaussian noise after each step,
	// sampling the canonical ensemble.
	Langevin
	// NoseHoover couples a single deterministic heat-bath variable, the
	// thermostat used for the paper's villin runs (§3.1).
	NoseHoover
)

// String implements fmt.Stringer.
func (k ThermostatKind) String() string {
	switch k {
	case NoThermostat:
		return "none"
	case Berendsen:
		return "berendsen"
	case Langevin:
		return "langevin"
	case NoseHoover:
		return "nose-hoover"
	default:
		return fmt.Sprintf("thermostat(%d)", int(k))
	}
}

// Config holds simulation parameters. The zero value is not runnable; use
// DefaultConfig as a starting point.
type Config struct {
	Dt            float64        // integration timestep, ps
	Cutoff        float64        // non-bonded cutoff, nm
	Skin          float64        // Verlet-list skin added to the cutoff, nm
	NeighborEvery int            // neighbour-list rebuild ceiling, steps
	Thermostat    ThermostatKind // temperature coupling algorithm
	Temperature   float64        // target temperature, K
	TauT          float64        // Berendsen/Nosé–Hoover coupling time, ps
	Gamma         float64        // Langevin friction, 1/ps
	EpsilonRF     float64        // reaction-field dielectric; 0 disables RF correction
	Shards        int            // goroutines for the force loop and neighbour rebuild; <=1 serial
	Seed          uint64         // RNG seed for velocities and Langevin noise
	COMEvery      int            // centre-of-mass motion removal interval; 0 disables

	// FixedCadenceRebuild disables the displacement-triggered neighbour
	// rebuild criterion and rebuilds on the blind NeighborEvery cadence
	// instead (the pre-overhaul behaviour, kept for A/B drift tests). The
	// default policy rebuilds only when some atom has moved more than
	// Skin/2 since the last rebuild — the condition under which the Verlet
	// list could start missing in-cutoff pairs — with NeighborEvery as a
	// hard ceiling.
	FixedCadenceRebuild bool
}

// DefaultConfig returns the parameters used by the paper's protocol where
// applicable: 2 fs timestep, reaction field with ε=78, Nosé–Hoover at 300 K
// with τ=0.5 ps.
func DefaultConfig() Config {
	return Config{
		Dt:            0.002,
		Cutoff:        0.9,
		Skin:          0.1,
		NeighborEvery: 10,
		Thermostat:    NoseHoover,
		Temperature:   300,
		TauT:          0.5,
		Gamma:         1.0,
		EpsilonRF:     78,
		Shards:        1,
		Seed:          1,
		COMEvery:      100,
	}
}

func (c *Config) validate() error {
	if c.Dt <= 0 {
		return fmt.Errorf("md: timestep must be positive, got %g", c.Dt)
	}
	if c.Cutoff <= 0 {
		return fmt.Errorf("md: cutoff must be positive, got %g", c.Cutoff)
	}
	if c.Skin < 0 {
		return fmt.Errorf("md: skin must be non-negative, got %g", c.Skin)
	}
	if c.NeighborEvery <= 0 {
		c.NeighborEvery = 10
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Thermostat != NoThermostat && c.Temperature <= 0 {
		return fmt.Errorf("md: thermostat requires a positive temperature")
	}
	if (c.Thermostat == Berendsen || c.Thermostat == NoseHoover) && c.TauT <= 0 {
		return fmt.Errorf("md: %v thermostat requires TauT > 0", c.Thermostat)
	}
	if c.Thermostat == Langevin && c.Gamma <= 0 {
		return fmt.Errorf("md: langevin thermostat requires Gamma > 0")
	}
	return nil
}

// Energies is a breakdown of the system energy at one instant, kJ/mol.
type Energies struct {
	Kinetic  float64
	LJ       float64
	Coulomb  float64
	Bond     float64
	Angle    float64
	Dihedral float64
}

// Potential returns the total potential energy.
func (e Energies) Potential() float64 {
	return e.LJ + e.Coulomb + e.Bond + e.Angle + e.Dihedral
}

// Total returns kinetic plus potential energy.
func (e Energies) Total() float64 { return e.Kinetic + e.Potential() }

// Sim is a running molecular dynamics simulation. It is not safe for
// concurrent use; a worker owns exactly one Sim per command.
type Sim struct {
	top *topology.Topology
	cfg Config
	box vec.Box
	im  *imager // minimum image in box, for the hot loops

	pos []vec.V3
	vel []vec.V3
	frc []vec.V3

	step int64
	time float64 // ps

	nbl  *neighborList
	rand *rng.Source

	// Displacement-triggered rebuild state: positions at the last rebuild,
	// the number of steps taken since, and a lifetime rebuild count.
	nbrRef       []vec.V3
	sinceRebuild int
	rebuilds     int64

	// Throughput-metric sampling window (only advanced when EnableMetrics
	// has been called).
	winSteps    int
	winPairs    int64
	winForceSec float64
	winWall     time.Time
	winSimTime  float64

	// Nosé–Hoover heat-bath variable and its "mass".
	xiNH float64
	qNH  float64

	pot Energies // potential terms from the latest force evaluation

	shards *shardPool
}

// New creates a simulation from a validated system. Initial velocities are
// drawn from the Maxwell–Boltzmann distribution at cfg.Temperature (or left
// zero when the thermostat is disabled and Temperature is 0).
func New(sys *topology.System, cfg Config) (*Sim, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := sys.Top.NAtoms()
	if len(sys.Pos) != n {
		return nil, fmt.Errorf("md: %d positions for %d atoms", len(sys.Pos), n)
	}
	if err := checkFinite("position", sys.Pos); err != nil {
		return nil, err
	}
	for _, l := range [3]float64{sys.Box.L.X, sys.Box.L.Y, sys.Box.L.Z} {
		if l > 0 && l < 2*(cfg.Cutoff+cfg.Skin) {
			return nil, fmt.Errorf("md: box edge %.3g smaller than twice cutoff+skin %.3g",
				l, 2*(cfg.Cutoff+cfg.Skin))
		}
	}
	s := &Sim{
		top:  sys.Top,
		cfg:  cfg,
		box:  sys.Box,
		im:   newImager(sys.Box),
		pos:  make([]vec.V3, n),
		vel:  make([]vec.V3, n),
		frc:  make([]vec.V3, n),
		rand: rng.New(cfg.Seed),
	}
	for i, p := range sys.Pos {
		s.pos[i] = s.box.Wrap(p)
	}
	dof := float64(s.top.DegreesOfFreedom())
	s.qNH = dof * topology.KB * cfg.Temperature * cfg.TauT * cfg.TauT
	if cfg.Temperature > 0 {
		s.drawVelocities()
	}
	s.nbl = newNeighborList(s.box, cfg.Cutoff+cfg.Skin)
	s.shards = newShardPool(cfg.Shards, n)
	s.nbrRef = make([]vec.V3, n)
	s.rebuildNow(rebuildInitial)
	s.computeForces()
	return s, nil
}

// checkFinite returns an error naming field and the first atom of vs with a
// NaN or infinity: the pair loops' minimum image and distance test need none.
func checkFinite(field string, vs []vec.V3) error {
	for i, v := range vs {
		if !v.IsFinite() {
			return fmt.Errorf("md: %s of atom %d is not finite: %v", field, i, v)
		}
	}
	return nil
}

// Close releases the persistent force-loop workers. It is safe to call on a
// serial simulation (which never starts any) and to call more than once;
// after Close the Sim must not be stepped again.
func (s *Sim) Close() { s.shards.close() }

// drawVelocities samples Maxwell–Boltzmann velocities and removes the net
// centre-of-mass momentum.
func (s *Sim) drawVelocities() {
	for i := range s.vel {
		sd := rng.MaxwellBoltzmannSpeed(s.top.Atoms[i].Mass, s.cfg.Temperature)
		s.vel[i] = vec.New(s.rand.Norm()*sd, s.rand.Norm()*sd, s.rand.Norm()*sd)
	}
	s.removeCOM()
	// Rescale to exactly the target temperature so short runs start on
	// the right isotherm.
	t := s.temperature()
	if t > 0 {
		f := math.Sqrt(s.cfg.Temperature / t)
		for i := range s.vel {
			s.vel[i] = s.vel[i].Scale(f)
		}
	}
}

// removeCOM subtracts the mass-weighted mean velocity.
func (s *Sim) removeCOM() {
	var p vec.V3
	m := 0.0
	for i, v := range s.vel {
		mi := s.top.Atoms[i].Mass
		p = p.Add(v.Scale(mi))
		m += mi
	}
	u := p.Scale(1 / m)
	for i := range s.vel {
		s.vel[i] = s.vel[i].Sub(u)
	}
}

// kinetic returns the kinetic energy in kJ/mol.
func (s *Sim) kinetic() float64 {
	k := 0.0
	for i, v := range s.vel {
		k += 0.5 * s.top.Atoms[i].Mass * v.Norm2()
	}
	return k
}

// temperature returns the instantaneous kinetic temperature in K.
func (s *Sim) temperature() float64 {
	dof := float64(s.top.DegreesOfFreedom())
	return 2 * s.kinetic() / (dof * topology.KB)
}

// Temperature returns the instantaneous kinetic temperature in K.
func (s *Sim) Temperature() float64 { return s.temperature() }

// Energies returns the current energy breakdown.
func (s *Sim) Energies() Energies {
	e := s.pot
	e.Kinetic = s.kinetic()
	return e
}

// Step advances the simulation by n timesteps.
func (s *Sim) Step(n int) error {
	for i := 0; i < n; i++ {
		if err := s.step1(); err != nil {
			return err
		}
	}
	return nil
}

// step1 performs one velocity-Verlet step with the configured thermostat.
func (s *Sim) step1() error {
	dt := s.cfg.Dt

	if s.cfg.Thermostat == NoseHoover {
		s.noseHooverHalfKick(dt)
	}

	// Half kick + drift.
	for i := range s.pos {
		invm := 1 / s.top.Atoms[i].Mass
		s.vel[i] = s.vel[i].MulAdd(0.5*dt*invm, s.frc[i])
		s.pos[i] = s.box.Wrap(s.pos[i].MulAdd(dt, s.vel[i]))
	}

	// Refresh neighbours (displacement-triggered, ceiling-bounded) and
	// forces.
	if err := s.maybeRebuild(); err != nil {
		return err
	}
	s.computeForces()

	// Second half kick.
	for i := range s.vel {
		invm := 1 / s.top.Atoms[i].Mass
		s.vel[i] = s.vel[i].MulAdd(0.5*dt*invm, s.frc[i])
	}

	switch s.cfg.Thermostat {
	case Berendsen:
		s.berendsenScale(dt)
	case Langevin:
		s.langevinKick(dt)
	case NoseHoover:
		s.noseHooverHalfKick(dt)
	}

	if s.cfg.COMEvery > 0 && s.step%int64(s.cfg.COMEvery) == 0 {
		s.removeCOM()
	}

	s.step++
	s.time += dt

	if m := loadMDMetrics(); m != nil {
		m.steps.Inc()
		s.tickMetricsWindow(m)
	}
	return nil
}

// Rebuild trigger reasons, also the metric label values.
const (
	rebuildInitial      = "initial"
	rebuildCeiling      = "ceiling"
	rebuildDisplacement = "displacement"
)

// maybeRebuild advances the rebuild cycle counter and regenerates the
// neighbour list when either trigger fires: the hard NeighborEvery ceiling,
// or (unless FixedCadenceRebuild) some atom having moved more than Skin/2
// since the last rebuild, the point at which the Verlet list can no longer
// be trusted. Both the rebuild decision and the divergence check run on the
// same cycle counter, so a non-finite position is always caught here and can
// never be handed to the cell grid (where a NaN coordinate would index out
// of range).
func (s *Sim) maybeRebuild() error {
	s.sinceRebuild++
	reason := ""
	switch {
	case s.sinceRebuild >= s.cfg.NeighborEvery:
		reason = rebuildCeiling
	case !s.cfg.FixedCadenceRebuild:
		half := 0.5 * s.cfg.Skin
		if s.maxDisplacement2() > half*half {
			reason = rebuildDisplacement
		}
	}
	if reason == "" {
		return nil
	}
	for i := range s.pos {
		if !s.pos[i].IsFinite() || !s.vel[i].IsFinite() {
			return fmt.Errorf("md: simulation diverged at step %d (atom %d)", s.step, i)
		}
	}
	s.rebuildNow(reason)
	return nil
}

// maxDisplacement2 returns the squared maximum minimum-image displacement of
// any atom since the last neighbour rebuild.
func (s *Sim) maxDisplacement2() float64 {
	maxd := 0.0
	im := s.im
	for i, p := range s.pos {
		if d := im.minImage(p, s.nbrRef[i]).Norm2(); d > maxd {
			maxd = d
		}
	}
	return maxd
}

// rebuildNow unconditionally regenerates the neighbour list from current
// positions and resets the displacement reference.
func (s *Sim) rebuildNow(reason string) {
	if m := loadMDMetrics(); m != nil {
		switch reason {
		case rebuildCeiling:
			m.rebuildCeiling.Inc()
		case rebuildDisplacement:
			m.rebuildDisplacement.Inc()
		default:
			m.rebuildInitial.Inc()
		}
		if reason != rebuildInitial {
			m.rebuildInterval.Observe(float64(s.sinceRebuild))
		}
	}
	s.nbl.rebuildWith(s.pos, s.top, s.cfg.Shards)
	copy(s.nbrRef, s.pos)
	s.sinceRebuild = 0
	s.rebuilds++
}

// Rebuilds returns the number of neighbour-list rebuilds performed so far,
// including the initial build.
func (s *Sim) Rebuilds() int64 { return s.rebuilds }

// tickMetricsWindow recomputes the throughput gauges every metricsWindow
// steps: effective ns/day from wall time, and pair throughput from the
// force-loop seconds accumulated by computeForces.
func (s *Sim) tickMetricsWindow(m *mdMetrics) {
	s.winSteps++
	if s.winSteps < metricsWindow {
		return
	}
	now := time.Now()
	if !s.winWall.IsZero() {
		if wall := now.Sub(s.winWall).Seconds(); wall > 0 {
			simNs := (s.time - s.winSimTime) / 1000 // ps → ns
			m.nsPerDay.Set(simNs / (wall / 86400))
		}
		if s.winForceSec > 0 {
			m.pairRate.Set(float64(s.winPairs) / s.winForceSec)
		}
	}
	s.winWall = now
	s.winSimTime = s.time
	s.winSteps = 0
	s.winPairs = 0
	s.winForceSec = 0
}

// berendsenScale applies weak-coupling velocity rescaling.
func (s *Sim) berendsenScale(dt float64) {
	t := s.temperature()
	if t <= 0 {
		return
	}
	lambda := math.Sqrt(1 + dt/s.cfg.TauT*(s.cfg.Temperature/t-1))
	for i := range s.vel {
		s.vel[i] = s.vel[i].Scale(lambda)
	}
}

// langevinKick applies the Ornstein–Uhlenbeck velocity update of the BAOAB
// splitting: v <- c1 v + c2 σ ξ with c1 = exp(-γ dt).
func (s *Sim) langevinKick(dt float64) {
	c1 := math.Exp(-s.cfg.Gamma * dt)
	c2 := math.Sqrt(1 - c1*c1)
	for i := range s.vel {
		sd := rng.MaxwellBoltzmannSpeed(s.top.Atoms[i].Mass, s.cfg.Temperature)
		noise := vec.New(s.rand.Norm(), s.rand.Norm(), s.rand.Norm()).Scale(c2 * sd)
		s.vel[i] = s.vel[i].Scale(c1).Add(noise)
	}
}

// noseHooverHalfKick integrates the heat-bath variable ξ for half a step and
// scales velocities accordingly.
func (s *Sim) noseHooverHalfKick(dt float64) {
	dof := float64(s.top.DegreesOfFreedom())
	kT := topology.KB * s.cfg.Temperature
	// d(xi)/dt = (2K - dof kT) / Q
	s.xiNH += 0.5 * dt * (2*s.kinetic() - dof*kT) / s.qNH
	f := math.Exp(-0.5 * dt * s.xiNH)
	for i := range s.vel {
		s.vel[i] = s.vel[i].Scale(f)
	}
}

// StepCount returns the number of completed steps.
func (s *Sim) StepCount() int64 { return s.step }

// Time returns the simulated time in ps.
func (s *Sim) Time() float64 { return s.time }

// Positions returns a copy of the current coordinates.
func (s *Sim) Positions() []vec.V3 { return append([]vec.V3(nil), s.pos...) }

// Box returns the simulation box.
func (s *Sim) Box() vec.Box { return s.box }

// NAtoms returns the number of atoms.
func (s *Sim) NAtoms() int { return len(s.pos) }
