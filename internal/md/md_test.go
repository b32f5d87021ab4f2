package md

import (
	"math"
	"testing"

	"copernicus/internal/topology"
	"copernicus/internal/vec"
)

// smallFluid returns a small periodic LJ system for engine tests.
func smallFluid(t testing.TB, n int) *topology.System {
	t.Helper()
	sys, err := topology.LJFluid(n, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func nveConfig() Config {
	cfg := DefaultConfig()
	cfg.Thermostat = NoThermostat
	cfg.Temperature = 120 // initial velocities only
	cfg.Dt = 0.002
	cfg.Cutoff = 0.7
	cfg.Skin = 0.1
	cfg.COMEvery = 0
	return cfg
}

func TestConfigValidation(t *testing.T) {
	sys := smallFluid(t, 32)
	bad := []func(*Config){
		func(c *Config) { c.Dt = 0 },
		func(c *Config) { c.Cutoff = -1 },
		func(c *Config) { c.Skin = -0.1 },
		func(c *Config) { c.Thermostat = Berendsen; c.Temperature = 0 },
		func(c *Config) { c.Thermostat = Berendsen; c.TauT = 0 },
		func(c *Config) { c.Thermostat = NoseHoover; c.TauT = 0 },
		func(c *Config) { c.Thermostat = Langevin; c.Gamma = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := New(sys, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestBoxTooSmallRejected(t *testing.T) {
	sys, err := topology.LJFluid(8, 1000, 1) // tiny, dense box
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	if _, err := New(sys, cfg); err == nil {
		t.Error("box smaller than 2(rc+skin) should be rejected")
	}
}

func TestPositionCountMismatch(t *testing.T) {
	sys := smallFluid(t, 64)
	sys.Pos = sys.Pos[:10]
	if _, err := New(sys, DefaultConfig()); err == nil {
		t.Error("mismatched position count should be rejected")
	}
}

func TestInitialTemperature(t *testing.T) {
	sys := smallFluid(t, 125)
	cfg := nveConfig()
	s, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Temperature()-120) > 1 {
		t.Errorf("initial temperature = %v, want 120", s.Temperature())
	}
}

func TestEnergyConservationNVE(t *testing.T) {
	sys := smallFluid(t, 64)
	cfg := nveConfig()
	cfg.Dt = 0.001
	s, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Short equilibration to move off the lattice.
	if err := s.Step(100); err != nil {
		t.Fatal(err)
	}
	e0 := s.Energies().Total()
	if err := s.Step(1000); err != nil {
		t.Fatal(err)
	}
	e1 := s.Energies().Total()
	drift := math.Abs(e1-e0) / math.Abs(e0)
	if drift > 0.02 {
		t.Errorf("NVE energy drift %.3g%% over 1000 steps (E %v -> %v)", drift*100, e0, e1)
	}
}

func TestNewtonThirdLaw(t *testing.T) {
	sys := smallFluid(t, 64)
	s, err := New(sys, nveConfig())
	if err != nil {
		t.Fatal(err)
	}
	var net vec.V3
	for _, f := range s.Forces() {
		net = net.Add(f)
	}
	if net.Norm() > 1e-8 {
		t.Errorf("net force = %v, want ~0", net)
	}
}

func TestNetForceZeroWithAllTerms(t *testing.T) {
	sys, err := topology.WaterBox(64, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Cutoff = 0.45
	cfg.Skin = 0.05
	s, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var net vec.V3
	for _, f := range s.Forces() {
		net = net.Add(f)
	}
	if net.Norm() > 1e-6 {
		t.Errorf("net force with bonded terms = %v", net)
	}
}

// numericalForceCheck compares analytic forces against central differences
// of the potential energy for a handful of atoms.
func numericalForceCheck(t *testing.T, s *Sim, tol float64) {
	t.Helper()
	const h = 1e-6
	for _, idx := range []int{0, 1, s.NAtoms() / 2, s.NAtoms() - 1} {
		analytic := s.frc[idx]
		var numeric vec.V3
		for dim := 0; dim < 3; dim++ {
			orig := s.pos[idx]
			bump := func(sign float64) float64 {
				p := orig
				switch dim {
				case 0:
					p.X += sign * h
				case 1:
					p.Y += sign * h
				case 2:
					p.Z += sign * h
				}
				s.pos[idx] = p
				s.nbl.rebuild(s.pos, s.top)
				s.computeForces()
				return s.pot.LJ + s.pot.Coulomb + s.pot.Bond + s.pot.Angle + s.pot.Dihedral
			}
			ePlus := bump(1)
			eMinus := bump(-1)
			g := -(ePlus - eMinus) / (2 * h)
			switch dim {
			case 0:
				numeric.X = g
			case 1:
				numeric.Y = g
			case 2:
				numeric.Z = g
			}
			s.pos[idx] = orig
		}
		s.nbl.rebuild(s.pos, s.top)
		s.computeForces()
		scale := 1 + analytic.Norm()
		if analytic.Sub(numeric).Norm() > tol*scale {
			t.Errorf("atom %d force mismatch: analytic %v numeric %v", idx, analytic, numeric)
		}
	}
}

func TestForcesMatchNumericalGradientLJ(t *testing.T) {
	sys := smallFluid(t, 64)
	s, err := New(sys, nveConfig())
	if err != nil {
		t.Fatal(err)
	}
	numericalForceCheck(t, s, 1e-4)
}

func TestForcesMatchNumericalGradientWater(t *testing.T) {
	sys, err := topology.WaterBox(64, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Cutoff = 0.45
	cfg.Skin = 0.05
	s, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	numericalForceCheck(t, s, 1e-3)
}

func TestForcesMatchNumericalGradientDihedral(t *testing.T) {
	// A four-atom chain with a single dihedral, no periodicity.
	top := &topology.Topology{
		LJTypes: []topology.LJType{{Sigma: 0.3, Epsilon: 0}},
		Atoms: []topology.Atom{
			{Type: 0, Mass: 10}, {Type: 0, Mass: 10}, {Type: 0, Mass: 10}, {Type: 0, Mass: 10},
		},
		Bonds: []topology.Bond{
			{I: 0, J: 1, R0: 0.15, K: 1000}, {I: 1, J: 2, R0: 0.15, K: 1000}, {I: 2, J: 3, R0: 0.15, K: 1000},
		},
		Dihedrals: []topology.Dihedral{{I: 0, J: 1, K: 2, L: 3, Phi0: 0.5, KForce: 20, Mult: 3}},
	}
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
	sys := &topology.System{
		Top: top,
		Pos: []vec.V3{
			vec.New(0, 0.1, 0),
			vec.New(0.15, 0, 0),
			vec.New(0.3, 0.02, 0.01),
			vec.New(0.42, 0.1, 0.09),
		},
		Box: vec.Box{},
	}
	cfg := nveConfig()
	cfg.Temperature = 0
	s, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	numericalForceCheck(t, s, 1e-4)
}

func TestBerendsenReachesTarget(t *testing.T) {
	sys := smallFluid(t, 64)
	cfg := DefaultConfig()
	cfg.Thermostat = Berendsen
	cfg.Temperature = 120
	cfg.TauT = 0.1
	s, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb far off target, then let the thermostat pull it back.
	for i := range s.vel {
		s.vel[i] = s.vel[i].Scale(2)
	}
	if err := s.Step(2000); err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Temperature()-120) > 25 {
		t.Errorf("Berendsen temperature = %v, want ~120", s.Temperature())
	}
}

func TestLangevinSamplesTargetTemperature(t *testing.T) {
	sys := smallFluid(t, 64)
	cfg := DefaultConfig()
	cfg.Thermostat = Langevin
	cfg.Temperature = 120
	cfg.Gamma = 5
	s, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step(500); err != nil {
		t.Fatal(err)
	}
	// Average over a window.
	avg := 0.0
	const samples = 50
	for k := 0; k < samples; k++ {
		if err := s.Step(20); err != nil {
			t.Fatal(err)
		}
		avg += s.Temperature()
	}
	avg /= samples
	if math.Abs(avg-120) > 15 {
		t.Errorf("Langevin mean temperature = %v, want ~120", avg)
	}
}

func TestNoseHooverOscillatesAroundTarget(t *testing.T) {
	sys := smallFluid(t, 64)
	cfg := DefaultConfig()
	cfg.Thermostat = NoseHoover
	cfg.Temperature = 120
	cfg.TauT = 0.5
	s, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step(1000); err != nil {
		t.Fatal(err)
	}
	avg := 0.0
	const samples = 100
	for k := 0; k < samples; k++ {
		if err := s.Step(10); err != nil {
			t.Fatal(err)
		}
		avg += s.Temperature()
	}
	avg /= samples
	if math.Abs(avg-120) > 20 {
		t.Errorf("Nose-Hoover mean temperature = %v, want ~120", avg)
	}
}

func TestDeterminism(t *testing.T) {
	sys := smallFluid(t, 64)
	run := func() []vec.V3 {
		s, err := New(sys, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Step(200); err != nil {
			t.Fatal(err)
		}
		return s.Positions()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trajectories diverged at atom %d", i)
		}
	}
}

func TestShardedForcesMatchSerial(t *testing.T) {
	sys := smallFluid(t, 125)
	cfgSerial := nveConfig()
	cfgSharded := nveConfig()
	cfgSharded.Shards = 4
	s1, err := New(sys, cfgSerial)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(sys, cfgSharded)
	if err != nil {
		t.Fatal(err)
	}
	f1, f2 := s1.Forces(), s2.Forces()
	for i := range f1 {
		if f1[i].Sub(f2[i]).Norm() > 1e-9*(1+f1[i].Norm()) {
			t.Fatalf("sharded force differs at atom %d: %v vs %v", i, f1[i], f2[i])
		}
	}
	e1, e2 := s1.Energies(), s2.Energies()
	if math.Abs(e1.LJ-e2.LJ) > 1e-9*(1+math.Abs(e1.LJ)) {
		t.Errorf("sharded LJ energy %v != serial %v", e2.LJ, e1.LJ)
	}
}

func TestNeighborCellVsAllPairs(t *testing.T) {
	// Same system, forced down each neighbour path, must agree.
	sys := smallFluid(t, 216)
	s, err := New(sys, nveConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !s.nbl.periodic() || !s.nbl.gridFits() {
		t.Skip("system too small for the cell grid; nothing to compare")
	}
	cellPairs := pairSet(s.nbl.pairIJ())
	nl2 := newNeighborList(s.box, s.cfg.Cutoff+s.cfg.Skin)
	nl2.cacheAtomParams(s.top)
	nl2.rebuildAllPairs(s.Positions(), s.top)
	allPairs := pairSet(nl2.pairIJ())
	if len(cellPairs) != len(allPairs) {
		t.Fatalf("cell list found %d pairs, all-pairs %d", len(cellPairs), len(allPairs))
	}
	for p := range allPairs {
		if !cellPairs[p] {
			t.Fatalf("cell list missing pair %v", p)
		}
	}
}

func pairSet(ps []pair) map[pair]bool {
	m := make(map[pair]bool, len(ps))
	for _, p := range ps {
		m[p] = true
	}
	return m
}

func TestCheckpointRoundTrip(t *testing.T) {
	sys := smallFluid(t, 64)
	cfg := DefaultConfig()
	cfg.Temperature = 120
	s, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step(100); err != nil {
		t.Fatal(err)
	}
	ckpt, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// Continue the original.
	if err := s.Step(100); err != nil {
		t.Fatal(err)
	}
	// Resume the checkpoint on a "different worker" and run the same steps.
	s2, err := Resume(sys, cfg, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if s2.StepCount() != 100 {
		t.Fatalf("resumed at step %d, want 100", s2.StepCount())
	}
	if err := s2.Step(100); err != nil {
		t.Fatal(err)
	}
	a, b := s.Positions(), s2.Positions()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("resumed trajectory diverged at atom %d: %v vs %v", i, a[i], b[i])
		}
	}
	if s.Time() != s2.Time() {
		t.Errorf("times differ: %v vs %v", s.Time(), s2.Time())
	}
}

func TestCheckpointErrors(t *testing.T) {
	sys := smallFluid(t, 64)
	cfg := nveConfig()
	if _, err := Resume(sys, cfg, []byte("garbage")); err == nil {
		t.Error("garbage checkpoint should fail")
	}
	s, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	other := smallFluid(t, 125)
	if _, err := Resume(other, cfg, ckpt); err == nil {
		t.Error("checkpoint with mismatched atom count should fail")
	}
}

func TestThermostatString(t *testing.T) {
	names := map[ThermostatKind]string{
		NoThermostat: "none", Berendsen: "berendsen",
		Langevin: "langevin", NoseHoover: "nose-hoover",
		ThermostatKind(99): "thermostat(99)",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("String(%d) = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestPolymerInVacuoRuns(t *testing.T) {
	sys, err := topology.PolymerChain(20, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Thermostat = Langevin
	cfg.Temperature = 300
	s, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step(500); err != nil {
		t.Fatal(err)
	}
	// Bond integrity: no bond should have stretched absurdly.
	pos := s.Positions()
	for _, b := range sys.Top.Bonds {
		d := pos[b.I].Dist(pos[b.J])
		if d > 3*b.R0 {
			t.Fatalf("bond %d-%d stretched to %v nm", b.I, b.J, d)
		}
	}
}

func BenchmarkStepLJ256(b *testing.B) {
	sys, err := topology.LJFluid(256, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(sys, nveConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStepWater81(b *testing.B) {
	sys, err := topology.WaterBox(81, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Cutoff = 0.45
	cfg.Skin = 0.05
	s, err := New(sys, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(1); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPeptideNVEAndNumericalForces(t *testing.T) {
	// The peptide exercises every bonded term (bonds, angles, dihedrals)
	// plus charges in one built system; its forces must match the numerical
	// gradient and its NVE energy must be stable.
	sys, err := topology.Peptide(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := nveConfig()
	cfg.Temperature = 100
	cfg.Dt = 0.0005
	s, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	numericalForceCheck(t, s, 2e-3)
	if err := s.Step(200); err != nil {
		t.Fatal(err)
	}
	e0 := s.Energies().Total()
	if err := s.Step(2000); err != nil {
		t.Fatal(err)
	}
	drift := math.Abs(s.Energies().Total()-e0) / (math.Abs(e0) + 1)
	if drift > 0.03 {
		t.Errorf("peptide NVE drift %.3g%%", drift*100)
	}
}
