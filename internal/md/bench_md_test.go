package md

import (
	"fmt"
	"testing"

	"copernicus/internal/topology"
	"copernicus/internal/vec"
)

// benchSim builds a simulation for kernel benchmarks, registering cleanup for
// the shard pool.
func benchSim(b *testing.B, sys *topology.System, cfg Config) *Sim {
	b.Helper()
	s, err := New(sys, cfg)
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	b.Cleanup(s.Close)
	return s
}

// BenchmarkNonbondedKernel times the non-bonded kernel alone: one pass over
// a prebuilt pair list into a scratch force buffer, no neighbour rebuilds,
// no integration. The ljfluid row runs a 2048-atom LJ fluid, one type and no
// charges; the water row runs md_ensemble's box (192 waters, cutoff 0.6 +
// skin 0.08), whose two LJ types and charges time the per-row type lookup
// and the Coulomb branch.
func BenchmarkNonbondedKernel(b *testing.B) {
	fluid, err := topology.LJFluid(2048, 8, 1)
	if err != nil {
		b.Fatalf("LJFluid: %v", err)
	}
	fluidCfg := DefaultConfig()
	fluidCfg.Thermostat = NoThermostat
	fluidCfg.Temperature = 120
	water, err := topology.WaterBox(192, 1)
	if err != nil {
		b.Fatalf("WaterBox: %v", err)
	}
	waterCfg := DefaultConfig()
	waterCfg.Cutoff = 0.6
	waterCfg.Skin = 0.08
	for _, bc := range []struct {
		name string
		sys  *topology.System
		cfg  Config
	}{{"ljfluid", fluid, fluidCfg}, {"water", water, waterCfg}} {
		b.Run(bc.name, func(b *testing.B) {
			s := benchSim(b, bc.sys, bc.cfg)
			np := s.nbl.plist.Len()
			buf := make([]vec.V3, s.NAtoms())
			b.ReportMetric(float64(np), "pairs")
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for i := range buf {
					buf[i] = vec.Zero
				}
				s.nonbondedRange(0, np, buf)
			}
		})
	}
}

// BenchmarkNeighborRebuild times a full neighbour-list rebuild at fixed
// positions. The cell-grid rows (binning, slab traversal, merge sort) run
// on a 2048-atom LJ fluid with serial, two and four slab workers, and the
// grid rows on 64- to 256-atom fluids in a box of 27 cells, serial and on
// two workers, either side of the fan-out threshold (2¹⁴ estimated
// candidates, about 180 atoms in 27 cells); the smallbox rows run on
// md_ensemble's box (192 waters, cutoff 0.6 + skin 0.08), whose 1.8 nm
// edge is under three listing radii, so it takes the all-pairs row-band
// sweep, serial and on two workers. The water870 rows time both paths,
// serial, on 290 waters at that radius, the smallest water box the grid
// takes: where the grid starts to pay.
func BenchmarkNeighborRebuild(b *testing.B) {
	sys, err := topology.LJFluid(2048, 8, 1)
	if err != nil {
		b.Fatalf("LJFluid: %v", err)
	}
	cfg := DefaultConfig()
	cfg.Thermostat = NoThermostat
	cfg.Temperature = 120
	s := benchSim(b, sys, cfg)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				s.nbl.rebuildWith(s.pos, s.top, workers)
			}
		})
	}
	for _, natoms := range []int{64, 128, 256} {
		// A 3.17 nm edge: 27 cells of the 1 nm listing radius at any size.
		sys, err := topology.LJFluid(natoms, float64(natoms)/32, 1)
		if err != nil {
			b.Fatalf("LJFluid: %v", err)
		}
		gs := benchSim(b, sys, cfg)
		if !gs.nbl.gridFits() {
			b.Fatalf("%d-atom box does not fit the cell grid", natoms)
		}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("grid/atoms%d/workers%d", natoms, workers), func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					gs.nbl.rebuildWith(gs.pos, gs.top, workers)
				}
			})
		}
	}

	small, err := topology.WaterBox(192, 1)
	if err != nil {
		b.Fatalf("WaterBox: %v", err)
	}
	cfg = DefaultConfig()
	cfg.Cutoff = 0.6
	cfg.Skin = 0.08
	ss := benchSim(b, small, cfg)
	if ss.nbl.gridFits() {
		b.Fatal("md_ensemble box fits the cell grid; the smallbox rows would not time the all-pairs sweep")
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("smallbox/workers%d", workers), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				ss.nbl.rebuildWith(ss.pos, ss.top, workers)
			}
		})
	}

	// The crossover: 290 waters at the same radius, a 2.06 nm edge, just
	// over three listing radii, so the box takes the 27-cell grid. The
	// sweep row runs the all-pairs sweep on the same positions.
	cross, err := topology.WaterBox(290, 1)
	if err != nil {
		b.Fatalf("WaterBox: %v", err)
	}
	cs := benchSim(b, cross, cfg)
	if !cs.nbl.gridFits() || int(cs.box.L.X/cs.nbl.rlist) != 3 {
		b.Fatal("290-water box is not a 27-cell grid; the water870 rows would not time the crossover")
	}
	b.Run("water870/grid", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			cs.nbl.rebuildWith(cs.pos, cs.top, 1)
		}
	})
	b.Run("water870/sweep", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			cs.nbl.rebuildAllPairs(cs.pos, cs.top, 1)
		}
	})
}

// BenchmarkStepVillinBox times full MD steps on a villin-scale solvated box
// (1000 flexible waters ≈ 3000 atoms, the size regime of the paper's §3.1
// system), serial vs two and four force-loop shards. The serial/shardsN
// ns-per-op ratios are the kernel-level speedups recorded in BENCH_md.json;
// shards2 is the row a 2-vCPU host can answer without oversubscribing.
func BenchmarkStepVillinBox(b *testing.B) {
	for _, bc := range []struct {
		name   string
		shards int
	}{{"serial", 1}, {"shards2", 2}, {"shards4", 4}} {
		b.Run(bc.name, func(b *testing.B) {
			sys, err := topology.WaterBox(1000, 1)
			if err != nil {
				b.Fatalf("WaterBox: %v", err)
			}
			cfg := DefaultConfig()
			cfg.Shards = bc.shards
			s := benchSim(b, sys, cfg)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if err := s.Step(1); err != nil {
					b.Fatalf("Step: %v", err)
				}
			}
		})
	}
}
