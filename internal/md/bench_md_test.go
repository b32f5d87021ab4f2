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

// BenchmarkNonbondedKernel times the packed-pair non-bonded kernel alone: one
// pass over a prebuilt pair list into a scratch force buffer, no neighbour
// rebuilds, no integration. This is the inner loop the packed layout exists
// for.
func BenchmarkNonbondedKernel(b *testing.B) {
	sys, err := topology.LJFluid(2048, 8, 1)
	if err != nil {
		b.Fatalf("LJFluid: %v", err)
	}
	cfg := DefaultConfig()
	cfg.Thermostat = NoThermostat
	cfg.Temperature = 120
	s := benchSim(b, sys, cfg)
	pl := &s.nbl.plist
	buf := make([]vec.V3, s.NAtoms())
	b.ReportMetric(float64(pl.Len()), "pairs")
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := range buf {
			buf[i] = vec.Zero
		}
		s.nonbondedRange(pl, 0, pl.Len(), buf)
	}
}

// BenchmarkNeighborRebuild times a full cell-grid rebuild (binning, slab
// traversal, parameter packing, merge sort) at fixed positions, serial vs
// two and four slab workers.
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
