package main

import (
	"fmt"
	"math"
	"time"

	"copernicus/internal/controller"
	"copernicus/internal/core"
	"copernicus/internal/engines"
	"copernicus/internal/md"
	"copernicus/internal/wire"
)

// roundsPerRun is R of the estimator: the stream is cut into this many
// equal-count rounds, the first of which is discarded.
const roundsPerRun = 31

// loopSpec is a workload driven by the closed-loop controller.
type loopSpec struct {
	// fabric returns a fresh configuration (and state directory) per phase.
	fabric  func(tag string) (core.FabricConfig, error)
	engines []engines.Engine
	tenants int
	params  loopParams
	verify  func(payload int, output []byte) error
	// perSecond is the nominal command rate on the reference host; the
	// command count of a run is perSecond x -seconds.
	perSecond float64
	// layers adds the workload's own per-layer metrics after a traced phase.
	layers func(h *harness, ph *phase) error
	// kernelMetrics: see phase.
	kernelMetrics bool
}

// phase builds one fabric lifetime running total commands, cut into
// roundsPerRun equal-count rounds (fewer when total is small); total is
// trimmed to a whole number of them.
func (s *loopSpec) phase(h *harness, tag string, total int, traced bool) (*phase, error) {
	cfg, err := s.fabric(tag)
	if err != nil {
		return nil, err
	}
	k := total / roundsPerRun / s.tenants * s.tenants
	if k < s.tenants {
		k = s.tenants
	}
	total = k * (total / k)
	rec := newRecorder(traced, int64(k))
	cfg.Engines = s.engines
	cfg.Registry = rec.registry(map[string]controller.Factory{
		loopControllerName: func() controller.Controller {
			return &loopController{verify: s.verify, badOutput: func(id string, err error) {
				rec.mu.Lock()
				if rec.failed == 0 {
					h.problem("%s: %v", id, err)
				}
				rec.failed++
				rec.mu.Unlock()
			}}
		},
	})
	ph := &phase{cfg: cfg, rec: rec, kernelMetrics: s.kernelMetrics}
	for t := 0; t < s.tenants; t++ {
		p := s.params
		p.Total = total / s.tenants
		if p.Total < p.Outstanding {
			p.Outstanding = p.Total
		}
		ph.projects = append(ph.projects, project{
			name:       fmt.Sprintf("loop%d", t),
			tenant:     fmt.Sprintf("tenant%d", t),
			controller: loopControllerName,
			params:     &p,
		})
	}
	return ph, nil
}

func runLoop(h *harness, s *loopSpec) error {
	// At least three rounds per phase, whatever the scale.
	total := h.count(s.perSecond, 3*s.tenants)
	if h.trace {
		return runLoopTraced(h, s, max(total, 6*s.tenants))
	}
	ph, err := s.phase(h, "run", total, false)
	if err != nil {
		return err
	}
	return h.endToEnd(ph)
}

// runLoopTraced spends the same budget on two half-length phases, one
// without and one with the benchmark's wrappers recording, so that the
// cost of recording is itself a number.
func runLoopTraced(h *harness, s *loopSpec, total int) error {
	plain, err := s.phase(h, "plain", total/2, false)
	if err != nil {
		return err
	}
	if err := plain.run(); err != nil {
		return err
	}
	h.gates(plain)
	traced, err := s.phase(h, "traced", total/2, true)
	if err != nil {
		return err
	}
	if err := traced.run(); err != nil {
		return err
	}
	h.gates(traced)
	if err := h.commonLayers(plain, traced); err != nil {
		return err
	}
	if s.layers != nil {
		return s.layers(h, traced)
	}
	return nil
}

// --- dispatch_mem / dispatch_wal ---

func dispatchSpec(h *harness, durable bool) *loopSpec {
	payloads, verify := spinInputs(h.seed)
	s := &loopSpec{
		engines: []engines.Engine{spinEngine{}},
		tenants: 2,
		params: loopParams{
			Outstanding: 16,
			Type:        spinEngineName,
			MinCores:    1,
			MaxCores:    1,
			Payloads:    payloads,
		},
		verify:    verify,
		perSecond: 1500,
	}
	s.fabric = func(tag string) (core.FabricConfig, error) {
		cfg := core.FabricConfig{Servers: 1, WorkersPerServer: 2, WorkerCores: 2}
		if durable {
			dir, err := h.stateDir(tag)
			if err != nil {
				return cfg, err
			}
			// cpcserver's defaults.
			cfg.StateDir = dir
			cfg.FsyncInterval = 2 * time.Millisecond
			cfg.SnapshotEvery = 512
		}
		return cfg, nil
	}
	if durable {
		s.perSecond = 185
		s.layers = storeLayers
	}
	return s
}

func runDispatchMem(h *harness) error { return runLoop(h, dispatchSpec(h, false)) }
func runDispatchWAL(h *harness) error { return runLoop(h, dispatchSpec(h, true)) }

// --- md_ensemble ---

const (
	mdMolecules = 192
	mdBuildSeed = 1
	mdSteps     = 60
	// mdEnergyTol is the relative agreement demanded between a command's
	// final energies and the reference run's.
	mdEnergyTol = 1e-9
)

func mdPayload(seed uint64) engines.MDPayload {
	// BenchmarkMDEngineThroughput's system and parameters (the paper's
	// protocol: 2 fs, reaction field, Nosé–Hoover at 300 K).
	cfg := md.DefaultConfig()
	cfg.Cutoff = 0.6
	cfg.Skin = 0.08
	cfg.Shards = 0 // the engine sizes the shard pool to the core grant
	cfg.Seed = seed
	return engines.MDPayload{
		SystemKind: "water",
		SystemN:    mdMolecules,
		// One box for every seed: boxes built from different seeds cost up to
		// 12 % more or less per step (measured, repeatably), which would make
		// the seed, not the code, the largest term in the run-to-run spread.
		// The seed draws the velocities.
		BuildSeed: mdBuildSeed,
		Config:    cfg,
		Steps:     mdSteps,
	}
}

// mdReference runs one command's trajectory directly on the md package,
// with the shard count the worker's grant gives the engine. Every command
// starts from the same system, and the kernel is deterministic for a fixed
// shard count, so each result must reproduce these energies.
func mdReference(pl engines.MDPayload) (md.Energies, error) {
	sys, err := pl.BuildSystem()
	if err != nil {
		return md.Energies{}, err
	}
	cfg := pl.Config
	cfg.Shards = benchProcs
	sim, err := md.New(sys, cfg)
	if err != nil {
		return md.Energies{}, err
	}
	defer sim.Close()
	if err := sim.Step(pl.Steps); err != nil {
		return md.Energies{}, err
	}
	return sim.Energies(), nil
}

func runMDEnsemble(h *harness) error {
	pl := mdPayload(h.seed)
	blob, err := wire.Marshal(&pl)
	if err != nil {
		return err
	}
	want, err := mdReference(pl)
	if err != nil {
		return err
	}
	s := &loopSpec{
		engines: []engines.Engine{&engines.MDEngine{}},
		tenants: 1,
		params: loopParams{
			Outstanding: 2,
			Type:        engines.MDName,
			MinCores:    benchProcs,
			MaxCores:    benchProcs,
			Payloads:    [][]byte{blob},
		},
		verify: func(_ int, output []byte) error {
			var out engines.MDOutput
			if err := wire.Unmarshal(output, &out); err != nil {
				return err
			}
			got := out.Final.Total()
			if math.IsNaN(got) || math.IsInf(got, 0) {
				return fmt.Errorf("final energy %g", got)
			}
			if out.Steps != mdSteps {
				return fmt.Errorf("ran %d steps, want %d", out.Steps, mdSteps)
			}
			if math.Abs(got-want.Total()) > mdEnergyTol*math.Abs(want.Total()) ||
				math.Abs(out.Final.Kinetic-want.Kinetic) > mdEnergyTol*math.Abs(want.Kinetic) {
				return fmt.Errorf("final energy %.10g (kinetic %.10g), reference run gives %.10g (%.10g)",
					got, out.Final.Kinetic, want.Total(), want.Kinetic)
			}
			return nil
		},
		perSecond: 5.2,
		fabric: func(string) (core.FabricConfig, error) {
			return core.FabricConfig{Servers: 1, WorkersPerServer: 1, WorkerCores: benchProcs}, nil
		},
		layers:        mdLayers,
		kernelMetrics: true,
	}
	return runLoop(h, s)
}
