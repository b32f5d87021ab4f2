package main

import (
	"context"
	"fmt"
	"math"

	"copernicus/internal/controller"
	"copernicus/internal/core"
	"copernicus/internal/engines"
	"copernicus/internal/landscape"
	"copernicus/internal/wire"
)

// msmSetup is the frozen shape of the MSM campaign: the paper's protocol
// (starts x tasks, fixed-length segments, cluster and respawn at each
// generation barrier). A run is one campaign; its length is its number of
// generations.
type msmSetup struct {
	params controller.MSMParams
	// gensPerSecond is the nominal generation rate on the reference host; the
	// campaign has gensPerSecond x -seconds generations.
	gensPerSecond float64
}

const (
	// msmFoldedTol is how far the folded population may sit from the
	// landscape's analytic equilibrium value (0.67). The statistic is the
	// median, over the second half of the campaign's generations, of each
	// generation's stationary folded population: a single generation's value
	// is too coarse to gate on (with 80 clusters the folded basin holds one
	// or two centres, and a clustering that puts none there reports 0), and
	// the campaign is not bitwise reproducible, because result arrival order
	// varies. Measured medians: 0.49 to 0.67; a broken pipeline gives 0 or 1.
	msmFoldedTol = 0.3
	// msmFoldedMinGens is the shortest campaign the folded gate applies to:
	// the trajectories start unfolded, and the first generations have not
	// reached the native basin yet.
	msmFoldedMinGens = 20
	// msmMinStateShare is the least share of the cluster budget a healthy
	// final model keeps in its ergodic set (measured: 1).
	msmMinStateShare = 0.8
)

func newMSMSetup(stream bool) *msmSetup {
	p := controller.DefaultMSMParams() // the paper's frame and lag lengths
	p.NStarts = 4
	p.TasksPerStart = 4
	p.SegmentsPerGen = 32
	// Twice the paper's 50 ns, so that the engine and not the dispatch path
	// (which dispatch_mem already measures) carries the campaign.
	p.SegmentNs = 100
	p.Clusters = 80
	p.Stream = stream
	s := &msmSetup{params: p, gensPerSecond: 6}
	if !stream {
		// Batch analysis reclusters every frame so far: a generation's cost
		// grows through the campaign, and the same wall holds fewer of them.
		s.gensPerSecond = 5
	}
	return s
}

func runMSMBatch(h *harness) error  { return runMSM(h, newMSMSetup(false)) }
func runMSMStream(h *harness) error { return runMSM(h, newMSMSetup(true)) }

const msmProject = "msm"

// phase builds one fabric lifetime running one campaign of the given number
// of generations. The command stream is cut into rounds of one generation's
// segment budget each. result is filled in once the campaign has finished.
func (s *msmSetup) phase(h *harness, generations int, traced bool) (ph *phase, result *controller.MSMResult) {
	p := s.params
	p.Generations = generations
	p.Seed = h.seed
	rec := newRecorder(traced, int64(p.SegmentsPerGen))
	rec.keepOut = traced // the probes run on the campaign's frames
	ph = &phase{
		cfg: core.FabricConfig{
			Servers: 1, WorkersPerServer: 1, WorkerCores: 1,
			Engines: []engines.Engine{&engines.LandscapeEngine{}},
			Registry: rec.registry(map[string]controller.Factory{
				controller.MSMControllerName: func() controller.Controller { return controller.NewMSMController() },
			}),
		},
		rec:      rec,
		projects: []project{{name: msmProject, controller: controller.MSMControllerName, params: &p}},
	}
	result = new(controller.MSMResult)
	ph.inspect = func(ctx context.Context, f *core.Fabric) error {
		st, err := f.Status(ctx, msmProject)
		if err != nil {
			return err
		}
		if st.State != "finished" {
			return fmt.Errorf("campaign ended %q: %s", st.State, st.Note)
		}
		if err := wire.Unmarshal(st.Result, result); err != nil {
			return err
		}
		s.gate(h, result, generations)
		return nil
	}
	return ph, result
}

// gate checks the campaign's science against the landscape's analytic
// answer.
func (s *msmSetup) gate(h *harness, res *controller.MSMResult, generations int) {
	if len(res.Generations) != generations {
		h.problem("campaign has %d generations, want %d", len(res.Generations), generations)
		return
	}
	final := res.Generations[generations-1]
	if min := msmMinStateShare * float64(s.params.Clusters); float64(final.States) < min {
		h.problem("final model has %d ergodic states, want at least %.0f", final.States, min)
	}
	if generations < msmFoldedMinGens {
		return
	}
	if final.MinRMSD > s.params.Landscape.FoldedRMSD {
		h.problem("best RMSD to native %.2f A, the folded basin starts at %.2f A", final.MinRMSD, s.params.Landscape.FoldedRMSD)
	}
	var folded []float64
	for _, g := range res.Generations[generations/2:] {
		folded = append(folded, g.FoldedPiFrac)
	}
	model, _ := landscape.New(s.params.Landscape) // the default parameters validate
	if m, analytic := median(folded), model.EquilibriumFoldedFraction(); math.Abs(m-analytic) > msmFoldedTol {
		h.problem("median folded population %.3f over the last %d generations, analytic %.3f, tolerance %.2f",
			m, len(folded), analytic, msmFoldedTol)
	}
}

func runMSM(h *harness, s *msmSetup) error {
	// At least three rounds per phase, whatever the scale.
	generations := h.count(s.gensPerSecond, 3)
	if h.trace {
		return runMSMTraced(h, s, max(generations/2, 3))
	}
	ph, _ := s.phase(h, generations, false)
	return h.endToEnd(ph)
}

// runMSMTraced spends the budget on two half-length campaigns, wrappers off
// then on, as runLoopTraced does.
func runMSMTraced(h *harness, s *msmSetup, generations int) error {
	plain, _ := s.phase(h, generations, false)
	if err := plain.run(); err != nil {
		return err
	}
	h.gates(plain)
	traced, result := s.phase(h, generations, true)
	if err := traced.run(); err != nil {
		return err
	}
	h.gates(traced)
	if err := h.commonLayers(plain, traced); err != nil {
		return err
	}
	plain.rec.mu.Lock()
	wall := plain.rec.finishAt.Sub(plain.rec.firstSubmit)
	plain.rec.mu.Unlock()
	h.set("controller.generations_per_hour", float64(generations)/wall.Hours())
	h.set("controller.cmds_per_gen", float64(traced.rec.done.Load())/float64(generations))
	h.set("controller.sim_ns_total", result.Generations[len(result.Generations)-1].SimulatedNs)
	traced.rec.mu.Lock()
	outputs := traced.rec.outputs
	traced.rec.mu.Unlock()
	return msmLayers(h, s, outputs, s.params.Stream)
}
