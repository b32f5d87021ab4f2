package core

import (
	"context"
	"math"
	"path/filepath"
	"testing"
	"time"

	"copernicus/internal/controller"
)

// ctxTimeout returns a context cancelled after d, cleaned up with the test.
func ctxTimeout(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// smallMSMParams is a scaled-down villin protocol that completes in seconds.
func smallMSMParams() controller.MSMParams {
	p := controller.DefaultMSMParams()
	p.NStarts = 3
	p.TasksPerStart = 4
	p.SegmentNs = 20
	p.FrameNs = 2
	p.SegmentsPerGen = 18
	p.Generations = 3
	p.Clusters = 30
	p.LagNs = 6
	p.PropagateNs = 400
	return p
}

func TestFabricMSMEndToEnd(t *testing.T) {
	res, err := RunMSM(smallMSMParams(), FabricConfig{Servers: 1, WorkersPerServer: 3}, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Generations) != 3 {
		t.Fatalf("generations = %d, want 3", len(res.Generations))
	}
	for i, g := range res.Generations {
		if g.Generation != i {
			t.Errorf("generation %d labelled %d", i, g.Generation)
		}
		if g.SegmentsDone < 18 {
			t.Errorf("generation %d has %d segments, want >= 18", i, g.SegmentsDone)
		}
		if g.States < 1 {
			t.Errorf("generation %d has empty connected set", i)
		}
		if g.MinRMSD <= 0 || math.IsInf(g.MinRMSD, 1) {
			t.Errorf("generation %d min RMSD = %v", i, g.MinRMSD)
		}
	}
	// Min RMSD must be monotonically non-increasing across generations.
	for i := 1; i < len(res.Generations); i++ {
		if res.Generations[i].MinRMSD > res.Generations[i-1].MinRMSD+1e-9 {
			t.Errorf("min RMSD increased between generations %d and %d", i-1, i)
		}
	}
	if len(res.Trajs) < 36 { // 12 initial + 12 per respawn round
		t.Errorf("only %d trajectories recorded", len(res.Trajs))
	}
	if len(res.PopTimesNs) == 0 || len(res.PopFolded) != len(res.PopTimesNs) {
		t.Errorf("population curve missing: %d/%d points", len(res.PopTimesNs), len(res.PopFolded))
	}
	if len(res.RMSDTimesNs) == 0 || len(res.RMSDMean) != len(res.RMSDTimesNs) {
		t.Errorf("ensemble RMSD curve missing")
	}
}

func TestFabricMSMDistributedAcrossRelays(t *testing.T) {
	// Three-server chain; workers on relay servers must still receive
	// commands (relayed announcements) and return results to the project
	// server through the overlay.
	p := smallMSMParams()
	p.Generations = 2
	f, err := NewFabric(FabricConfig{Servers: 3, WorkersPerServer: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Submit(ctxTimeout(t, 30*time.Second), "relay-msm", controller.MSMControllerName, &p); err != nil {
		t.Fatal(err)
	}
	st, err := f.Wait(ctxTimeout(t, 2*time.Minute), "relay-msm")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "finished" {
		t.Fatalf("state = %q (%s)", st.State, st.Note)
	}
	// Workers homed at relay servers must have done real work.
	relayWork := 0
	for i, w := range f.Workers {
		if i%3 != 0 { // workers 1 and 2 are on relay servers
			relayWork += w.Completed()
		}
	}
	if relayWork == 0 {
		t.Error("relay-homed workers completed no commands; relaying is broken")
	}
}

func TestFabricBAREndToEnd(t *testing.T) {
	p := controller.DefaultBARParams()
	p.Windows = 3
	p.SamplesPerCommand = 400
	p.BatchPerWindow = 2
	p.TargetStdErr = 0.08
	p.Offset = 2.5
	res, err := RunBAR(p, FabricConfig{Servers: 1, WorkersPerServer: 2}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 3 {
		t.Fatalf("windows = %d", len(res.Windows))
	}
	if math.Abs(res.Total.DeltaF-2.5) > 5*res.Total.StdErr+0.15 {
		t.Errorf("ΔF = %v ± %v, exact 2.5", res.Total.DeltaF, res.Total.StdErr)
	}
	if res.Total.StdErr > p.TargetStdErr && res.Rounds < p.MaxRounds {
		t.Errorf("stopped with error %v above target %v at round %d",
			res.Total.StdErr, p.TargetStdErr, res.Rounds)
	}
	if res.SamplesUsed == 0 {
		t.Error("no samples recorded")
	}
}

func TestFabricStatusOverWire(t *testing.T) {
	p := smallMSMParams()
	p.Generations = 1
	f, err := NewFabric(FabricConfig{Servers: 1, WorkersPerServer: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Submit(ctxTimeout(t, 30*time.Second), "status-test", controller.MSMControllerName, &p); err != nil {
		t.Fatal(err)
	}
	st, err := f.Status(ctxTimeout(t, 10*time.Second), "status-test")
	if err != nil {
		t.Fatal(err)
	}
	if st.Name != "status-test" || st.Controller != "msm" {
		t.Errorf("status = %+v", st)
	}
	if st.State != "running" && st.State != "finished" {
		t.Errorf("state = %q", st.State)
	}
	if _, err := f.Wait(ctxTimeout(t, 2*time.Minute), "status-test"); err != nil {
		t.Fatal(err)
	}
	st, err = f.Status(ctxTimeout(t, 10*time.Second), "status-test")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "finished" || st.Result == nil {
		t.Errorf("final status = %q, result %d bytes", st.State, len(st.Result))
	}
}

func TestFabricUnknownController(t *testing.T) {
	f, err := NewFabric(FabricConfig{Servers: 1, WorkersPerServer: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Submit(ctxTimeout(t, 30*time.Second), "bad", "no-such-controller", &struct{}{}); err == nil {
		t.Error("unknown controller accepted")
	}
}

func TestFabricDuplicateProject(t *testing.T) {
	p := controller.DefaultBARParams()
	p.Windows = 1
	p.SamplesPerCommand = 10
	p.BatchPerWindow = 1
	p.MaxRounds = 1
	f, err := NewFabric(FabricConfig{Servers: 1, WorkersPerServer: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Submit(ctxTimeout(t, 30*time.Second), "dup", controller.BARControllerName, &p); err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(ctxTimeout(t, 30*time.Second), "dup", controller.BARControllerName, &p); err == nil {
		t.Error("duplicate project name accepted")
	}
}

func TestFabricSharedFS(t *testing.T) {
	dir := t.TempDir()
	p := controller.DefaultBARParams()
	p.Windows = 2
	p.SamplesPerCommand = 200
	p.BatchPerWindow = 1
	p.TargetStdErr = 0.5
	f, err := NewFabric(FabricConfig{
		Servers: 1, WorkersPerServer: 2,
		FSToken: "fs-1", SpoolDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Submit(ctxTimeout(t, 30*time.Second), "sharedfs", controller.BARControllerName, &p); err != nil {
		t.Fatal(err)
	}
	st, err := f.Wait(ctxTimeout(t, time.Minute), "sharedfs")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "finished" {
		t.Fatalf("state = %q (%s)", st.State, st.Note)
	}
	// Every result travelled by path: one spooled output per finished
	// command, none inline — a worker falls back to inline output silently.
	outs, err := filepath.Glob(filepath.Join(dir, "*.out"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Finished == 0 || len(outs) != st.Finished {
		t.Fatalf("%d outputs spooled for %d finished commands", len(outs), st.Finished)
	}
}

func TestWaitTimeout(t *testing.T) {
	f, err := NewFabric(FabricConfig{Servers: 1, WorkersPerServer: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Wait(ctxTimeout(t, 10*time.Millisecond), "nonexistent"); err == nil {
		t.Error("waiting on unknown project should fail")
	}
}
