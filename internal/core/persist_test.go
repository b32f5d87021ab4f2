package core

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"copernicus/internal/chaos"
	"copernicus/internal/client"
	"copernicus/internal/controller"
	"copernicus/internal/obs"
	"copernicus/internal/wire"
)

// waitForProgress polls project status until at least minFinished commands
// have completed — "mid-ensemble", the moment the crash tests pull the plug.
// A status request that fails (a chaos run can drop it) is retried until the
// deadline.
func waitForProgress(t *testing.T, f *Fabric, name string, minFinished int) wire.ProjectStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	var failures int
	var lastErr error
	defer func() {
		if failures > 0 {
			t.Logf("waitForProgress: %d status requests failed and were retried (last: %v)", failures, lastErr)
		}
	}()
	for time.Now().Before(deadline) {
		st, err := f.Status(ctxTimeout(t, 10*time.Second), name)
		if err != nil {
			failures, lastErr = failures+1, err
			time.Sleep(20 * time.Millisecond)
			continue
		}
		if st.State != "running" {
			t.Fatalf("project left running state before the crash: %q (%s)", st.State, st.Note)
		}
		if st.Finished >= minFinished {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("project never reached the crash point")
	return wire.ProjectStatus{}
}

// crashRestartMSM is the kill-and-restart harness: run a small adaptive MSM
// project, hard-kill the project server mid-ensemble, restart it from the
// state directory, and require the project to still converge — with workers
// redelivering results they spooled during the outage.
func crashRestartMSM(t *testing.T, cfg FabricConfig) {
	t.Helper()
	cfg.Servers = 1
	cfg.WorkersPerServer = 3
	cfg.StateDir = t.TempDir()
	cfg.ResultSpoolDir = t.TempDir()
	cfg.FsyncInterval = 200 * time.Microsecond
	cfg.SnapshotEvery = 48
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	f, err := NewFabric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	p := smallMSMParams()
	if err := f.Submit(ctxTimeout(t, 30*time.Second), "crash-msm", controller.MSMControllerName, &p); err != nil {
		t.Fatal(err)
	}
	waitForProgress(t, f, "crash-msm", 6)

	// Pull the plug only once the journal provably holds a record past the
	// last snapshot rotation. A snapshot's LastSeq is fixed at rotation, so
	// such a record reaches the replay tail even if a background snapshot
	// capture is racing the crash — keeping the replayed-records assertion
	// below deterministic (a crash right after a snapshot that covered the
	// whole journal would legitimately replay nothing).
	tailDeadline := time.Now().Add(10 * time.Second)
	for f.Store(0).AppendedSinceRotation() == 0 {
		if time.Now().After(tailDeadline) {
			t.Fatal("journal never accumulated a post-rotation record")
		}
		time.Sleep(2 * time.Millisecond)
	}
	f.CrashServer(0)
	// Let in-flight commands finish against a dead server so workers are
	// forced through the retry → spool path.
	time.Sleep(300 * time.Millisecond)
	if err := f.RestartServer(0); err != nil {
		t.Fatal(err)
	}

	st, err := f.Wait(ctxTimeout(t, 4*time.Minute), "crash-msm")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "finished" {
		t.Fatalf("state = %q (%s)", st.State, st.Note)
	}
	var res controller.MSMResult
	if err := wire.Unmarshal(st.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Generations) != p.Generations {
		t.Fatalf("converged with %d generations, want %d", len(res.Generations), p.Generations)
	}
	for i := 1; i < len(res.Generations); i++ {
		if res.Generations[i].MinRMSD > res.Generations[i-1].MinRMSD+1e-9 {
			t.Errorf("min RMSD increased between generations %d and %d", i-1, i)
		}
	}

	// The recovery must be visible in /metrics: the store recovered at least
	// once (the restart), replayed a non-empty tail, journaled appends, and
	// truncated the log with at least one snapshot along the way.
	ms := httptest.NewServer(f.Obs.Handler())
	defer ms.Close()
	body := httpGetBody(t, ms.URL+"/metrics")
	for _, check := range []struct {
		metric string
		min    float64
	}{
		{"copernicus_store_recoveries_total", 1},
		{"copernicus_store_replayed_records", 1},
		{"copernicus_store_wal_appends_total", 10},
		{"copernicus_store_snapshots_total", 1},
	} {
		if v := promValue(t, body, check.metric); v < check.min {
			t.Errorf("%s = %v, want >= %v", check.metric, v, check.min)
		}
	}
}

func TestFabricCrashRestartMSMConverges(t *testing.T) {
	crashRestartMSM(t, FabricConfig{})
}

// TestFabricCrashRestartWithWALFaults repeats the kill-and-restart run with
// chaos faults injected into the WAL itself: occasional append errors (the
// server logs them and keeps serving) and short writes (torn frames on
// disk). Recovery must degrade to bounded re-execution — never a lost or
// corrupted project.
func TestFabricCrashRestartWithWALFaults(t *testing.T) {
	o := obs.New()
	crashRestartMSM(t, FabricConfig{
		Obs: o,
		// skipFirst=1 shields the project-submit record: tearing it models a
		// submission the client never had acked (and would re-submit), not
		// silent state loss.
		StoreWriteHook: chaos.WALFaults(7, 1, 0.03, 0.03, o),
	})
	ms := httptest.NewServer(o.Handler())
	defer ms.Close()
	body := httpGetBody(t, ms.URL+"/metrics")
	if v := promValue(t, body, "copernicus_chaos_faults_total"); v < 1 {
		t.Errorf("no WAL faults fired (copernicus_chaos_faults_total = %v); the chaos run proved nothing", v)
	}
}

// commandCounts renders what a finished project counted, command by command:
// results and failures at the server and, from the controller's result, the
// segments and frames each MSM generation folded in or the rounds and
// samples a BAR estimate used. A result or frame counted twice, or lost,
// changes it.
func commandCounts(t *testing.T, st wire.ProjectStatus) string {
	t.Helper()
	if st.State != "finished" {
		t.Fatalf("%s: state = %q (%s)", st.Name, st.State, st.Note)
	}
	out := fmt.Sprintf("finished=%d failed=%d", st.Finished, st.Failed)
	switch st.Controller {
	case controller.MSMControllerName:
		var res controller.MSMResult
		if err := wire.Unmarshal(st.Result, &res); err != nil {
			t.Fatal(err)
		}
		for _, g := range res.Generations {
			out += fmt.Sprintf(" gen%d=%d/%d", g.Generation, g.SegmentsDone, g.FramesTotal)
		}
	case controller.BARControllerName:
		var res controller.BARResult
		if err := wire.Unmarshal(st.Result, &res); err != nil {
			t.Fatal(err)
		}
		out += fmt.Sprintf(" rounds=%d samples=%d", res.Rounds, res.SamplesUsed)
	}
	return out
}

// TestFabricTwoProjectsOfAKindCrashRestart: two MSM and two BAR projects,
// from two tenants, share one durable server across a crash and restart.
// The bundled controllers mint the same command IDs in every project of a
// kind, so this only runs because the campaign qualifies each ID with its
// project. Every project finishes, and counts exactly what it counts when it
// runs alone.
func TestFabricTwoProjectsOfAKindCrashRestart(t *testing.T) {
	msm := smallMSMParams()
	msm.Generations = 2
	bar := controller.DefaultBARParams()
	bar.Windows = 2
	bar.SamplesPerCommand = 100
	bar.BatchPerWindow = 2
	bar.TargetStdErr = 1e-9 // unreachable: every project runs MaxRounds
	bar.MaxRounds = 3
	projects := []struct {
		name, ctrl, tenant string
		params             any
	}{
		{"msm-a", controller.MSMControllerName, "alice", &msm},
		{"bar-a", controller.BARControllerName, "alice", &bar},
		{"msm-b", controller.MSMControllerName, "bob", &msm},
		{"bar-b", controller.BARControllerName, "bob", &bar},
	}

	alone := make(map[string]string)
	for _, p := range projects {
		f, err := NewFabric(FabricConfig{Servers: 1, WorkersPerServer: 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Submit(ctxTimeout(t, 30*time.Second), p.name, p.ctrl, p.params); err != nil {
			t.Fatal(err)
		}
		st, err := f.Wait(ctxTimeout(t, 2*time.Minute), p.name)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		alone[p.name] = commandCounts(t, st)
	}

	f, err := NewFabric(FabricConfig{
		Servers: 1, WorkersPerServer: 3,
		StateDir: t.TempDir(), ResultSpoolDir: t.TempDir(),
		FsyncInterval: 200 * time.Microsecond, SnapshotEvery: 48,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, p := range projects {
		if err := f.Submit(ctxTimeout(t, 30*time.Second), p.name, p.ctrl, p.params, client.WithTenant(p.tenant)); err != nil {
			t.Fatal(err)
		}
	}
	waitForProgress(t, f, "msm-b", 6)
	tailDeadline := time.Now().Add(10 * time.Second)
	for f.Store(0).AppendedSinceRotation() == 0 {
		if time.Now().After(tailDeadline) {
			t.Fatal("journal never accumulated a post-rotation record")
		}
		time.Sleep(2 * time.Millisecond)
	}
	f.CrashServer(0)
	time.Sleep(300 * time.Millisecond) // workers finish against a dead server and spool
	if err := f.RestartServer(0); err != nil {
		t.Fatal(err)
	}
	for _, p := range projects {
		st, err := f.Wait(ctxTimeout(t, 4*time.Minute), p.name)
		if err != nil {
			t.Fatal(err)
		}
		if st.Tenant != p.tenant {
			t.Errorf("%s: tenant %q, want %q", p.name, st.Tenant, p.tenant)
		}
		if got := commandCounts(t, st); got != alone[p.name] {
			t.Errorf("%s beside three other projects across a restart counted\n  %s\nalone it counts\n  %s", p.name, got, alone[p.name])
		}
	}
}
