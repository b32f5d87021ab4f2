package core

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"copernicus/internal/controller"
	"copernicus/internal/store"
	"copernicus/internal/wire"
)

// runRepex runs one REMD project named name on a fresh fabric and returns its
// decoded result.
func runRepex(t *testing.T, cfg FabricConfig, name string, p controller.RepexParams) controller.RepexResult {
	t.Helper()
	f, err := NewFabric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Submit(ctxTimeout(t, 30*time.Second), name, controller.RepexControllerName, &p); err != nil {
		t.Fatal(err)
	}
	return waitRepexResult(t, f, name)
}

// waitRepexResult waits for the REMD project name to finish and decodes its
// result.
func waitRepexResult(t *testing.T, f *Fabric, name string) controller.RepexResult {
	t.Helper()
	st, err := f.Wait(ctxTimeout(t, 2*time.Minute), name)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "finished" {
		t.Fatalf("%s: state = %q (%s)", name, st.State, st.Note)
	}
	var res controller.RepexResult
	if err := wire.Unmarshal(st.Result, &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRepexSyncLadderWiderThanWorker: a sync ladder needs no worker that can
// hold every rung, because its barrier is the controller's. The default
// four-rung ladder runs on the default fabric (two one-core workers) and
// finishes with the result it has on one four-core worker.
func TestRepexSyncLadderWiderThanWorker(t *testing.T) {
	p := controller.DefaultRepexParams()
	if p.Mode != "sync" || p.Replicas <= 1 {
		t.Fatalf("default ladder is %s with %d rungs; this test wants a sync ladder wider than one core", p.Mode, p.Replicas)
	}
	narrow := runRepex(t, FabricConfig{}, "ladder", p)
	wide := runRepex(t, FabricConfig{WorkersPerServer: 1, WorkerCores: p.Replicas}, "ladder", p)
	if narrow.SegmentsRun != p.Replicas*p.Epochs {
		t.Errorf("segments = %d, want %d", narrow.SegmentsRun, p.Replicas*p.Epochs)
	}
	if !reflect.DeepEqual(narrow, wide) {
		t.Errorf("ladder on 2 x 1-core workers diverged from one %d-core worker:\nnarrow: %+v\nwide:   %+v",
			p.Replicas, narrow, wide)
	}
}

// TestFabricCrashRestartParentSyncLadder: testdata/repex_sync_gang_state is
// what a build that gang-scheduled sync epochs left behind. server-0 is the
// state directory of the three-rung ladder "sync-ladder" (smallRepexParams)
// on two 3-core workers, crashed with epochs 0 and 1 reported and all three
// epoch-2 segments running past their first checkpoint: a snapshot whose
// commands carry GangID/GangSize, then a WAL tail of the three checkpoints.
// uninterrupted_result.gob is that build's result for the same project run
// without a crash. Captured; never regenerate them. Restarted on two 1-core
// workers, where no worker could ever hold the old three-member gang, the
// ladder resumes as sync, its segments dispatch one by one, and it finishes
// with the result the old build computed.
func TestFabricCrashRestartParentSyncLadder(t *testing.T) {
	const name = "sync-ladder"
	fixture := filepath.Join("testdata", "repex_sync_gang_state")
	stateDir := t.TempDir()
	dir := filepath.Join(stateDir, "server-0")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(filepath.Join(fixture, "server-0"))
	if err != nil {
		t.Fatal(err)
	}
	for _, fe := range files {
		raw, err := os.ReadFile(filepath.Join(fixture, "server-0", fe.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fe.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(filepath.Join(fixture, "uninterrupted_result.gob"))
	if err != nil {
		t.Fatal(err)
	}
	var want controller.RepexResult
	if err := wire.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}

	// The fixture is the case this test is about: its snapshot holds the
	// running epoch as a gang.
	st, err := store.Open(store.Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := st.Recovered()
	members := 0
	if rec.Snapshot != nil {
		for _, ps := range rec.Snapshot.Projects {
			for _, cs := range ps.Commands {
				if cs.Spec.GangID != "" && cs.Spec.GangSize == want.Params.Replicas {
					members++
				}
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if members < want.Params.Replicas {
		t.Fatalf("fixture snapshot holds %d gang members, want at least %d", members, want.Params.Replicas)
	}

	f, err := NewFabric(FabricConfig{StateDir: stateDir, ResultSpoolDir: t.TempDir(),
		FsyncInterval: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got := waitRepexResult(t, f, name); !reflect.DeepEqual(got, want) {
		t.Errorf("restarted ladder finished differently from the old build's uninterrupted run:\nold build: %+v\nrestarted: %+v",
			want, got)
	}
}
