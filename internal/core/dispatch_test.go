package core

import (
	"runtime"
	"testing"
	"time"

	"copernicus/internal/controller"
)

// waitParked waits until n idle workers have their announces held at the
// fabric's servers.
func waitParked(t *testing.T, f *Fabric, n float64) {
	t.Helper()
	if !waitMetric(t, f, "copernicus_server_parked_announces", n, 5*time.Second) {
		t.Fatalf("%g announces parked, want %g",
			fabricMetric(t, f, "copernicus_server_parked_announces"), n)
	}
}

// TestIdleFleetPicksUpAtOnce: a project submitted to a fleet whose workers
// all sit parked — two of them behind a relay — has its first result back in
// a fraction of the 2 s the held announces have left to run: the push wakes
// the local workers, and the work-available notice sends the relay's search
// out again.
func TestIdleFleetPicksUpAtOnce(t *testing.T) {
	f, err := NewFabric(FabricConfig{Servers: 2, WorkersPerServer: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitParked(t, f, 4)

	p := controller.DefaultBARParams()
	p.Windows = 4
	p.SamplesPerCommand = 100
	p.BatchPerWindow = 2
	p.TargetStdErr = 0.5
	submitted := time.Now()
	if err := f.Submit(ctxTimeout(t, 10*time.Second), "idle", controller.BARControllerName, &p); err != nil {
		t.Fatal(err)
	}
	if !waitMetric(t, f, "copernicus_commands_finished_total", 1, time.Second) {
		t.Fatalf("no result %v after a submit to an idle fleet", time.Since(submitted))
	}
	t.Logf("first result %v after submit", time.Since(submitted))
	if _, err := f.Wait(ctxTimeout(t, time.Minute), "idle"); err != nil {
		t.Fatal(err)
	}
	relayed := 0
	for i, w := range f.Workers {
		if i%2 == 1 { // homed at server 1, the relay
			relayed += w.Completed()
		}
	}
	if relayed == 0 {
		t.Error("the relay's parked workers got none of the work")
	}
}

// TestFabricCloseWithIdleWorkers: tearing down a fabric whose workers are
// all parked does not wait out their holds, and leaves no goroutine behind.
func TestFabricCloseWithIdleWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	f, err := NewFabric(FabricConfig{Servers: 2, WorkersPerServer: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitParked(t, f, 4)
	start := time.Now()
	f.Close()
	if d := time.Since(start); d > 250*time.Millisecond {
		t.Errorf("Close took %v with idle workers", d)
	}
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before the fabric, %d after Close:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
