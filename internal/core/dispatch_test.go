package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"copernicus/internal/controller"
	"copernicus/internal/engines"
	"copernicus/internal/wire"
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

// heldBAR is the BAR engine with every command held for a while before it
// runs. A bare BAR command of 100 samples is some 60 µs of work: two local
// workers, each in a request/reply hand-off with the server, run a batch of
// eight inside one 10 ms scheduler time slice, on a two-CPU host often before
// the goroutines that carry the notice to the relay and its search back have
// had a turn. Held longer than a slice, the batch outlasts that hop however
// the scheduler orders things.
type heldBAR struct {
	engines.BAREngine
	hold time.Duration
}

func (e *heldBAR) Run(ctx context.Context, spec wire.CommandSpec, cores int, progress func([]byte)) ([]byte, error) {
	time.Sleep(e.hold)
	return e.BAREngine.Run(ctx, spec, cores, progress)
}

// TestIdleFleetPicksUpAtOnce: a project submitted to a fleet whose workers
// all sit parked — two of them behind a relay — has its first result back in
// a fraction of the 2 s the held announces have left to run: the push wakes
// the local workers, and the work-available notice sends the relay's search
// out again.
func TestIdleFleetPicksUpAtOnce(t *testing.T) {
	f, err := NewFabric(FabricConfig{Servers: 2, WorkersPerServer: 2,
		Engines: []engines.Engine{&heldBAR{hold: 20 * time.Millisecond}}})
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
	// A worker counts a command once its result is acknowledged, and the
	// ack of the project's last result may still be on its way back through
	// the relay: wait until every finished command is on some worker's count.
	finished := int(fabricMetric(t, f, "copernicus_commands_finished_total"))
	relayed := 0
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		total := 0
		relayed = 0
		for i, w := range f.Workers {
			total += w.Completed()
			if i%2 == 1 { // homed at server 1, the relay
				relayed += w.Completed()
			}
		}
		if total >= finished || time.Now().After(deadline) {
			break
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
