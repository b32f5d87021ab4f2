package des

import (
	"testing"
)

// TestRepexDESUniformUtilization: with uniform segment durations the
// barrier is free — both exchange patterns must keep the 64-rung ladder
// above 95% replica utilization, whether one worker could hold the whole
// ladder or, for sync, the ladder is spread over four 16-core workers.
func TestRepexDESUniformUtilization(t *testing.T) {
	for _, tc := range []struct {
		name, mode              string
		workers, coresPerWorker int
	}{
		{"sync", "sync", 2, 64},
		{"async", "async", 2, 64},
		{"sync_4x16", "sync", 4, 16},
	} {
		p := DefaultRepexDESParams()
		p.Mode = tc.mode
		p.Workers, p.CoresPerWorker = tc.workers, tc.coresPerWorker
		r, err := SimulateRepex(p)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Completed {
			t.Fatalf("%s: ladder did not complete", tc.name)
		}
		if r.SegmentsRun != p.Replicas*p.Epochs {
			t.Errorf("%s: segments = %d, want %d", tc.name, r.SegmentsRun, p.Replicas*p.Epochs)
		}
		if r.ReplicaUtilization < 0.95 {
			t.Errorf("%s: replica utilization = %.3f, want >= 0.95", tc.name, r.ReplicaUtilization)
		}
		if r.GrantImbalance != 0 || r.QueueLeft != 0 {
			t.Errorf("%s: invariants violated: %+v", tc.name, r)
		}
		if r.ExchangeAttempts == 0 || r.ExchangeAccepts == 0 {
			t.Errorf("%s: no exchanges recorded (attempts=%d accepts=%d)",
				tc.name, r.ExchangeAttempts, r.ExchangeAccepts)
		}
	}
}

// TestRepexDESAsyncBeatsSyncHeavyTailed reproduces the async-REMD claim at
// 256 replicas: under Pareto segment durations the sync barrier stalls the
// whole ladder on each epoch's slowest replica, so the asynchronous
// pattern must deliver at least twice the exchange throughput.
func TestRepexDESAsyncBeatsSyncHeavyTailed(t *testing.T) {
	base := DefaultRepexDESParams()
	base.Replicas = 256
	base.Epochs = 12
	base.Workers = 2
	base.CoresPerWorker = 256
	base.ParetoAlpha = 1.5
	base.MaxSegFactor = 20

	sync := base
	sync.Mode = "sync"
	rs, err := SimulateRepex(sync)
	if err != nil {
		t.Fatal(err)
	}
	async := base
	async.Mode = "async"
	ra, err := SimulateRepex(async)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Completed || !ra.Completed {
		t.Fatalf("ladders did not complete: sync=%v async=%v", rs.Completed, ra.Completed)
	}
	t.Logf("exchange throughput async/sync = %.2f (%.1f/h vs %.1f/h)",
		ra.ExchangesPerHour/rs.ExchangesPerHour, ra.ExchangesPerHour, rs.ExchangesPerHour)
	if ra.ExchangesPerHour < 2*rs.ExchangesPerHour {
		t.Errorf("async exchange throughput %.1f/h not >= 2x sync %.1f/h",
			ra.ExchangesPerHour, rs.ExchangesPerHour)
	}
	if rs.ReplicaUtilization >= ra.ReplicaUtilization {
		t.Errorf("sync utilization %.3f not below async %.3f under heavy tails",
			rs.ReplicaUtilization, ra.ReplicaUtilization)
	}
}

// TestRepexDESWorkerChurn drives both modes through a kill window: running
// segments are preempted at checkpoint boundaries and requeued. The ladder
// must still finish every segment with zero leaked core grants and nothing
// stranded in the queue.
func TestRepexDESWorkerChurn(t *testing.T) {
	for _, mode := range []string{"sync", "async"} {
		p := DefaultRepexDESParams()
		p.Mode = mode
		p.Workers = 3
		p.Epochs = 8
		p.ParetoAlpha = 1.8
		p.ChurnStart = 500
		p.ChurnEnd = 3000
		p.ChurnEvery = 400
		p.ReviveAfter = 150
		r, err := SimulateRepex(p)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Completed {
			t.Fatalf("%s: ladder deadlocked under churn: %+v", mode, r)
		}
		if r.WorkerKills == 0 || r.RequeuedSegments == 0 {
			t.Errorf("%s: churn window had no effect (kills=%d requeued=%d)",
				mode, r.WorkerKills, r.RequeuedSegments)
		}
		if r.GrantImbalance != 0 {
			t.Errorf("%s: %d leaked core grants", mode, r.GrantImbalance)
		}
		if r.QueueLeft != 0 {
			t.Errorf("%s: %d commands stranded in queue", mode, r.QueueLeft)
		}
		if r.SegmentsRun != p.Replicas*p.Epochs {
			t.Errorf("%s: segments = %d, want %d", mode, r.SegmentsRun, p.Replicas*p.Epochs)
		}
	}
}

// TestRepexDESValidation rejects unrunnable scenarios.
func TestRepexDESValidation(t *testing.T) {
	cases := []func(*RepexDESParams){
		func(p *RepexDESParams) { p.Replicas = 1 },
		func(p *RepexDESParams) { p.Mode = "psync" },
		func(p *RepexDESParams) { p.ParetoAlpha = 0.5 },
		func(p *RepexDESParams) { p.MeanSegSeconds = 0 },
	}
	for i, mutate := range cases {
		p := DefaultRepexDESParams()
		mutate(&p)
		if _, err := SimulateRepex(p); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

// TestRepexDESDeterminism: same params, same scorecard.
func TestRepexDESDeterminism(t *testing.T) {
	p := DefaultRepexDESParams()
	p.ParetoAlpha = 1.5
	a, err := SimulateRepex(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateRepex(p)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
}
