package des

import (
	"testing"

	"copernicus/internal/queue"
	"copernicus/internal/wire"
)

// probe is a scenario that records when each of its commands starts and
// finishes; every command runs for the same time.
type probe struct {
	f      *fleet
	run    float64
	starts map[string][]float64
	ends   map[string]float64
}

func newProbe(cfg queue.Config, workers, cores int, run float64) *probe {
	p := &probe{run: run, starts: make(map[string][]float64), ends: make(map[string]float64)}
	p.f = newFleet(cfg, workers, cores, "sim", p)
	return p
}

func (p *probe) runTime(wire.CommandSpec) float64 { return p.run }
func (p *probe) started(c wire.CommandSpec)       { p.starts[c.ID] = append(p.starts[c.ID], p.f.now) }
func (p *probe) finished(c wire.CommandSpec, _ float64) {
	p.ends[c.ID] = p.f.now
}

func probeCmd(id string) wire.CommandSpec {
	return wire.CommandSpec{ID: id, Project: "p", Type: "sim", MinCores: 1, MaxCores: 1}
}

// TestFleetPushWakesParkedWorker: the idle fleet's workers are parked, so a
// command pushed at t = 10.3 s starts at 10.3 s — the queue's Ready hook
// wakes the line — not at the next re-announce (t = 12 s).
func TestFleetPushWakesParkedWorker(t *testing.T) {
	p := newProbe(queue.Config{}, 2, 1, 5)
	p.f.at(10.3, func() {
		if err := p.f.q.Push(probeCmd("c1")); err != nil {
			t.Error(err)
		}
	})
	p.f.run(60, func() bool { return false })
	if got := p.starts["c1"]; len(got) != 1 || got[0] != 10.3 {
		t.Errorf("c1 started at %v, want [10.3]", got)
	}
	if p.ends["c1"] != 15.3 || p.f.granted != 0 {
		t.Errorf("c1 ended at %v with %d cores still granted, want 15.3 and 0", p.ends["c1"], p.f.granted)
	}
}

// TestFleetHoldExpiryServesWhatTimeClears: WAL pressure sheds every match
// until t = 5 s, and its decay fires no readiness event. The command
// requeued at t = 1 s is taken by the first re-announce after that — the
// parked worker's hold runs out every 2 s, at t = 6 s.
func TestFleetHoldExpiryServesWhatTimeClears(t *testing.T) {
	var f *fleet
	p := newProbe(queue.Config{Pressure: func() float64 {
		if f.now < 5 {
			return 1
		}
		return 0
	}}, 1, 1, 5)
	f = p.f
	f.at(1, func() {
		if err := f.q.Requeue(probeCmd("c1")); err != nil {
			t.Error(err)
		}
	})
	f.run(30, func() bool { return false })
	if got := p.starts["c1"]; len(got) != 1 || got[0] != 6 {
		t.Errorf("c1 started at %v, want [6]", got)
	}
}

// TestFleetKillRequeuesBankedProgress: a worker dies 35 s into a 100 s
// command with 10 s checkpoints. The command is released and requeued at
// once, a parked worker takes it at the same instant, and it runs only the
// 70 s its last checkpoint left.
func TestFleetKillRequeuesBankedProgress(t *testing.T) {
	p := newProbe(queue.Config{}, 2, 1, 100)
	p.f.checkpoint = 10
	p.f.at(0, func() {
		if err := p.f.q.Push(probeCmd("c1")); err != nil {
			t.Error(err)
		}
	})
	p.f.at(35, func() { p.f.kill(0) })
	p.f.run(300, func() bool { return false })
	if got := p.starts["c1"]; len(got) != 2 || got[0] != 0 || got[1] != 35 {
		t.Errorf("c1 started at %v, want [0 35]", got)
	}
	if p.ends["c1"] != 105 {
		t.Errorf("c1 ended at %v, want 105", p.ends["c1"])
	}
	if p.f.kills != 1 || p.f.requeued != 1 || p.f.granted != 0 || p.f.busy != 100 {
		t.Errorf("kills=%d requeued=%d granted=%d busy=%v, want 1 1 0 100",
			p.f.kills, p.f.requeued, p.f.granted, p.f.busy)
	}
}
