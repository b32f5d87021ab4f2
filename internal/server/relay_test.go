package server

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"copernicus/internal/controller"
	"copernicus/internal/engines"
	"copernicus/internal/obs"
	"copernicus/internal/overlay"
	"copernicus/internal/wire"
	"copernicus/internal/worker"
)

// relayPair is a two-server fabric: the origin holds the projects, and the
// relay, linked to it, is the home of every worker. Workers reach the
// origin's commands only by the relay's overlay searches.
type relayPair struct {
	net           *overlay.MemNetwork
	origin, relay *Server
	originObs     *obs.Obs
}

func newRelayPair(t *testing.T, cfg Config, ctrl controller.Controller) *relayPair {
	t.Helper()
	rp := &relayPair{net: overlay.NewMemNetwork(), originObs: obs.New()}
	serve := func(seed uint64, addr string, o *obs.Obs) *Server {
		node := overlay.NewNode(overlay.NewIdentityFromSeed(seed), overlay.NewTrustStore(), rp.net.Transport())
		if err := node.Listen(addr); err != nil {
			t.Fatal(err)
		}
		reg := controller.NewRegistry()
		reg.Register("test", func() controller.Controller { return ctrl })
		cfg.Obs = o
		srv := New(node, reg, cfg)
		t.Cleanup(func() {
			srv.Close()
			node.Close()
		})
		return srv
	}
	rp.origin = serve(1, "origin", rp.originObs)
	rp.relay = serve(2, "relay", obs.New())
	if _, err := rp.relay.Node().ConnectPeer("origin"); err != nil {
		t.Fatal(err)
	}
	return rp
}

// submit starts a project at the origin.
func (rp *relayPair) submit(t *testing.T, name string) {
	t.Helper()
	if _, err := rp.origin.core.Submit(&wire.ProjectSubmit{Name: name, Controller: "test"}); err != nil {
		t.Fatal(err)
	}
}

// startWorker runs a worker of the given cores and engines, linked to and
// homed at the relay, until the test ends.
func (rp *relayPair) startWorker(t *testing.T, seed uint64, cores int, engs ...engines.Engine) {
	t.Helper()
	node := overlay.NewNode(overlay.NewIdentityFromSeed(seed), overlay.NewTrustStore(), rp.net.Transport())
	if _, err := node.ConnectPeer("relay"); err != nil {
		t.Fatal(err)
	}
	wk, err := worker.New(node, rp.relay.Node().ID(), engs, worker.Config{Cores: cores, PollInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		_ = wk.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-stopped
		node.Close()
	})
}

// relayEngine runs a command at once or, blocking, until it is aborted.
type relayEngine struct {
	name    string
	block   bool
	aborted atomic.Int32
}

func (e *relayEngine) Name() string { return e.name }

func (e *relayEngine) Run(ctx context.Context, spec wire.CommandSpec, _ int, _ func([]byte)) ([]byte, error) {
	if e.block {
		<-ctx.Done()
		e.aborted.Add(1)
		return nil, ctx.Err()
	}
	return []byte("out-" + spec.ID), nil
}

// TestLostRelayedReplyProjectFinishes: the origin matches the relay's search
// for a worker and journals the assignment, and its workload reply is lost:
// it is held until the search has given up. The worker's next announce,
// relayed to the origin, is offered the command again from the worker's
// record there, so the project finishes. With no record of
// a worker it reached by relay, the origin would leave the command running
// on nobody, and the project would never finish.
func TestLostRelayedReplyProjectFinishes(t *testing.T) {
	const hold = 100 * time.Millisecond
	ctrl := &testController{submit: []wire.CommandSpec{cmdSpec("c1")}, finishOn: 1}
	// Heartbeats an hour apart: the announce alone recovers the command.
	rp := newRelayPair(t, Config{HeartbeatInterval: time.Hour, RelayTimeout: hold}, ctrl)
	var dropped atomic.Bool
	rp.origin.Node().Handle(wire.MsgAnnounce, func(from string, payload []byte) ([]byte, error) {
		reply, err := rp.origin.handleAnnounce(from, payload)
		if err == nil && !dropped.Swap(true) {
			time.Sleep(5 * hold) // past the search's deadline: the relay drops this reply
		}
		return reply, err
	})
	rp.submit(t, "proj")
	rp.startWorker(t, 10, 1, &relayEngine{name: "sim"})

	st, err := rp.origin.WaitProject(ctxTimeout(t, 10*time.Second), "proj")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "finished" || st.Finished != 1 {
		t.Errorf("status = %+v, want finished with c1 done", st)
	}
	if !dropped.Load() {
		t.Fatal("no workload reply was dropped: the test proved nothing")
	}
	if got := metricValue(t, rp.originObs, "copernicus_commands_orphaned_total"); got != 1 {
		t.Errorf("origin copernicus_commands_orphaned_total = %g, want 1", got)
	}
}

// probeTerminates terminates c1 when the probe's result arrives.
type probeTerminates struct{ testController }

func (c *probeTerminates) CommandFinished(ctx controller.Context, res *wire.CommandResult) error {
	if res.CommandID == "probe" {
		ctx.Terminate("c1")
	}
	return c.testController.CommandFinished(ctx, res)
}

// TestRelayedCommandAbortedAtOrigin: a worker homed at the relay runs c1 and
// a probe for a project at the origin, and the probe's result makes the
// controller terminate c1. The worker heartbeats the origin, which holds c1,
// so an ack aborts the run; a heartbeat to its home alone reaches a server
// that cannot know c1 was settled.
func TestRelayedCommandAbortedAtOrigin(t *testing.T) {
	ctrl := &probeTerminates{testController{submit: []wire.CommandSpec{cmdSpec("c1"), typedCmd("probe", "probe")}}}
	rp := newRelayPair(t, Config{HeartbeatInterval: 100 * time.Millisecond, RelayTimeout: time.Second}, ctrl)
	rp.submit(t, "proj")
	run := &relayEngine{name: "sim", block: true}
	rp.startWorker(t, 10, 2, run, &relayEngine{name: "probe"})

	deadline := time.Now().Add(10 * time.Second)
	for run.aborted.Load() == 0 {
		if time.Now().After(deadline) {
			fin, _ := ctrl.counts()
			t.Fatalf("c1 was never aborted on its worker (%d results at the origin)", fin)
		}
		time.Sleep(10 * time.Millisecond)
	}
	rp.origin.core.withProjectCommand("proj", "c1", func(_ *project, cs *cmdState) {
		if cs.status != cmdTerminated {
			t.Errorf("c1 has status %d, want terminated", cs.status)
		}
	})
}
