package core

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"copernicus/internal/chaos"
	"copernicus/internal/client"
	"copernicus/internal/controller"
	"copernicus/internal/engines"
	"copernicus/internal/obs"
	"copernicus/internal/overlay"
	"copernicus/internal/retry"
	"copernicus/internal/server"
	"copernicus/internal/store"
	"copernicus/internal/wire"
	"copernicus/internal/worker"
)

// tlsNode builds a node exactly as the binaries do (NewTLSNode), listening
// on a free localhost port when listen is set.
func tlsNode(t *testing.T, seed uint64, o *obs.Obs, listen bool) *overlay.Node {
	t.Helper()
	node, err := NewTLSNode(seed, chaos.Config{}, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	if listen {
		if err := node.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	return node
}

// exchangeKeys is the explicit key exchange operators do by hand: node and
// each of the others trust one another (and, their trust stores no longer
// empty, nobody they were not introduced to).
func exchangeKeys(node *overlay.Node, others ...*overlay.Node) {
	for _, o := range others {
		node.Trust().Add(o.Identity().Pub)
		o.Trust().Add(node.Identity().Pub)
	}
}

// runWorker attaches a worker on node to the server at addrs[0] and runs it
// until the test ends.
func runWorker(t *testing.T, node *overlay.Node, cfg worker.Config, addrs ...string) *worker.Worker {
	t.Helper()
	home, err := node.ConnectPeer(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	cfg.PollInterval = 20 * time.Millisecond
	cfg.ServerAddrs = addrs
	cfg.Obs = node.Obs
	wk, err := worker.New(node, home, engines.Default(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = wk.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	return wk
}

// TestTLSDeploymentEndToEnd runs a complete project over real TLS on
// localhost — the deployment path of cmd/cpcserver + cmd/cpcworker +
// cpcctl: the nodes come from NewTLSNode, the server is a Host, the project
// goes through a client.Client — with mutual key exchange.
func TestTLSDeploymentEndToEnd(t *testing.T) {
	o := obs.New()
	sNode := tlsNode(t, 101, o, true)
	wNode := tlsNode(t, 102, o, false)
	cNode := tlsNode(t, 103, o, false)
	// The server trusts the worker and the client; they trust the server.
	exchangeKeys(sNode, wNode, cNode)
	addr := sNode.ListenAddrs()[0]

	host, err := StartHost(sNode, HostConfig{
		Registry: controller.DefaultRegistry(),
		Server:   server.Config{HeartbeatInterval: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	runWorker(t, wNode, worker.Config{}, addr)

	if _, err := cNode.ConnectPeer(addr); err != nil {
		t.Fatal(err)
	}
	cl := client.New(cNode, client.Config{Server: sNode.ID()})
	p := controller.DefaultBARParams()
	p.Windows = 2
	p.SamplesPerCommand = 200
	p.BatchPerWindow = 1
	p.TargetStdErr = 0.5
	submitProject(t, cl, "tls-project", controller.BARControllerName, &p)
	st, err := cl.Wait(ctxTimeout(t, time.Minute), "tls-project")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "finished" {
		t.Fatalf("state = %q (%s)", st.State, st.Note)
	}
	var res controller.BARResult
	if err := wire.Unmarshal(st.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.SamplesUsed == 0 {
		t.Error("no work executed over TLS")
	}
}

// TestFailoverOverTLS is the failover the binaries ship, on the transport
// they ship it on: a primary and a standby Host on TLS nodes configured the
// way cpcserver's flags configure them, one TLS worker, one TLS client. The
// primary dies mid-project; the standby promotes, the worker re-homes, and
// the project finishes with every window's samples counted exactly once —
// none lost with the primary, none double-counted by a redelivery.
func TestFailoverOverTLS(t *testing.T) {
	o := obs.New()
	pNode := tlsNode(t, 201, o, true)
	sNode := tlsNode(t, 202, o, true)
	wNode := tlsNode(t, 203, o, false)
	cNode := tlsNode(t, 204, o, false)
	exchangeKeys(pNode, sNode, wNode, cNode)
	exchangeKeys(sNode, wNode, cNode)
	pAddr, sAddr := pNode.ListenAddrs()[0], sNode.ListenAddrs()[0]

	dir := t.TempDir()
	primary, err := StartHost(pNode, testHostConfig(filepath.Join(dir, "primary"), store.RolePrimary, pAddr, ""))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	standby, err := StartHost(sNode, testHostConfig(filepath.Join(dir, "standby"), store.RoleStandby, sAddr, pAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer standby.Close()
	// The per-attempt deadline only has to outlast an idle announce's 2 s hold; the
	// 10 s default would just make the worker slow to notice its home died.
	wk := runWorker(t, wNode, worker.Config{ResultSpoolDir: t.TempDir(), Retry: retry.Policy{PerAttempt: 3 * time.Second}}, pAddr, sAddr)
	for _, addr := range []string{pAddr, sAddr} {
		if _, err := cNode.ConnectPeer(addr); err != nil {
			t.Fatal(err)
		}
	}
	cl := client.New(cNode, client.Config{Server: pNode.ID()})

	// An unreachable target error: the project runs exactly MaxRounds rounds,
	// so the sample count below is exact. Small commands and few bootstrap
	// resamples keep a round cheap; many rounds keep the crash inside the run.
	p := controller.DefaultBARParams()
	p.Windows = 3
	p.SamplesPerCommand = 100
	p.Bootstrap = 10
	p.TargetStdErr = 1e-9
	p.MaxRounds = 16
	submitProject(t, cl, "tls-failover", controller.BARControllerName, &p)
	perRound := p.Windows * p.BatchPerWindow
	waitFor(t, time.Minute, "the first round to finish", func() bool {
		st, _ := primary.Server().Project("tls-failover")
		return st.Finished >= perRound
	})
	mirrored := primary.Store().LastSeq()
	waitFor(t, time.Minute, "the standby to mirror the first round", func() bool {
		return primary.Peer().AckedSeq() >= mirrored
	})
	if st, _ := primary.Server().Project("tls-failover"); st.State != "running" {
		t.Fatalf("project left the running state before the crash: %q (%s)", st.State, st.Note)
	}

	primary.Close()
	pNode.Close()
	waitClosed(t, standby.Peer().Promoted(), 30*time.Second, "standby promotion")

	st, err := cl.Wait(ctxTimeout(t, 2*time.Minute), "tls-failover")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "finished" {
		t.Fatalf("state = %q (%s)", st.State, st.Note)
	}
	var res controller.BARResult
	if err := wire.Unmarshal(st.Result, &res); err != nil {
		t.Fatal(err)
	}
	if want := p.MaxRounds * perRound * 2 * p.SamplesPerCommand; res.Rounds != p.MaxRounds || res.SamplesUsed != want {
		t.Errorf("finished after %d rounds with %d samples, want %d rounds with %d (each command's forward and reverse work counted once)",
			res.Rounds, res.SamplesUsed, p.MaxRounds, want)
	}
	if wk.Home() != sNode.ID() {
		t.Errorf("worker still homed on %s, want the promoted standby %s", wk.Home(), sNode.ID())
	}
	if cl.Server() != sNode.ID() {
		t.Errorf("client still submits to %s, want the promoted standby %s", cl.Server(), sNode.ID())
	}
}

// TestHighLatencyFabric injects per-write latency into the overlay — the
// paper's clusters-on-different-continents scenario — and verifies the
// project still completes correctly.
func TestHighLatencyFabric(t *testing.T) {
	p := controller.DefaultBARParams()
	p.Windows = 2
	p.SamplesPerCommand = 100
	p.BatchPerWindow = 1
	p.TargetStdErr = 0.5
	f, err := NewFabric(FabricConfig{
		Servers:          2,
		WorkersPerServer: 1,
		Latency:          2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Submit(ctxTimeout(t, 30*time.Second), "wan", controller.BARControllerName, &p); err != nil {
		t.Fatal(err)
	}
	st, err := f.Wait(ctxTimeout(t, 2*time.Minute), "wan")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "finished" {
		t.Fatalf("state = %q (%s)", st.State, st.Note)
	}
}
