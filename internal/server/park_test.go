package server

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"copernicus/internal/controller"
	"copernicus/internal/obs"
	"copernicus/internal/overlay"
	"copernicus/internal/wire"
)

// pushController submits params[0] one-core "sim" commands named after its
// project, so every project of a test pushes fresh command IDs.
type pushController struct{}

func (pushController) Name() string { return "push" }

func (pushController) Start(ctx controller.Context, params []byte) error {
	for i := 0; i < int(params[0]); i++ {
		if err := ctx.Submit(cmdSpec(fmt.Sprintf("%s-c%d", ctx.ProjectName(), i))); err != nil {
			return err
		}
	}
	return nil
}

func (pushController) CommandFinished(controller.Context, *wire.CommandResult) error { return nil }

func (pushController) CommandFailed(controller.Context, wire.CommandSpec, string) error { return nil }

// parkNode starts a server with the push controller on its own node of net.
func parkNode(t *testing.T, net *overlay.MemNetwork, seed uint64, addr string, cfg Config) *Server {
	t.Helper()
	return parkNodeBudget(t, net, seed, addr, cfg, maxRetries)
}

// parkNodeBudget is parkNode whose server spends a retry budget of retries.
func parkNodeBudget(t *testing.T, net *overlay.MemNetwork, seed uint64, addr string, cfg Config, retries int) *Server {
	t.Helper()
	node := overlay.NewNode(overlay.NewIdentityFromSeed(seed), overlay.NewTrustStore(), net.Transport())
	if err := node.Listen(addr); err != nil {
		t.Fatal(err)
	}
	reg := controller.NewRegistry()
	reg.Register("push", func() controller.Controller { return pushController{} })
	srv := newServer(node, reg, cfg)
	srv.core.env.retries = retries
	srv.start()
	t.Cleanup(func() {
		srv.Close()
		node.Close()
	})
	return srv
}

// parkClient is a raw overlay node speaking the protocol to srv by hand.
type parkClient struct {
	node *overlay.Node
	srv  *Server
}

func newParkClient(t *testing.T, net *overlay.MemNetwork, seed uint64, addr string, srv *Server) *parkClient {
	t.Helper()
	node := overlay.NewNode(overlay.NewIdentityFromSeed(seed), overlay.NewTrustStore(), net.Transport())
	if _, err := node.ConnectPeer(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	return &parkClient{node: node, srv: srv}
}

func (c *parkClient) request(typ wire.MsgType, req any, resp any) error {
	payload, err := wire.Marshal(req)
	if err != nil {
		return err
	}
	reply, err := c.node.RequestTimeout(c.srv.Node().ID(), typ, payload, 10*time.Second)
	if err != nil {
		return err
	}
	if resp != nil {
		return wire.Unmarshal(reply, resp)
	}
	return nil
}

// push submits a project of n commands.
func (c *parkClient) push(t *testing.T, name string, n int) {
	t.Helper()
	err := c.request(wire.MsgSubmit, &wire.ProjectSubmit{Name: name, Controller: "push", Params: []byte{byte(n)}}, nil)
	if err != nil {
		t.Errorf("submit %s: %v", name, err)
	}
}

// announce sends a direct announce stating budget and returns the workload.
func (c *parkClient) announce(worker, exec string, budget time.Duration) (wire.Workload, error) {
	req := announce(worker, 1)
	req.Info.Executables = []string{exec}
	req.WaitSeconds = budget.Seconds()
	var wl wire.Workload
	err := c.request(wire.MsgAnnounce, req, &wl)
	return wl, err
}

// finish reports every command of wl as completed by worker.
func (c *parkClient) finish(t *testing.T, worker string, wl wire.Workload) {
	t.Helper()
	for _, cmd := range wl.Commands {
		res := wire.CommandResult{CommandID: cmd.ID, Project: cmd.Project, WorkerID: worker, OK: true}
		if err := c.request(wire.MsgResult, &res, nil); err != nil {
			t.Errorf("result %s: %v", cmd.ID, err)
		}
	}
}

func waitParked(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.core.park.mu.Lock()
		got := s.core.park.line.Len()
		s.core.park.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d announces parked, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestParkedAnnounceWokenByPush: an idle worker's announce is held, and a
// command pushed while it is held reaches the worker at once — not at the
// end of the hold, and not at the worker's next poll.
func TestParkedAnnounceWokenByPush(t *testing.T) {
	o := obs.New()
	net := overlay.NewMemNetwork()
	srv := parkNode(t, net, 1, "srv", Config{Obs: o, HeartbeatInterval: time.Hour, RelayTimeout: 30 * time.Second})
	c := newParkClient(t, net, 2, "srv", srv)

	type answer struct {
		wl  wire.Workload
		err error
		at  time.Time
	}
	got := make(chan answer, 1)
	go func() {
		wl, err := c.announce("w1", "sim", 20*time.Second)
		got <- answer{wl, err, time.Now()}
	}()
	waitParked(t, srv, 1)
	if v := metricValue(t, o, "copernicus_server_parked_announces"); v != 1 {
		t.Errorf("copernicus_server_parked_announces = %g with one announce held", v)
	}
	pushed := time.Now()
	c.push(t, "p", 1)
	a := <-got
	if a.err != nil || len(a.wl.Commands) != 1 || a.wl.Commands[0].ID != "p-c0" {
		t.Fatalf("woken announce got %+v err=%v", a.wl.Commands, a.err)
	}
	if d := a.at.Sub(pushed); d > time.Second {
		t.Errorf("pushed command reached the parked worker after %v", d)
	}
	if st, _ := srv.Project("p"); st.Running != 1 {
		t.Errorf("status after wake = %+v, want running=1", st)
	}
	if v := metricValue(t, o, `copernicus_server_announce_hold_seconds_count{node="`+srv.Node().ID()+`",outcome="local"}`); v != 1 {
		t.Errorf("hold histogram counted %g local outcomes, want 1", v)
	}
	if v := metricValue(t, o, "copernicus_server_parked_announces"); v != 0 {
		t.Errorf("copernicus_server_parked_announces = %g after the wake", v)
	}
}

// TestParkedAnnounceExpiresAndSupersedes covers the two empty endings: the
// hold running out, and the same worker announcing again.
func TestParkedAnnounceExpiresAndSupersedes(t *testing.T) {
	o := obs.New()
	net := overlay.NewMemNetwork()
	srv := parkNode(t, net, 1, "srv", Config{Obs: o, HeartbeatInterval: time.Hour, RelayTimeout: 30 * time.Second})
	c := newParkClient(t, net, 2, "srv", srv)

	start := time.Now()
	wl, err := c.announce("w1", "sim", 50*time.Millisecond)
	if err != nil || len(wl.Commands) != 0 {
		t.Fatalf("expired announce got %+v err=%v", wl.Commands, err)
	}
	if d := time.Since(start); d < 50*time.Millisecond || d > 2*time.Second {
		t.Errorf("announce with a 50 ms budget held for %v", d)
	}

	first := make(chan wire.Workload, 1)
	go func() {
		wl, _ := c.announce("w1", "sim", 20*time.Second)
		first <- wl
	}()
	waitParked(t, srv, 1)
	second := make(chan wire.Workload, 1)
	go func() {
		wl, _ := c.announce("w1", "sim", 20*time.Second)
		second <- wl
	}()
	select {
	case wl := <-first:
		if len(wl.Commands) != 0 {
			t.Errorf("superseded announce was matched: %+v", wl.Commands)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("older announce of the same worker was not answered when the newer arrived")
	}
	waitParked(t, srv, 1)
	c.push(t, "p", 1)
	if wl := <-second; len(wl.Commands) != 1 {
		t.Errorf("the newer announce got %+v, want the pushed command", wl.Commands)
	}
	for outcome, want := range map[string]float64{"expired": 1, "superseded": 1, "local": 1} {
		name := `copernicus_server_announce_hold_seconds_count{node="` + srv.Node().ID() + `",outcome="` + outcome + `"}`
		if v := metricValue(t, o, name); v != want {
			t.Errorf("hold histogram counted %g %s outcomes, want %g", v, outcome, want)
		}
	}
}

// TestWakeCostsOnePerPush: k pushes into a line of parked workers cost k
// matches plus one for each waiter that cannot use the work (those move to
// the back of the line once), not one match per parked worker per push.
func TestWakeCostsOnePerPush(t *testing.T) {
	o := obs.New()
	net := overlay.NewMemNetwork()
	srv := parkNode(t, net, 1, "srv", Config{Obs: o, HeartbeatInterval: time.Hour, RelayTimeout: 30 * time.Second})
	c := newParkClient(t, net, 2, "srv", srv)

	const incompatible, compatible, pushes = 3, 10, 4
	var served atomic.Int32
	var wg sync.WaitGroup
	park := func(worker, exec string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wl, err := c.announce(worker, exec, 20*time.Second)
			if err != nil {
				t.Errorf("%s: %v", worker, err)
			}
			served.Add(int32(len(wl.Commands)))
		}()
	}
	// The workers that cannot run "sim" are first in line.
	for i := 0; i < incompatible; i++ {
		park(fmt.Sprintf("other%d", i), "other")
		waitParked(t, srv, i+1)
	}
	for i := 0; i < compatible; i++ {
		park(fmt.Sprintf("w%d", i), "sim")
		waitParked(t, srv, incompatible+i+1)
	}
	before := metricValue(t, o, "copernicus_queue_match_seconds_count")
	for i := 0; i < pushes; i++ {
		c.push(t, fmt.Sprintf("p%d", i), 1)
		waitParked(t, srv, incompatible+compatible-i-1)
	}
	if got := metricValue(t, o, "copernicus_queue_match_seconds_count") - before; got > pushes+incompatible {
		t.Errorf("%d pushes into %d parked workers cost %g matches, want at most %d",
			pushes, incompatible+compatible, got, pushes+incompatible)
	}
	srv.Close() // releases the rest
	wg.Wait()
	if served.Load() != pushes {
		t.Errorf("%d commands served, want %d", served.Load(), pushes)
	}
}

// TestParkedAnnounceExactlyOneOutcome drives a server with hand-made
// workers under random interleavings of push, hold expiry, supersede and
// Close, twice. The first run lets everything finish: no command may be
// lost, whatever the interleaving. The second closes the server in
// mid-flight with workers parked: Close returns at once, every open announce
// is answered, and every command the server believes running either left in
// a reply or sits on its worker's liveness record, where the orphan path
// finds it. A waiter answered twice would close its channel twice and panic.
func TestParkedAnnounceExactlyOneOutcome(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	for _, closeEarly := range []bool{false, true} {
		closeEarly := closeEarly
		t.Run(fmt.Sprintf("closeEarly=%v", closeEarly), func(t *testing.T) {
			parkInterleavings(t, seed, closeEarly)
		})
	}
}

func parkInterleavings(t *testing.T, seed int64, closeEarly bool) {
	const workers, projects = 16, 40
	o := obs.New()
	net := overlay.NewMemNetwork()
	srv := parkNodeBudget(t, net, 1, "srv", Config{Obs: o, HeartbeatInterval: time.Hour,
		RelayTimeout: 150 * time.Millisecond}, 1<<20)
	c := newParkClient(t, net, 2, "srv", srv)

	var mu sync.Mutex
	left := make(map[string]int) // command ID → replies it left the server in
	total := 0
	record := func(wl wire.Workload) {
		mu.Lock()
		for _, cmd := range wl.Commands {
			left[cmd.ID]++
		}
		mu.Unlock()
	}
	var done atomic.Int32
	stop := make(chan struct{})
	var fleet sync.WaitGroup
	for i := 0; i < workers; i++ {
		fleet.Add(1)
		go func(i int) {
			defer fleet.Done()
			rng := rand.New(rand.NewSource(seed + int64(i)))
			id := fmt.Sprintf("w%d", i)
			for {
				select {
				case <-stop:
					return
				default:
				}
				budget := time.Duration(20+rng.Intn(200)) * time.Millisecond // some outlast the server's hold
				answer := make(chan wire.Workload, 1)
				fleet.Add(1)
				go func() {
					defer fleet.Done()
					wl, err := c.announce(id, "sim", budget)
					if err != nil {
						t.Errorf("%s announce: %v", id, err)
					}
					record(wl)
					answer <- wl
				}()
				if rng.Intn(4) == 0 {
					// An impatient worker: it gives up on the announce and
					// sends another; whatever the first is answered with is
					// dropped on the floor, as a timed-out request's reply is.
					select {
					case wl := <-answer:
						c.finish(t, id, wl)
						done.Add(int32(len(wl.Commands)))
					case <-time.After(time.Duration(rng.Intn(int(budget)))):
					}
					continue
				}
				wl := <-answer
				c.finish(t, id, wl)
				done.Add(int32(len(wl.Commands)))
			}
		}(i)
	}

	// One worker cannot run what is pushed: it is passed over by every wake
	// and its announces can only run out.
	fleet.Add(1)
	go func() {
		defer fleet.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if wl, err := c.announce("other", "other", 20*time.Millisecond); err != nil || len(wl.Commands) != 0 {
				t.Errorf("incompatible worker got %+v err=%v", wl.Commands, err)
			}
		}
	}()

	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < projects; i++ {
		n := 1 + rng.Intn(3)
		total += n
		c.push(t, fmt.Sprintf("p%d", i), n)
		time.Sleep(time.Duration(rng.Intn(8)) * time.Millisecond)
		if closeEarly && i == projects/2 {
			break
		}
	}

	if !closeEarly {
		deadline := time.Now().Add(30 * time.Second)
		for int(done.Load()) < total {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d commands completed", done.Load(), total)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	close(stop)
	began := time.Now()
	srv.Close()
	if d := time.Since(began); d > 100*time.Millisecond {
		t.Errorf("Close took %v with workers parked", d)
	}
	fleet.Wait() // every open announce has been answered
	outcomes := ""
	for _, name := range []string{"local", "expired", "superseded"} {
		n := metricValue(t, o, `copernicus_server_announce_hold_seconds_count{node="`+srv.Node().ID()+`",outcome="`+name+`"}`)
		if n == 0 && !closeEarly { // the run cut short may not get round to every ending
			t.Errorf("no parked announce ended %s: the interleavings did not cover it", name)
		}
		outcomes += fmt.Sprintf(" %s=%g", name, n)
	}
	t.Logf("outcomes:%s orphan events=%g", outcomes, metricValue(t, o, "copernicus_commands_orphaned_total"))
	if n := srv.core.park.line.Len() + len(srv.core.park.byWorker); n != 0 {
		t.Errorf("%d waiters left in the line after Close", n)
	}

	srv.core.mu.Lock()
	defer srv.core.mu.Unlock()
	for _, p := range srv.core.projects {
		for id, cs := range p.commands {
			switch cs.status {
			case cmdDone:
			case cmdQueued:
				if !srv.core.q.Contains(id) {
					t.Errorf("command %s is queued but not in the queue: a match took it and nobody assigned it", id)
				}
			case cmdRunning:
				onRecord := false
				if ws := srv.core.workers[cs.worker]; ws != nil {
					_, onRecord = ws.commands[id]
				}
				if left[id] == 0 && !onRecord {
					t.Errorf("command %s runs on %s but left in no reply and is on no liveness record", id, cs.worker)
				}
			default:
				t.Errorf("command %s ended in status %d", id, cs.status)
			}
			if !closeEarly && cs.status != cmdDone {
				t.Errorf("command %s not completed (status %d)", id, cs.status)
			}
		}
	}
}

// TestLateRelayedWorkloadHandedBack: the overlay search for a parked worker
// comes home with a workload after a local wake has already answered the
// announce. The workload is not delivered; the origin keeps its commands on
// the worker's record there, and the worker's next announce, relayed to the
// origin, is offered them again. One orphan event, at the origin; no command
// lost, and no retry spent.
func TestLateRelayedWorkloadHandedBack(t *testing.T) {
	o0, o1 := obs.New(), obs.New()
	net := overlay.NewMemNetwork()
	cfg := Config{HeartbeatInterval: time.Hour, RelayTimeout: 10 * time.Second}
	cfg.Obs = o0
	origin := parkNode(t, net, 1, "s0", cfg)
	cfg.Obs = o1
	home := parkNode(t, net, 2, "s1", cfg)
	if _, err := home.Node().ConnectPeer("s0"); err != nil {
		t.Fatal(err)
	}
	c0 := newParkClient(t, net, 3, "s0", origin)
	c1 := newParkClient(t, net, 4, "s1", home)

	// The origin's answers to searches are held back until released.
	gate := make(chan struct{})
	matched := make(chan struct{}, 4)
	origin.Node().Handle(wire.MsgAnnounce, func(from string, payload []byte) ([]byte, error) {
		reply, err := origin.handleAnnounce(from, payload)
		if err == nil {
			matched <- struct{}{}
			<-gate
		}
		return reply, err
	})

	c0.push(t, "far", 1)
	answer := make(chan wire.Workload, 1)
	go func() {
		wl, err := c1.announce("w1", "sim", 8*time.Second)
		if err != nil {
			t.Errorf("announce: %v", err)
		}
		answer <- wl
	}()
	<-matched // the search has taken far-c0 at the origin; its reply is held
	c1.push(t, "near", 1)
	wl := <-answer
	if len(wl.Commands) != 1 || wl.Commands[0].ID != "near-c0" {
		t.Fatalf("parked announce got %+v, want the local near-c0", wl.Commands)
	}
	close(gate) // the relayed workload now arrives, too late
	c1.finish(t, "w1", wl)

	deadline := time.Now().Add(10 * time.Second)
	for {
		wl, err := c1.announce("w1", "sim", 500*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if len(wl.Commands) == 1 && wl.Commands[0].ID == "far-c0" {
			break
		}
		if len(wl.Commands) != 0 {
			t.Fatalf("unexpected workload %+v", wl.Commands)
		}
		if time.Now().After(deadline) {
			t.Fatal("the late workload's command was never handed back and re-dispatched")
		}
	}
	if got := metricValue(t, o0, "copernicus_commands_orphaned_total"); got != 1 {
		t.Errorf("origin copernicus_commands_orphaned_total = %g, want 1", got)
	}
	if got := metricValue(t, o1, "copernicus_commands_orphaned_total"); got != 0 {
		t.Errorf("home server copernicus_commands_orphaned_total = %g, want 0", got)
	}
	if got := metricValue(t, o0, "copernicus_commands_requeued_total"); got != 0 {
		t.Errorf("origin copernicus_commands_requeued_total = %g, want 0", got)
	}
	if got := metricValue(t, o1, `copernicus_server_announce_hold_seconds_count{node="`+home.Node().ID()+`",outcome="relayed"}`); got != 1 {
		t.Errorf("hold histogram counted %g relayed outcomes, want 1 (the re-dispatch)", got)
	}
}

// TestLateRelayedWorkloadReapedAtOrigin: as above, the search's workload
// comes home after a local wake answered the announce, but the home has more
// local work, so the worker's next announces never reach the origin. The
// origin, which the worker does not heartbeat, reaps its record after two
// heartbeat intervals and requeues the command while the worker is still
// busy: the dropped workload is recovered within 2×HB.
func TestLateRelayedWorkloadReapedAtOrigin(t *testing.T) {
	const hb = 100 * time.Millisecond
	o0 := obs.New()
	net := overlay.NewMemNetwork()
	origin := parkNode(t, net, 1, "s0", Config{HeartbeatInterval: hb, RelayTimeout: 10 * time.Second, Obs: o0})
	home := parkNode(t, net, 2, "s1", Config{HeartbeatInterval: time.Hour, RelayTimeout: 10 * time.Second})
	if _, err := home.Node().ConnectPeer("s0"); err != nil {
		t.Fatal(err)
	}
	c0 := newParkClient(t, net, 3, "s0", origin)
	c1 := newParkClient(t, net, 4, "s1", home)

	gate := make(chan struct{})
	matched := make(chan struct{}, 4)
	origin.Node().Handle(wire.MsgAnnounce, func(from string, payload []byte) ([]byte, error) {
		reply, err := origin.handleAnnounce(from, payload)
		if err == nil {
			matched <- struct{}{}
			<-gate
		}
		return reply, err
	})

	c0.push(t, "far", 1)
	answer := make(chan wire.Workload, 1)
	go func() {
		wl, err := c1.announce("w1", "sim", 8*time.Second)
		if err != nil {
			t.Errorf("announce: %v", err)
		}
		answer <- wl
	}()
	<-matched
	c1.push(t, "near", 2)
	wl := <-answer
	dropped := time.Now()
	close(gate)
	if len(wl.Commands) != 1 || wl.Commands[0].ID != "near-c0" {
		t.Fatalf("parked announce got %+v, want the local near-c0", wl.Commands)
	}

	// The worker runs near-c0 and announces nowhere meanwhile.
	for queued := false; !queued; time.Sleep(5 * time.Millisecond) {
		origin.core.withProjectCommand("far", "far-c0", func(_ *project, cs *cmdState) {
			queued = cs.status == cmdQueued
		})
		if time.Since(dropped) > 20*hb {
			t.Fatal("the dropped workload's command was not requeued at the origin")
		}
	}
	if got := metricValue(t, o0, "copernicus_heartbeat_misses_total"); got != 1 {
		t.Errorf("origin copernicus_heartbeat_misses_total = %g, want 1", got)
	}
	if got := metricValue(t, o0, "copernicus_commands_orphaned_total"); got != 0 {
		t.Errorf("origin copernicus_commands_orphaned_total = %g, want 0", got)
	}
	// The worker's next announce is served at home.
	c1.finish(t, "w1", wl)
	if wl, err := c1.announce("w1", "sim", time.Second); err != nil || len(wl.Commands) != 1 || wl.Commands[0].ID != "near-c1" {
		t.Fatalf("next announce got %+v (err %v), want the local near-c1", wl.Commands, err)
	}
}

// TestStaleRelayedAnnounceRequeuesNothing: work-available notices reach the
// home while its search for a parked worker is on its way to the origin, so
// three relayed copies of one announce arrive there. The second one's
// workload is delivered; the other two arrive while the worker runs it. They
// are offered the same command again, and the home drops those replies:
// nothing is requeued and no retry is spent.
func TestStaleRelayedAnnounceRequeuesNothing(t *testing.T) {
	o0 := obs.New()
	net := overlay.NewMemNetwork()
	cfg := Config{HeartbeatInterval: time.Hour, RelayTimeout: 10 * time.Second}
	home := parkNode(t, net, 2, "s1", cfg)
	cfg.Obs = o0
	origin := parkNode(t, net, 1, "s0", cfg)
	if _, err := home.Node().ConnectPeer("s0"); err != nil {
		t.Fatal(err)
	}
	c0 := newParkClient(t, net, 3, "s0", origin)
	c1 := newParkClient(t, net, 4, "s1", home)

	// Each relayed announce is held at the origin until its gate opens, or
	// the test ends.
	gates := make(chan chan struct{}, 3) // one per copy: the search and two notices'
	ended := make(chan struct{})
	t.Cleanup(func() { close(ended) })
	var handled atomic.Int32
	origin.Node().Handle(wire.MsgAnnounce, func(from string, payload []byte) ([]byte, error) {
		gate := make(chan struct{})
		select {
		case gates <- gate:
		case <-ended:
		}
		select {
		case <-gate:
		case <-ended:
		}
		defer handled.Add(1)
		return origin.handleAnnounce(from, payload)
	})
	next := func() chan struct{} {
		select {
		case g := <-gates:
			return g
		case <-time.After(5 * time.Second):
			t.Fatal("no relayed announce reached the origin")
			return nil
		}
	}

	c0.push(t, "far", 1)
	answer := make(chan wire.Workload, 1)
	go func() {
		wl, err := c1.announce("w1", "sim", 8*time.Second)
		if err != nil {
			t.Errorf("announce: %v", err)
		}
		answer <- wl
	}()
	first := next()
	home.handleWorkAvailable("s0", nil)
	home.handleWorkAvailable("s0", nil)
	second, third := next(), next()
	close(second)
	wl := <-answer
	if len(wl.Commands) != 1 || wl.Commands[0].ID != "far-c0" {
		t.Fatalf("parked announce got %+v, want far-c0", wl.Commands)
	}
	close(first)
	close(third)
	for handled.Load() < 3 {
		time.Sleep(time.Millisecond)
	}
	if got := metricValue(t, o0, "copernicus_commands_requeued_total"); got != 0 {
		t.Errorf("origin copernicus_commands_requeued_total = %g, want 0: a running command was requeued", got)
	}
	c0.finish(t, "w1", wl)
	origin.core.withProjectCommand("far", "far-c0", func(_ *project, cs *cmdState) {
		if cs.status != cmdDone || cs.retries != 0 {
			t.Errorf("far-c0 has status %d after %d retries, want done after none", cs.status, cs.retries)
		}
	})
}

// TestParkedWorkerGoneGetsNoWork: a worker whose link closes while its
// announce is parked is not handed the next command — nobody would read the
// reply, and the command would sit assigned to it until the reaper ran — and
// a live worker announcing after it gets the command instead.
func TestParkedWorkerGoneGetsNoWork(t *testing.T) {
	net := overlay.NewMemNetwork()
	srv := parkNode(t, net, 1, "srv", Config{HeartbeatInterval: time.Hour, RelayTimeout: 30 * time.Second})
	dead := newParkClient(t, net, 2, "srv", srv)
	live := newParkClient(t, net, 3, "srv", srv)

	go func() { _, _ = dead.announce("dead", "sim", 20*time.Second) }()
	waitParked(t, srv, 1)
	dead.node.Close()
	deadline := time.Now().Add(5 * time.Second)
	for slices.Contains(srv.Node().Peers(), dead.node.ID()) {
		if time.Now().After(deadline) {
			t.Fatal("the server never saw the worker's link close")
		}
		time.Sleep(time.Millisecond)
	}

	live.push(t, "p", 1)
	waitParked(t, srv, 0) // the push's wake has dealt with the dead worker's announce
	wl, err := live.announce("live", "sim", 2*time.Second)
	if err != nil || len(wl.Commands) != 1 || wl.Commands[0].ID != "p-c0" {
		t.Fatalf("the live worker got %+v err=%v, want p-c0", wl.Commands, err)
	}
	srv.core.withProjectCommand("p", "p-c0", func(_ *project, cs *cmdState) {
		if cs.status != cmdRunning || cs.worker != "live" {
			t.Errorf("p-c0 status %d on %q, want running on the live worker", cs.status, cs.worker)
		}
	})
}

// gatedStart returns a controller whose Start, for the project named gated,
// signals entered after submitting the command called after and then waits
// for gate to close.
func gatedStart(cmds map[string][]wire.CommandSpec, gated, after string) (ctrl *testController, entered, gate chan struct{}) {
	entered, gate = make(chan struct{}), make(chan struct{})
	ctrl = &testController{submitFor: cmds, afterSubmit: func(project, cmd string) {
		if project == gated && cmd == after {
			close(entered)
			<-gate
		}
	}}
	return ctrl, entered, gate
}

// TestAnnounceNeverWaitsOnAHandler: while one project's Start handler is
// blocked with a command submitted, an announce the other project's queued
// command can serve is answered at once. It does not wait for the handler,
// whatever the handler might still submit.
func TestAnnounceNeverWaitsOnAHandler(t *testing.T) {
	ctrl, entered, gate := gatedStart(map[string][]wire.CommandSpec{
		"a": {typedCmd("a1", "other")},
		"b": {cmdSpec("b1")},
	}, "a", "a1")
	r := newRig(t, Config{HeartbeatInterval: time.Hour}, ctrl)
	r.submit(t, "b")
	started := make(chan error, 1)
	go func() {
		started <- r.request(t, wire.MsgSubmit, &wire.ProjectSubmit{Name: "a", Controller: "test"}, nil)
	}()
	<-entered
	released := false
	release := func() {
		if !released {
			released = true
			close(gate)
		}
	}
	defer release()

	got := make(chan wire.Workload, 1)
	go func() {
		req := announce("w1", 4)
		req.WaitSeconds = 1
		var wl wire.Workload
		if err := r.request(t, wire.MsgAnnounce, req, &wl); err != nil {
			t.Errorf("announce: %v", err)
		}
		got <- wl
	}()
	select {
	case wl := <-got:
		if len(wl.Commands) != 1 || wl.Commands[0].ID != "b1" {
			t.Errorf("announce got %+v, want b1", wl.Commands)
		}
	case <-time.After(3 * time.Second):
		t.Error("the announce waited for project a's Start handler")
	}
	release()
	if err := <-started; err != nil {
		t.Fatal(err)
	}
	if st, _ := r.srv.Project("a"); st.Queued != 1 || r.srv.QueueLen() != 1 {
		t.Errorf("after a's Start: %+v, queue %d; want a1 queued", st, r.srv.QueueLen())
	}
}

// TestHandlerBatchArrivesWhole: an announce that arrives while a Start
// handler is between its two submits is answered with both commands once the
// handler returns. A worker takes one workload and does not announce again
// until it has run it, so a match must never see half a batch.
func TestHandlerBatchArrivesWhole(t *testing.T) {
	ctrl, entered, gate := gatedStart(map[string][]wire.CommandSpec{
		"p": {cmdSpec("c1"), cmdSpec("c2")},
	}, "p", "c1")
	r := newRig(t, Config{HeartbeatInterval: time.Hour}, ctrl)
	started := make(chan error, 1)
	go func() {
		started <- r.request(t, wire.MsgSubmit, &wire.ProjectSubmit{Name: "p", Controller: "test"}, nil)
	}()
	<-entered

	got := make(chan wire.Workload, 1)
	go func() {
		req := announce("w1", 2)
		req.WaitSeconds = 4
		var wl wire.Workload
		if err := r.request(t, wire.MsgAnnounce, req, &wl); err != nil {
			t.Errorf("announce: %v", err)
		}
		got <- wl
	}()
	// Let the announce arrive during the block: it parks, or waits on its way.
	for deadline := time.Now().Add(200 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		r.srv.core.park.mu.Lock()
		parked := r.srv.core.park.line.Len()
		r.srv.core.park.mu.Unlock()
		if parked == 1 {
			break
		}
	}
	close(gate)
	if err := <-started; err != nil {
		t.Fatal(err)
	}
	select {
	case wl := <-got:
		var ids []string
		for _, c := range wl.Commands {
			ids = append(ids, c.ID)
		}
		if slices.Sort(ids); fmt.Sprint(ids) != "[c1 c2]" {
			t.Errorf("the 2-core announce got %v, want both of the handler's commands", ids)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the announce was never answered")
	}
}
