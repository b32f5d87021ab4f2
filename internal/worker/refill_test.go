package worker

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"copernicus/internal/controller"
	"copernicus/internal/engines"
	"copernicus/internal/obs"
	"copernicus/internal/overlay"
	"copernicus/internal/retry"
	"copernicus/internal/wire"
)

// scriptController is a recController that also runs react on each result.
type scriptController struct {
	recController
	react func(ctx controller.Context, res *wire.CommandResult)
}

func (c *scriptController) CommandFinished(ctx controller.Context, res *wire.CommandResult) error {
	if c.react != nil {
		c.react(ctx, res)
	}
	return c.recController.CommandFinished(ctx, res)
}

// startLog is an engine that records the order its commands start in, and
// runs each for delay (or hold[id]), or until its context ends if it is
// called "block". onStart, if set, runs as each command starts.
type startLog struct {
	name     string
	delay    time.Duration
	hold     map[string]time.Duration
	onStart  func(id string)
	mu       sync.Mutex
	started  []string
	canceled []string
}

func (e *startLog) Name() string { return e.name }

func (e *startLog) Run(ctx context.Context, spec wire.CommandSpec, cores int, _ func([]byte)) ([]byte, error) {
	if e.onStart != nil {
		e.onStart(spec.ID)
	}
	e.mu.Lock()
	e.started = append(e.started, spec.ID)
	e.mu.Unlock()
	d, ok := e.hold[spec.ID]
	if !ok {
		d = e.delay
	}
	wait := time.After(d)
	if spec.ID == "block" {
		wait = nil
	}
	select {
	case <-wait:
		return []byte(spec.ID), nil
	case <-ctx.Done():
		e.mu.Lock()
		e.canceled = append(e.canceled, spec.ID)
		e.mu.Unlock()
		return nil, ctx.Err()
	}
}

func (e *startLog) snapshot() (started, canceled []string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return slices.Clone(e.started), slices.Clone(e.canceled)
}

func oneCore(id string) wire.CommandSpec {
	return wire.CommandSpec{ID: id, Type: "sim", MinCores: 1, MaxCores: 1}
}

// requireOnce fails unless every result names a distinct command, n in all.
func requireOnce(t *testing.T, results []*wire.CommandResult, n int) {
	t.Helper()
	seen := map[string]bool{}
	for _, res := range results {
		if seen[res.CommandID] {
			t.Errorf("the controller heard of %s twice", res.CommandID)
		}
		seen[res.CommandID] = true
	}
	if len(seen) != n {
		t.Errorf("the controller heard of %d commands, want %d", len(seen), n)
	}
}

// TestRefillRunsAStreamOnFewAnnounces: a 2-core worker runs 40 one-core
// commands. Each finished result is answered with the next command for the
// core it frees, so the worker announces for its first two and once more
// when the queue is dry — not once per pair.
func TestRefillRunsAStreamOnFewAnnounces(t *testing.T) {
	const n = 40
	o := obs.New()
	ctrl := &recController{finishOn: n}
	for i := range n {
		ctrl.submit = append(ctrl.submit, oneCore(fmt.Sprintf("c%02d", i)))
	}
	r := newRig(t, ctrl, []engines.Engine{&fakeEngine{name: "sim"}}, Config{Cores: 2, Obs: o})
	r.submitProject(t)
	if _, err := r.srv.WaitProject(ctxTimeout(t, 10*time.Second), "p"); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 2*time.Second, func() bool { return r.wk.Completed() == n })
	results, _ := ctrl.snapshot()
	requireOnce(t, results, n)
	for _, res := range results {
		if res.Refill < 1 || res.Refill > 2 {
			t.Errorf("%s asked for a refill of %d cores, want its own or both", res.CommandID, res.Refill)
		}
	}
	if got := metricValue(t, o, "copernicus_worker_announces_total"); got > 3 {
		t.Errorf("copernicus_worker_announces_total = %g for %d commands on 2 cores, want at most 3", got, n)
	}
}

// TestRefillNeverPassesOverAWiderCommand: a 2-core worker refilled from a
// steady stream of 1-core commands. Once a 2-core command is queued, refills
// take nothing: the worker drains, and its idle announce, offering both
// cores, starts the wide command before the stream goes on. The wide command
// outranks the stream so that the announce takes it first: at equal
// priority a 1-core command queued just before it would be packed ahead of
// it there, as before refills (queue.Match), and cost one more drain.
func TestRefillNeverPassesOverAWiderCommand(t *testing.T) {
	const stream, wideAfter = 30, 8
	o := obs.New()
	eng := &startLog{name: "sim", delay: 5 * time.Millisecond}
	var announcesAtWide float64
	ctrl := &scriptController{recController: recController{
		submit: []wire.CommandSpec{oneCore("s00"), oneCore("s01")}, finishOn: stream + 1}}
	ctrl.react = func(ctx controller.Context, res *wire.CommandResult) {
		var i int
		if _, err := fmt.Sscanf(res.CommandID, "s%d", &i); err != nil {
			return
		}
		if i == wideAfter {
			wide := wire.CommandSpec{ID: "wide", Type: "sim", MinCores: 2, MaxCores: 2, Priority: 1}
			if err := ctx.Submit(wide); err != nil {
				t.Error(err)
			}
		}
		if i+2 < stream {
			if err := ctx.Submit(oneCore(fmt.Sprintf("s%02d", i+2))); err != nil {
				t.Error(err)
			}
		}
	}
	eng.onStart = func(id string) {
		if id == "wide" {
			announcesAtWide = metricValue(t, o, "copernicus_worker_announces_total")
		}
	}
	r := newRigFor(t, ctrl, &ctrl.recController, []engines.Engine{eng}, Config{Cores: 2, Obs: o})
	r.submitProject(t)
	if _, err := r.srv.WaitProject(ctxTimeout(t, 20*time.Second), "p"); err != nil {
		t.Fatal(err)
	}
	started, _ := eng.snapshot()
	wide := slices.Index(started, "wide")
	if wide < 0 {
		t.Fatalf("the wide command never started: %v", started)
	}
	// s08's result queued the wide command; s09 ran on the other core. The
	// next start is the wide one's.
	if next := slices.Index(started, fmt.Sprintf("s%02d", wideAfter+2)); next >= 0 && next < wide {
		t.Errorf("s%02d started before the wide command: %v", wideAfter+2, started)
	}
	if announcesAtWide > 3 {
		t.Errorf("the wide command started after %g announces, want at most 3 (refills in between)", announcesAtWide)
	}
}

// TestRefilledCommandsHeartbeatAndAbort: a command started by a refill is
// named in the worker's heartbeats, so its controller's Terminate aborts it
// at the next one. a's result submits "block", which a's refill starts while
// b still runs; b's result terminates it.
func TestRefilledCommandsHeartbeatAndAbort(t *testing.T) {
	eng := &startLog{name: "sim", delay: 5 * time.Millisecond, hold: map[string]time.Duration{"b": 300 * time.Millisecond}}
	ctrl := &scriptController{recController: recController{submit: []wire.CommandSpec{oneCore("a"), oneCore("b")}}}
	ctrl.react = func(ctx controller.Context, res *wire.CommandResult) {
		switch res.CommandID {
		case "a":
			if err := ctx.Submit(oneCore("block")); err != nil {
				t.Error(err)
			}
		case "b":
			ctx.Terminate("block")
		}
	}
	o := obs.New()
	var announcesAtBlock float64
	eng.onStart = func(id string) {
		if id == "block" {
			announcesAtBlock = metricValue(t, o, "copernicus_worker_announces_total")
		}
	}
	r := newRigFor(t, ctrl, &ctrl.recController, []engines.Engine{eng}, Config{Cores: 2, Obs: o})
	r.submitProject(t)
	waitCond(t, 5*time.Second, func() bool {
		_, canceled := eng.snapshot()
		return slices.Contains(canceled, "block")
	})
	started, _ := eng.snapshot()
	if len(started) != 3 || started[2] != "block" {
		t.Errorf("started %v, want a and b, then block", started)
	}
	if announcesAtBlock != 1 {
		t.Errorf("block started after %g announces, want 1: a refill started it", announcesAtBlock)
	}
	if res, _ := ctrl.snapshot(); len(res) != 2 {
		t.Errorf("the controller heard of %d results, want a's and b's", len(res))
	}
}

// TestRefillClaimsIdleCores: a slot whose refill came back empty leaves its
// core idle, and the next result's refill asks for it too. a finishes with
// nothing queued; b's result submits two commands, and its refill takes both
// onto the two cores, with no announce in between.
func TestRefillClaimsIdleCores(t *testing.T) {
	eng := &startLog{name: "sim", delay: 5 * time.Millisecond, hold: map[string]time.Duration{"b": 200 * time.Millisecond}}
	ctrl := &scriptController{recController: recController{submit: []wire.CommandSpec{oneCore("a"), oneCore("b")}, finishOn: 4}}
	ctrl.react = func(ctx controller.Context, res *wire.CommandResult) {
		if res.CommandID == "b" {
			for _, id := range []string{"c1", "c2"} {
				if err := ctx.Submit(oneCore(id)); err != nil {
					t.Error(err)
				}
			}
		}
	}
	o := obs.New()
	var announcesAtC atomic.Int64
	eng.onStart = func(id string) {
		if id == "c1" || id == "c2" {
			announcesAtC.Add(int64(metricValue(t, o, "copernicus_worker_announces_total")))
		}
	}
	r := newRigFor(t, ctrl, &ctrl.recController, []engines.Engine{eng}, Config{Cores: 2, Obs: o})
	r.submitProject(t)
	if _, err := r.srv.WaitProject(ctxTimeout(t, 5*time.Second), "p"); err != nil {
		t.Fatal(err)
	}
	results, _ := ctrl.snapshot()
	requireOnce(t, results, 4)
	for _, res := range results {
		if res.CommandID == "b" && res.Refill != 2 {
			t.Errorf("b asked for a refill of %d cores, want 2: its own and a's idle one", res.Refill)
		}
	}
	if got := announcesAtC.Load(); got != 2 {
		t.Errorf("c1 and c2 started after %d announces between them, want 1 each: the refill started both", got)
	}
}

// gateEngine runs until release is closed, whatever its context says.
type gateEngine struct{ release chan struct{} }

func (e *gateEngine) Name() string { return "sim" }
func (e *gateEngine) Run(_ context.Context, spec wire.CommandSpec, _ int, _ func([]byte)) ([]byte, error) {
	<-e.release
	return []byte("out"), nil
}

// TestNoRefillWhenShuttingDownOrSpooled: a command that finishes after its
// worker's context ended asks for no refill and starts nothing, and a
// result that no server took is spooled asking for none, so its
// redelivery, whoever takes it, assigns nothing.
func TestNoRefillWhenShuttingDownOrSpooled(t *testing.T) {
	net := overlay.NewMemNetwork()
	wNode := overlay.NewNode(overlay.NewIdentityFromSeed(2), overlay.NewTrustStore(), net.Transport())
	defer wNode.Close()
	spool := t.TempDir()
	eng := &gateEngine{release: make(chan struct{})}
	wk, err := New(wNode, "srv-gone", []engines.Engine{eng}, Config{ResultSpoolDir: spool,
		Retry: retry.Policy{MaxAttempts: 1, PerAttempt: 50 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	live := oneCore("live")
	live.Project, live.Origin = "p", "srv-gone" // the worker's home: it asks for a refill
	close(eng.release)
	if next := wk.runCommand(context.Background(), live, 1, false); next != nil {
		t.Errorf("an undelivered result started %v", next.Commands)
	}
	eng.release = make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *wire.Workload)
	closing := oneCore("closing")
	closing.Project, closing.Origin = "p", "srv-gone"
	go func() { done <- wk.runCommand(ctx, closing, 1, false) }()
	cancel()
	close(eng.release)
	if next := <-done; next != nil {
		t.Errorf("a worker shutting down started %v", next.Commands)
	}
	for _, id := range []string{"live", "closing"} {
		raw, err := os.ReadFile(filepath.Join(spool, id+".result"))
		if err != nil {
			t.Fatal(err)
		}
		var res wire.CommandResult
		if err := wire.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		if !res.OK || res.Refill != 0 {
			t.Errorf("spooled %s: OK %v, Refill %d; want an OK result asking for no refill", id, res.OK, res.Refill)
		}
	}
}

// TestOldServerAnswerMeansNoRefill: a server older than the refill answers
// a result "ok". The worker takes that for no refill, drains its workload
// and announces again, as before.
func TestOldServerAnswerMeansNoRefill(t *testing.T) {
	net := overlay.NewMemNetwork()
	sNode := overlay.NewNode(overlay.NewIdentityFromSeed(1), overlay.NewTrustStore(), net.Transport())
	if err := sNode.Listen("srv"); err != nil {
		t.Fatal(err)
	}
	defer sNode.Close()
	var mu sync.Mutex
	var results []wire.CommandResult
	announces := 0
	sNode.Handle(wire.MsgAnnounce, func(string, []byte) ([]byte, error) {
		mu.Lock()
		announces++
		first := announces == 1
		mu.Unlock()
		wl := wire.Workload{HeartbeatSeconds: 60}
		if first {
			for _, id := range []string{"c1", "c2"} {
				cmd := oneCore(id)
				cmd.Project, cmd.Origin = "p", sNode.ID()
				wl.Commands = append(wl.Commands, cmd)
			}
			wl.Cores = map[string]int{"c1": 1, "c2": 1}
		}
		return wire.Marshal(&wl)
	})
	sNode.Handle(wire.MsgResult, func(_ string, payload []byte) ([]byte, error) {
		var res wire.CommandResult
		if err := wire.Unmarshal(payload, &res); err != nil {
			return nil, err
		}
		mu.Lock()
		results = append(results, res)
		mu.Unlock()
		return []byte("ok"), nil
	})
	wNode := overlay.NewNode(overlay.NewIdentityFromSeed(2), overlay.NewTrustStore(), net.Transport())
	defer wNode.Close()
	if _, err := wNode.ConnectPeer("srv"); err != nil {
		t.Fatal(err)
	}
	eng := &startLog{name: "sim", delay: time.Millisecond}
	wk, err := New(wNode, sNode.ID(), []engines.Engine{eng}, Config{Cores: 2, PollInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = wk.Run(ctx) }()
	waitCond(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return announces >= 2 && len(results) == 2
	})
	cancel()
	mu.Lock()
	defer mu.Unlock()
	for _, res := range results {
		if res.Refill < 1 || res.Refill > 2 {
			t.Errorf("%s asked for a refill of %d cores, want its own or both", res.CommandID, res.Refill)
		}
	}
	if started, _ := eng.snapshot(); len(started) != 2 {
		t.Errorf("ran %v, want c1 and c2 once each", started)
	}
}

// TestSpooledResultRedeliveredWhileRefilling: a 2-core worker runs x for a
// server it cannot reach and a stream of home commands on its other core.
// x's result is spooled. Once x's origin is reachable, the next result that
// reaches home drains the spool: x reaches its origin while the stream still
// runs, though the worker, always refilled, never announces again.
func TestSpooledResultRedeliveredWhileRefilling(t *testing.T) {
	const n = 100
	net := overlay.NewMemNetwork()
	home := overlay.NewNode(overlay.NewIdentityFromSeed(1), overlay.NewTrustStore(), net.Transport())
	if err := home.Listen("srv"); err != nil {
		t.Fatal(err)
	}
	defer home.Close()
	far := overlay.NewNode(overlay.NewIdentityFromSeed(3), overlay.NewTrustStore(), net.Transport())
	if err := far.Listen("far"); err != nil {
		t.Fatal(err)
	}
	defer far.Close()

	var mu sync.Mutex
	announces, streamed := 0, 0
	xAfter := -1 // stream results home had taken when x reached far
	stream := func(i int) wire.CommandSpec {
		cmd := oneCore(fmt.Sprintf("s%03d", i))
		cmd.Project, cmd.Origin = "p", home.ID()
		return cmd
	}
	home.Handle(wire.MsgAnnounce, func(string, []byte) ([]byte, error) {
		mu.Lock()
		defer mu.Unlock()
		announces++
		wl := wire.Workload{HeartbeatSeconds: 60}
		if announces == 1 {
			x := oneCore("x")
			x.Project, x.Origin = "fp", far.ID()
			wl.Commands = []wire.CommandSpec{stream(0), x}
			wl.Cores = map[string]int{"s000": 1, "x": 1}
		}
		return wire.Marshal(&wl)
	})
	home.Handle(wire.MsgResult, func(_ string, payload []byte) ([]byte, error) {
		var res wire.CommandResult
		if err := wire.Unmarshal(payload, &res); err != nil {
			return nil, err
		}
		if res.Project != "p" {
			return nil, overlay.ErrNotHandled // far's project
		}
		mu.Lock()
		defer mu.Unlock()
		streamed++
		wl := wire.Workload{HeartbeatSeconds: 60}
		if res.Refill > 0 && streamed < n {
			next := stream(streamed)
			wl.Commands, wl.Cores = []wire.CommandSpec{next}, map[string]int{next.ID: 1}
		}
		return wire.Marshal(&wl)
	})
	far.Handle(wire.MsgResult, func(_ string, payload []byte) ([]byte, error) {
		mu.Lock()
		defer mu.Unlock()
		if xAfter < 0 {
			xAfter = streamed
		}
		return []byte("ok"), nil
	})

	wNode := overlay.NewNode(overlay.NewIdentityFromSeed(2), overlay.NewTrustStore(), net.Transport())
	defer wNode.Close()
	if _, err := wNode.ConnectPeer("srv"); err != nil {
		t.Fatal(err)
	}
	spool := t.TempDir()
	eng := &startLog{name: "sim", delay: 20 * time.Millisecond, hold: map[string]time.Duration{"x": time.Millisecond}}
	wk, err := New(wNode, home.ID(), []engines.Engine{eng}, Config{Cores: 2, PollInterval: 10 * time.Millisecond,
		ResultSpoolDir: spool, Retry: retry.Policy{MaxAttempts: 1, PerAttempt: 100 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = wk.Run(ctx) }()

	// x's origin is not linked to anything until x's result is on disk.
	waitCond(t, 5*time.Second, func() bool {
		_, err := os.Stat(filepath.Join(spool, "x.result"))
		return err == nil
	})
	if _, err := wNode.ConnectPeer("far"); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return xAfter >= 0
	})
	mu.Lock()
	defer mu.Unlock()
	if xAfter >= n {
		t.Errorf("x reached its origin only after all %d stream results", n)
	}
	if announces != 1 {
		t.Errorf("the worker announced %d times, want once: every result was refilled", announces)
	}
}
