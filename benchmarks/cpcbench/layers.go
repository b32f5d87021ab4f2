package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"copernicus/internal/engines"
	"copernicus/internal/landscape"
	"copernicus/internal/md"
	"copernicus/internal/msm"
	"copernicus/internal/obs"
	"copernicus/internal/overlay"
	"copernicus/internal/queue"
	"copernicus/internal/rng"
	"copernicus/internal/store"
	"copernicus/internal/wire"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durQuantile is the q-quantile of ds in the given unit.
func durQuantile(ds []time.Duration, q float64, unit time.Duration) float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d) / float64(unit)
	}
	return quantile(v, q)
}

func msQuantile(ds []time.Duration, q float64) float64 { return durQuantile(ds, q, time.Millisecond) }
func usMedian(ds []time.Duration) float64              { return durQuantile(ds, 0.5, time.Microsecond) }

// timeEach runs fn n times and returns each call's duration.
func timeEach(n int, fn func()) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		s := time.Now()
		fn()
		out[i] = time.Since(s)
	}
	return out
}

// commonLayers derives the per-layer metrics every workload shares from a
// plain and a traced phase of equal work: the wrappers' spans, the fabric's
// own registry and lifecycle spans, and probes of single layers on inputs
// captured from the traced phase.
func (h *harness) commonLayers(plain, traced *phase) error {
	for _, name := range unusedLayers[h.wl.name] {
		h.set(name, 0)
	}
	rec := traced.rec
	h.spans = rec.commandSpans()

	ratePlain, meanPlain, err := rateOf(plain.rec.rounds)
	if err != nil {
		return err
	}
	rateTraced, _, err := rateOf(rec.rounds)
	if err != nil {
		return err
	}
	h.set("fabric.tracing_overhead_pct", (ratePlain-rateTraced)/ratePlain*100)
	h.set("fabric.cmds_per_s_mean", meanPlain)
	win := windowOf(plain.rec.marks[0], plain.rec.marks[len(plain.rec.marks)-1])
	h.set("fabric.cpu_us_per_cmd", win.cpuUsPerOp)
	h.set("fabric.mallocs_per_cmd", win.mallocs)
	h.set("fabric.gc_pause_ms_total", win.gcPauseMs)
	h.set("fabric.peak_rss_mb", peakRSSMiB())
	h.set("fabric.failed_cmd_share", float64(h.failed)/float64(h.attempted))

	// Spans of the obs tracer that carry an instant the wrappers cannot see.
	dispatchAt := make(map[string]time.Time)
	resultAt := make(map[string]time.Time)
	var queueWait []time.Duration
	for _, s := range traced.obsSpans {
		switch s.Stage {
		case obs.StageDispatch:
			dispatchAt[s.Project+"/"+s.Command] = s.Start
		case obs.StageResult:
			resultAt[s.Project+"/"+s.Command] = s.Start
		case obs.StageQueueWait:
			queueWait = append(queueWait, s.Duration)
		}
	}

	var rtt, pickup, ret, runs, submits, fins, chunks, emits, dispatch, result []time.Duration
	var busy time.Duration
	var first, last time.Time
	nChunks := 0
	rec.mu.Lock()
	for id, ct := range rec.cmds {
		if ct.submitStart.IsZero() || ct.runStart.IsZero() || ct.finEnd.IsZero() {
			continue
		}
		rtt = append(rtt, ct.finStart.Sub(ct.submitStart))
		submits = append(submits, ct.submitEnd.Sub(ct.submitStart))
		pickup = append(pickup, ct.runStart.Sub(ct.submitEnd))
		runs = append(runs, ct.runEnd.Sub(ct.runStart))
		ret = append(ret, ct.finStart.Sub(ct.runEnd))
		fins = append(fins, ct.finEnd.Sub(ct.finStart))
		busy += ct.runEnd.Sub(ct.runStart) * time.Duration(ct.cores)
		if t, ok := dispatchAt[id]; ok { // id is project/ID, as the maps above are keyed
			dispatch = append(dispatch, ct.runStart.Sub(t))
		}
		if t, ok := resultAt[id]; ok {
			result = append(result, t.Sub(ct.runEnd))
		}
		nChunks += len(ct.emits)
		for _, e := range ct.emits {
			emits = append(emits, e.dur())
		}
		for _, c := range ct.chunks {
			chunks = append(chunks, c.dur())
		}
		// The window is first engine start to last controller return: the
		// 2 s the fabric holds its workers at start-up is set-up, not work.
		if first.IsZero() || ct.runStart.Before(first) {
			first = ct.runStart
		}
		if ct.finEnd.After(last) {
			last = ct.finEnd
		}
	}
	sampleCmd, sampleRes := rec.sampleCmd, rec.sampleRes
	firstResult := rec.firstAt.Sub(traced.firstSubmit).Seconds()
	rec.mu.Unlock()
	if len(rtt) == 0 || sampleCmd == nil || sampleRes == nil {
		return fmt.Errorf("traced phase recorded no complete command")
	}
	cmds := float64(len(rtt))
	wall := last.Sub(first)

	h.set("fabric.cmd_rtt_ms_p50", msQuantile(rtt, 0.5))
	h.set("fabric.cmd_rtt_ms_p99", msQuantile(rtt, 0.99))
	h.set("fabric.cmd_rtt_samples", cmds)

	h.set("server.submit_ms_p50", msQuantile(submits, 0.5))
	h.set("server.dispatch_ms_p50", msQuantile(dispatch, 0.5))
	h.set("server.result_ms_p50", msQuantile(result, 0.5))
	h.set("server.first_result_s", firstResult)

	cores := traced.cfg.Servers * traced.cfg.WorkersPerServer * traced.cfg.WorkerCores
	h.set("worker.busy_share", busy.Seconds()/(float64(cores)*wall.Seconds()))
	h.set("worker.announces_per_cmd", traced.registry["copernicus_worker_announces_total"]/cmds)
	// Counted where every announce ends, direct or relayed: one Match each.
	matches := traced.registry["copernicus_queue_match_seconds_count"]
	if matches == 0 {
		return fmt.Errorf("the queue's registry series recorded no match")
	}
	h.set("worker.empty_announce_share", traced.registry["copernicus_queue_empty_matches_total"]/matches)
	h.set("worker.pickup_ms_p50", msQuantile(pickup, 0.5))
	h.set("worker.return_ms_p50", msQuantile(ret, 0.5))

	h.set("engines.run_ms_p50", msQuantile(runs, 0.5))
	h.set("engines.run_ms_p99", msQuantile(runs, 0.99))
	h.set("engines.chunks_per_cmd", float64(nChunks)/cmds)
	h.set("engines.emit_blocked_ms_p50", msQuantile(emits, 0.5))

	h.set("controller.finished_ms_p50", msQuantile(fins, 0.5))
	h.set("controller.finished_ms_max", msQuantile(fins, 1))
	h.set("controller.frame_chunk_ms_p50", msQuantile(chunks, 0.5))
	var handler time.Duration
	for _, d := range fins {
		handler += d
	}
	for _, d := range chunks {
		handler += d
	}
	h.set("controller.analysis_share", handler.Seconds()/wall.Seconds())

	h.set("queue.wait_ms_p50", msQuantile(queueWait, 0.5))
	h.set("overlay.msgs_per_cmd", traced.registry["copernicus_overlay_messages_total:tx"]/cmds)
	h.set("overlay.bytes_per_cmd", float64(traced.netBytes)/cmds)

	if err := h.wireProbe(sampleCmd, sampleRes); err != nil {
		return err
	}
	if err := h.overlayProbe(sampleRes); err != nil {
		return err
	}
	h.queueProbe(sampleCmd, len(traced.projects))

	// What no layer's own measurement accounts for: mostly time spent
	// waiting in the queue for a worker slot, which tracing inside the
	// program would have to split further.
	owned := h.metrics["server.submit_ms_p50"] + h.metrics["engines.run_ms_p50"] +
		h.metrics["controller.finished_ms_p50"] +
		h.metrics["overlay.request_rtt_us_p50"]/1000*h.metrics["overlay.msgs_per_cmd"]/2 +
		(h.metrics["queue.push_us_p50"]+h.metrics["queue.match_us_p50"])/1000
	h.set("fabric.unattributed_ms_p50", h.metrics["fabric.cmd_rtt_ms_p50"]-owned)
	return nil
}

// wireProbe times the codec on the messages that dominate the traffic: the
// workload reply carrying the command and the result carrying its output.
func (h *harness) wireProbe(cmd *wire.CommandSpec, res *wire.CommandResult) error {
	msgs := []any{
		&wire.Workload{Commands: []wire.CommandSpec{*cmd}, Cores: map[string]int{cmd.ID: cmd.MinCores}},
		res,
	}
	const n = 200
	var enc, dec time.Duration
	var mallocs uint64
	for _, m := range msgs {
		blob, err := wire.Marshal(m)
		if err != nil {
			return err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s := time.Now()
		for i := 0; i < n; i++ {
			if _, err := wire.Marshal(m); err != nil {
				return err
			}
		}
		enc += time.Since(s)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		s = time.Now()
		for i := 0; i < n; i++ {
			var err error
			switch m.(type) {
			case *wire.Workload:
				err = wire.Unmarshal(blob, new(wire.Workload))
			default:
				err = wire.Unmarshal(blob, new(wire.CommandResult))
			}
			if err != nil {
				return err
			}
		}
		dec += time.Since(s)
	}
	total := float64(n * len(msgs))
	h.set("wire.encode_us_per_msg", us(enc)/total)
	h.set("wire.decode_us_per_msg", us(dec)/total)
	h.set("wire.encode_allocs_per_msg", float64(mallocs)/total)
	return nil
}

// overlayProbe echoes a result-sized payload over one hop (a - b) and over
// two (a - b - c, relayed by b) of a private in-memory overlay.
func (h *harness) overlayProbe(res *wire.CommandResult) error {
	payload, err := wire.Marshal(res)
	if err != nil {
		return err
	}
	net := overlay.NewMemNetwork()
	tr := net.Transport()
	const echo = wire.MsgType("bench-echo")
	var nodes []*overlay.Node
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	for i, addr := range []string{"a", "b", "c"} {
		n := overlay.NewNode(overlay.NewIdentityFromSeed(uint64(9000+i)), overlay.NewTrustStore(), tr)
		nodes = append(nodes, n)
		n.Handle(echo, func(from string, p []byte) ([]byte, error) { return p[:8], nil })
		if err := n.Listen(addr); err != nil {
			return err
		}
		if i > 0 {
			if _, err := n.ConnectPeer([]string{"a", "b"}[i-1]); err != nil {
				return err
			}
		}
	}
	// ConnectPeer returns when the dialling side has the link; the accepting
	// side registers it a moment later. Probe only a settled chain.
	for deadline := time.Now().Add(2 * time.Second); len(nodes[1].Peers()) < 2; {
		if time.Now().After(deadline) {
			return fmt.Errorf("overlay probe: relay node has %d of 2 peers", len(nodes[1].Peers()))
		}
		time.Sleep(time.Millisecond)
	}
	ctx := context.Background()
	probe := func(to *overlay.Node) (float64, error) {
		var perr error
		ds := timeEach(300, func() {
			if _, err := nodes[0].Request(ctx, to.ID(), echo, payload); err != nil {
				perr = err
			}
		})
		return usMedian(ds), perr
	}
	one, err := probe(nodes[1])
	if err != nil {
		return err
	}
	two, err := probe(nodes[2])
	if err != nil {
		return err
	}
	h.set("overlay.request_rtt_us_p50", one)
	h.set("overlay.relay_rtt_us_p50", two)
	return nil
}

// queueProbe times Push and Match on a standalone queue held at the
// workload's depth and tenant count.
func (h *harness) queueProbe(cmd *wire.CommandSpec, tenants int) {
	q := queue.New()
	depth := 32
	next := 0
	push := func() {
		c := *cmd
		c.ID = fmt.Sprintf("probe-%d", next)
		c.Tenant = fmt.Sprintf("tenant%d", next%tenants)
		c.GangID, c.GangSize = "", 0
		next++
		_ = q.Push(c) // an unbounded, quota-free queue admits everything
	}
	for i := 0; i < depth; i++ {
		push()
	}
	info := wire.WorkerInfo{ID: "probe", Cores: cmd.MinCores, Executables: []string{cmd.Type}}
	var pushes, matches []time.Duration
	for i := 0; i < 500; i++ {
		s := time.Now()
		wl := q.Match(info)
		matches = append(matches, time.Since(s))
		for _, c := range wl.Commands {
			q.Release(c.ID, 0.001)
			s = time.Now()
			push()
			pushes = append(pushes, time.Since(s))
		}
	}
	h.set("queue.push_us_p50", usMedian(pushes))
	h.set("queue.match_us_p50", usMedian(matches))
}

// storeLayers adds the durable fabric's numbers: exact counts from the
// store's own registry series, and append latency probed on a sibling
// directory with the same options and result-sized records.
func storeLayers(h *harness, ph *phase) error {
	cmds := float64(ph.rec.done.Load())
	h.set("store.records_per_cmd", ph.registry["copernicus_store_wal_appends_total"]/cmds)
	h.set("store.bytes_per_cmd", ph.registry["copernicus_store_wal_record_bytes_sum"]/cmds)
	h.set("store.fsyncs_per_cmd", ph.registry["copernicus_store_wal_fsyncs_total"]/cmds)

	ph.rec.mu.Lock()
	res := ph.rec.sampleRes
	ph.rec.mu.Unlock()
	data, err := wire.Marshal(res)
	if err != nil {
		return err
	}
	dir := filepath.Join(filepath.Dir(ph.cfg.StateDir), filepath.Base(ph.cfg.StateDir)+"-probe")
	defer os.RemoveAll(dir)
	st, err := store.Open(store.Options{Dir: dir, FsyncInterval: ph.cfg.FsyncInterval, SnapshotEvery: 0})
	if err != nil {
		return err
	}
	defer st.Close()
	var aerr error
	ds := timeEach(300, func() {
		if err := st.Append(store.Record{Type: store.RecResult, Project: "probe", Command: "probe", Data: data}); err != nil {
			aerr = err
		}
	})
	if aerr != nil {
		return aerr
	}
	h.set("store.append_ms_p50", msQuantile(ds, 0.5))
	h.set("store.append_ms_p99", msQuantile(ds, 0.99))
	return nil
}

// mdLayers probes the kernel directly on the workload's own system: a plain
// single-thread run as the baseline, then the two-shard pool the commands
// use. Pair and rebuild counts come from the kernel's registry series,
// which the traced phase switches on.
func mdLayers(h *harness, ph *phase) error {
	steps := ph.registry["copernicus_md_steps_total"]
	if steps == 0 {
		return fmt.Errorf("the md kernel's registry series recorded no step")
	}
	h.set("md.pairs_per_step", ph.registry["copernicus_md_pairs_total"]/steps)
	h.set("md.rebuilds_per_1k_steps", ph.registry["copernicus_md_neighbor_rebuilds_total"]/steps*1000)
	pl := mdPayload(h.seed)
	stepTime := func(shards int) (time.Duration, error) {
		sys, err := pl.BuildSystem()
		if err != nil {
			return 0, err
		}
		cfg := pl.Config
		cfg.Shards = shards
		sim, err := md.New(sys, cfg)
		if err != nil {
			return 0, err
		}
		defer sim.Close()
		if err := sim.Step(10); err != nil {
			return 0, err
		}
		const n = 100
		s := time.Now()
		if err := sim.Step(n); err != nil {
			return 0, err
		}
		return time.Since(s) / n, nil
	}
	serial, err := stepTime(1)
	if err != nil {
		return err
	}
	sharded, err := stepTime(benchProcs)
	if err != nil {
		return err
	}
	nsPerDay := func(step time.Duration) float64 { return pl.Config.Dt / 1000 / step.Seconds() * 86400 }
	h.set("md.step_ms", ms(sharded))
	h.set("md.ns_per_day_serial", nsPerDay(serial))
	h.set("md.shard_speedup_2", serial.Seconds()/sharded.Seconds())
	// Simulated time of the completed commands over the wall they took.
	cmds := float64(ph.rec.done.Load())
	_, mean, err := rateOf(ph.rec.rounds)
	if err != nil {
		return err
	}
	h.set("md.ns_per_day", mean*float64(mdSteps)*pl.Config.Dt/1000*86400)
	h.set("controller.sim_ns_total", cmds*float64(mdSteps)*pl.Config.Dt/1000)
	return nil
}

// msmLayers probes the analysis kernels on the frames the campaign's
// commands returned, and the landscape integrator the commands spent their
// time in.
func msmLayers(h *harness, p *msmSetup, outputs [][]byte, stream bool) error {
	model, err := landscape.New(p.params.Landscape)
	if err != nil {
		return err
	}
	x := model.UnfoldedStart(0, h.seed)
	grad := make([]float64, len(x))
	r := rng.New(h.seed)
	const steps = 200_000
	s := time.Now()
	for i := 0; i < steps; i++ {
		model.Step(x, grad, r)
	}
	h.set("landscape.step_ns", float64(time.Since(s).Nanoseconds())/steps)

	var trajs [][][]float64
	var points [][]float64
	for _, blob := range outputs {
		var out engines.LandscapeOutput
		if err := wire.Unmarshal(blob, &out); err != nil {
			return err
		}
		trajs = append(trajs, out.Frames)
		points = append(points, out.Frames...)
	}
	if len(points) == 0 {
		return fmt.Errorf("no frames captured for the msm probes")
	}
	lag := int(p.params.LagNs/p.params.FrameNs + 0.5)
	s = time.Now()
	clu, err := msm.KCenters(points, p.params.Clusters, h.seed)
	if err != nil {
		return err
	}
	h.set("msm.kcenters_ms", ms(time.Since(s)))
	s = time.Now()
	dtrajs := make([][]int, len(trajs))
	for i, t := range trajs {
		dtrajs[i] = clu.AssignAll(t)
	}
	h.set("msm.assign_ns_per_frame", float64(time.Since(s).Nanoseconds())/float64(len(points)))
	s = time.Now()
	counts, err := msm.CountTransitions(dtrajs, clu.K(), lag)
	if err != nil {
		return err
	}
	tm := counts.TransitionMatrix(0)
	rt, _ := tm.Restrict(tm.LargestConnectedSet())
	rt.StationaryDistribution(1e-12, 10000)
	h.set("msm.count_ms", ms(time.Since(s)))
	s = time.Now()
	if _, err := msm.ImpliedTimescales(dtrajs, clu.K(), []int{lag}, p.params.FrameNs); err != nil {
		return err
	}
	h.set("msm.timescales_ms", ms(time.Since(s)))
	if stream {
		sc, err := msm.NewStreamClusterer(msm.StreamConfig{K: p.params.Clusters, Lag: lag, MinDist: p.params.StreamMinDist})
		if err != nil {
			return err
		}
		s = time.Now()
		for i, t := range trajs {
			id := fmt.Sprintf("t%d", i)
			for _, f := range t {
				if _, err := sc.Observe(id, f); err != nil {
					return err
				}
			}
		}
		h.set("msm.stream_observe_ns_per_frame", float64(time.Since(s).Nanoseconds())/float64(len(points)))
	}
	return nil
}
