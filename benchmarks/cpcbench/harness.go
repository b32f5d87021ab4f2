package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"copernicus/internal/client"
	"copernicus/internal/core"
	"copernicus/internal/md"
	"copernicus/internal/obs"
)

// harness carries one invocation: the arguments, the environment stamp and
// the metrics as they accumulate.
type harness struct {
	wl      *workloadSpec
	seed    uint64
	seconds float64
	trace   bool
	outDir  string
	// scale multiplies every count; the smoke test runs at about 1/20.
	scale float64

	attempted, failed int64
	problems          []string // correctness gate violations
	metrics           map[string]float64
	roundRates        []float64
	spans             []span
}

func (h *harness) set(name string, v float64) { h.metrics[name] = v }

func (h *harness) problem(format string, args ...any) {
	h.problems = append(h.problems, fmt.Sprintf(format, args...))
}

// count scales a per-second work count to this invocation, never below lo.
func (h *harness) count(perSecond float64, lo int) int {
	n := int(math.Round(perSecond * h.seconds * h.scale))
	if n < lo {
		n = lo
	}
	return n
}

// project is one submission of a phase.
type project struct {
	name, tenant, controller string
	params                   any
}

// phase is one fabric lifetime: build it, submit the projects at once, wait
// until their controllers finish, tear it down.
type phase struct {
	cfg      core.FabricConfig
	rec      *recorder
	projects []project
	// inspect, when set, runs once every project has finished, while the
	// fabric is still up.
	inspect func(ctx context.Context, f *core.Fabric) error

	// kernelMetrics switches on the md kernel's registry series for a
	// traced phase (process-wide, so only the last phase of a run asks).
	kernelMetrics bool

	// results
	began       time.Time // just before NewFabric
	firstSubmit time.Time // just before the first project is submitted
	registry    map[string]float64
	obsSpans    []obs.Span
	netBytes    int64
}

const (
	phaseTimeout = 150 * time.Second
	// idlePoll is the workers' idle re-announce interval (the fabric's default).
	idlePoll = 20 * time.Millisecond
)

func (ph *phase) run() error {
	rec := ph.rec
	if rec.trace {
		ph.cfg.Obs = obs.NewWith(obs.Options{TraceCapacity: 1 << 18})
	} else {
		ph.cfg.Obs = obs.New()
	}
	if rec.trace && ph.kernelMetrics {
		md.EnableMetrics(ph.cfg.Obs)
	}
	ph.cfg.Engines = rec.wrapEngines(ph.cfg.Engines)
	ph.began = time.Now()
	f, err := core.NewFabric(ph.cfg)
	if err != nil {
		return err
	}
	if ph.cfg.StateDir != "" {
		defer os.RemoveAll(ph.cfg.StateDir) // runs after Close: the store is shut by then
	}
	defer f.Close()
	ctx, cancel := context.WithTimeout(context.Background(), phaseTimeout)
	defer cancel()

	// Every worker announces the moment it starts, finds the queue empty,
	// and is then held by the server's search of the overlay for work
	// (RelayTimeout, 2 s). Whether a project submitted right after start-up
	// waits those 2 s or none is a race. Submitting only once every worker
	// has sent its first announce, plus one poll interval for it to reach
	// the server, puts every run on the same side: the one a user
	// submitting to an idle fleet is on. (Counting the server's empty
	// matches instead does not work: one announce makes two, the direct
	// match and the relayed search's own local one.)
	workers := ph.cfg.Servers * ph.cfg.WorkersPerServer
	for readRegistry(f.Obs.Metrics)["copernicus_worker_announces_total"] < float64(workers) {
		if time.Since(ph.began) > 5*time.Second {
			return fmt.Errorf("workers never announced")
		}
		time.Sleep(200 * time.Microsecond)
	}
	time.Sleep(idlePoll)
	ph.firstSubmit = time.Now()
	for _, p := range ph.projects {
		if err := f.Submit(ctx, p.name, p.controller, p.params, client.WithTenant(p.tenant)); err != nil {
			return err
		}
	}
	if err := ph.await(ctx, f); err != nil {
		return err
	}
	if ph.inspect != nil {
		if err := ph.inspect(ctx, f); err != nil {
			return err
		}
	}
	ph.registry = readRegistry(f.Obs.Metrics)
	ph.obsSpans = f.Obs.Trace.Spans()
	ph.netBytes = f.Net.BytesSent()
	return nil
}

// await blocks until every project's controller has called Finish, watching
// for a project that failed instead.
func (ph *phase) await(ctx context.Context, f *core.Fabric) error {
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for n := len(ph.projects); n > 0; {
		select {
		case <-ph.rec.finished:
			n--
		case <-tick.C:
			for _, p := range ph.projects {
				st, err := f.Status(ctx, p.name)
				if err == nil && st.State == "failed" {
					return fmt.Errorf("project %s failed: %s", p.name, st.Note)
				}
			}
		case <-ctx.Done():
			return fmt.Errorf("phase timed out with %d projects unfinished", n)
		}
	}
	return nil
}

// readRegistry sums every series of every family in the registry's
// Prometheus text, keyed by family name (histograms by _sum and _count).
func readRegistry(reg *obs.Registry) map[string]float64 {
	var buf bytes.Buffer
	reg.WriteText(&buf)
	out := make(map[string]float64)
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		labels := ""
		if br := strings.IndexByte(name, '{'); br >= 0 {
			name, labels = name[:br], name[br:]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		out[name] += v
		// The overlay counts each message at both ends; keep the sender's.
		if strings.Contains(labels, `dir="tx"`) {
			out[name+":tx"] += v
		}
	}
	return out
}

// --- the estimator ---

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// rateOf applies the estimator to a phase's rounds: the first is a warm-up
// and is dropped, the run's rate is the median of the rest, and the
// all-rounds mean is kept beside it so that a periodic stall the median
// hides stays visible.
func rateOf(rounds []round) (med, mean float64, err error) {
	if len(rounds) < 3 {
		return 0, 0, fmt.Errorf("only %d rounds measured", len(rounds))
	}
	kept := rounds[1:]
	rates := make([]float64, len(kept))
	var cmds int64
	for i, r := range kept {
		rates[i] = r.rate()
		cmds += r.cmds
	}
	wall := kept[len(kept)-1].end.Sub(kept[0].start).Seconds()
	return median(rates), float64(cmds) / wall, nil
}

// endToEnd runs the one untraced phase of a -trace 0 invocation and reports
// the end-to-end metrics from it. setup_s is from just before the fabric is
// built to the first result a controller sees.
func (h *harness) endToEnd(ph *phase) error {
	if err := ph.run(); err != nil {
		return err
	}
	h.gates(ph)
	rec := ph.rec
	rate, _, err := rateOf(rec.rounds)
	if err != nil {
		return err
	}
	for _, r := range rec.rounds {
		h.roundRates = append(h.roundRates, r.rate())
	}
	h.set("setup_s", rec.firstAt.Sub(ph.began).Seconds())
	h.set("cmds_per_s", rate)
	h.set("alloc_kb_per_cmd", windowOf(rec.marks[0], rec.marks[len(rec.marks)-1]).allocKB)
	return nil
}

// window is the process-level cost of the kept rounds.
type window struct {
	allocKB    float64
	mallocs    float64
	gcPauseMs  float64
	cpuUsPerOp float64
}

func windowOf(first, last mark) window {
	n := last.cmds - first.cmds
	return window{
		allocKB:    float64(last.totalAlloc-first.totalAlloc) / 1024 / float64(n),
		mallocs:    float64(last.mallocs-first.mallocs) / float64(n),
		gcPauseMs:  float64(last.gcPauseNs-first.gcPauseNs) / 1e6,
		cpuUsPerOp: float64((last.cpu - first.cpu).Microseconds()) / float64(n),
	}
}

// gates applies the correctness checks every phase shares: each submitted
// command ID reached its controller exactly once, nothing failed, and the
// server absorbed no duplicate.
func (h *harness) gates(ph *phase) {
	rec := ph.rec
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var lost, dup int64
	for _, n := range rec.seen {
		switch {
		case n == 0:
			lost++
		case n > 1:
			dup += int64(n - 1)
		}
	}
	h.attempted += rec.submitted
	h.failed += rec.failed + lost + dup
	if lost+dup+rec.failed > 0 {
		h.problem("%d commands lost, %d duplicated, %d failed of %d", lost, dup, rec.failed, rec.submitted)
	}
	if d := ph.registry["copernicus_results_duplicate_total"]; d > 0 {
		h.problem("server absorbed %g duplicate results", d)
	}
	if d := ph.registry["copernicus_stream_duplicate_chunks_total"]; d > 0 || rec.dupChunks > 0 {
		h.problem("%g duplicate chunks at the server, %d at the controller", d, rec.dupChunks)
	}
	if f := ph.registry["copernicus_commands_failed_total"]; f > 0 {
		h.problem("server counted %g failed commands", f)
	}
}

// peakRSSMiB reads the process's high-water resident set.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// stateDir returns a fresh directory for a durable fabric under the output
// directory, which the environment guard has checked is on a real
// filesystem.
func (h *harness) stateDir(tag string) (string, error) {
	dir := filepath.Join(h.outDir, fmt.Sprintf("state-%d-%s", os.Getpid(), tag))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
