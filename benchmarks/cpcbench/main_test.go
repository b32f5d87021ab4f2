package main

import (
	"flag"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// TestMain lets all the smoke runs overlap: each spends its time in the
// fabric's 2 s start-up wait, not on a CPU, and the default limit of
// GOMAXPROCS parallel subtests would queue them for 20 s.
func TestMain(m *testing.M) {
	flag.Parse()
	if err := flag.Set("test.parallel", "10"); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$`)

// TestDeclaredMetricsMatchBenchmarkJSON holds spec.go and BENCHMARK.json
// together, in both directions and in order.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmarkFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if got := (metricSpec{m.Name, m.Unit, m.Better}); got != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %v, the program has %v", i, got, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bf.PerLayer), len(perLayer))
	}
	seen := make(map[string]bool)
	for i, m := range bf.PerLayer {
		if got := (metricSpec{m.Name, m.Unit, m.Better}); got != perLayer[i] {
			t.Errorf("per_layer[%d] = %v, the program has %v", i, got, perLayer[i])
		}
	}
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q uses characters outside letters, digits, _ . -", m.Name)
			}
			if seen[m.Name] {
				t.Errorf("metric %q is declared twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
}

// TestWorkloadsSmoke runs every workload at about 1/20 scale in both modes
// and checks that exactly the declared metrics come out, finite, and that
// the layers a workload is predicted not to use report zero. The runs
// overlap: each spends most of its time in the fabric's 2 s start-up and
// shut-down waits.
func TestWorkloadsSmoke(t *testing.T) {
	wantZero := map[string][]string{ // measured, and predicted to be 0
		"dispatch_mem": {"engines.chunks_per_cmd"},
		"msm_batch":    {"engines.chunks_per_cmd"},
	}
	wantPositive := map[string][]string{
		"dispatch_wal": {"store.append_ms_p50", "store.records_per_cmd", "store.fsyncs_per_cmd"},
		"msm_stream":   {"engines.chunks_per_cmd", "msm.stream_observe_ns_per_frame", "controller.generations_per_hour"},
		"md_ensemble":  {"md.step_ms", "md.pairs_per_step", "md.ns_per_day", "md.shard_speedup_2"},
	}
	for i := range workloads {
		wl := &workloads[i]
		for _, trace := range []bool{false, true} {
			trace := trace
			t.Run(wl.name+map[bool]string{false: "/e2e", true: "/traced"}[trace], func(t *testing.T) {
				// A durable fabric sheds submissions when its appends slow
				// down, which nine other runs competing for two CPUs make
				// them do: dispatch_wal runs alone, the rest together after.
				if wl.name != "dispatch_wal" {
					t.Parallel()
				}
				h := &harness{wl: wl, seed: 7, seconds: 10, scale: 0.05, trace: trace,
					outDir: t.TempDir(), metrics: make(map[string]float64)}
				if err := wl.run(h); err != nil {
					t.Fatal(err)
				}
				rep, err := h.report() // fails on a missing, undeclared or non-finite metric
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 {
					t.Errorf("correct=%v failed=%d: %v", rep.Correct, rep.Failed, h.problems)
				}
				specs := endToEnd
				if trace {
					specs = perLayer
				}
				if len(rep.Metrics) != len(specs) {
					t.Errorf("%d metrics reported, %d declared", len(rep.Metrics), len(specs))
				}
				for _, s := range specs {
					if m, ok := rep.Metrics[s.Name]; !ok || m.Unit != s.Unit {
						t.Errorf("metric %s: reported %+v, declared unit %q", s.Name, m, s.Unit)
					}
				}
				if !trace {
					for _, s := range endToEnd {
						if rep.Metrics[s.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %g, must never be 0", s.Name, rep.Metrics[s.Name].Value)
						}
					}
					return
				}
				for _, name := range append(wantZero[wl.name], unusedLayers[wl.name]...) {
					if v := rep.Metrics[name].Value; v != 0 {
						t.Errorf("%s = %g on %s, predicted 0", name, v, wl.name)
					}
				}
				for _, name := range wantPositive[wl.name] {
					if v := rep.Metrics[name].Value; v <= 0 {
						t.Errorf("%s = %g on %s, predicted above 0", name, v, wl.name)
					}
				}
				if len(h.spans) == 0 {
					t.Error("traced run recorded no spans")
				}
			})
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	for i, pair := range [][2]float64{{q1, 3.5}, {q2, 13.5}, {q3, 31.0}} {
		if math.Abs(pair[0]-pair[1]) > 1e-12 {
			t.Errorf("quartile %d = %g, Python gives %g", i+1, pair[0], pair[1])
		}
	}
}

// TestSelfTime checks the rule of the trace file: a span's self time is its
// duration minus the union of its children, clipped to the span.
func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{Name: "root", Start: at(0), End: at(100), Parent: -1},
		{Name: "a", Start: at(10), End: at(40), Parent: 0},
		{Name: "b", Start: at(30), End: at(60), Parent: 0},    // overlaps a by 10 ms
		{Name: "c", Start: at(90), End: at(120), Parent: 0},   // runs 20 ms past the root
		{Name: "leaf", Start: at(12), End: at(20), Parent: 1}, // child of a
	}
	selfTimes(spans)
	for i, want := range []time.Duration{40, 22, 30, 30, 8} {
		if got := time.Duration(spans[i].SelfNs); got != want*time.Millisecond {
			t.Errorf("%s: self time %v, want %v", spans[i].Name, got, want*time.Millisecond)
		}
	}
}
