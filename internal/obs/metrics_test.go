package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "test counter", nil)
	const goroutines, perG = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestNilPrimitivesNoop(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(5)
	g.Set(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil primitives should read as zero")
	}
}

// TestHistogramBucketBoundaries pins the le semantics: an observation equal
// to a bound lands in that bound's bucket, one just above lands in the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 5, 6, math.Inf(1)} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 1, 2} // (≤1)=2, (1,2]=2, (2,5]=1, (5,∞)=2
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
	if !math.IsInf(h.Sum(), 1) {
		t.Errorf("sum = %v, want +Inf", h.Sum())
	}
}

func TestHistogramUnsortedBucketsSorted(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "", []float64{5, 1, 2}, nil)
	h.Observe(1.5)
	if got := h.counts[1].Load(); got != 1 {
		t.Fatalf("1.5 should land in the (1,2] bucket, counts=%v", []uint64{
			h.counts[0].Load(), h.counts[1].Load(), h.counts[2].Load(), h.counts[3].Load()})
	}
}

func TestRegistryReuseAndTypePanic(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "", L("k", "v"))
	b := r.Counter("dup_total", "", L("k", "v"))
	if a != b {
		t.Fatal("same name+labels should return the same counter")
	}
	if c := r.Counter("dup_total", "", L("k", "other")); c == a {
		t.Fatal("different labels should return a distinct series")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge should panic")
		}
	}()
	r.Gauge("dup_total", "", nil)
}

// TestWriteTextGolden pins the exact Prometheus text exposition output.
func TestWriteTextGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("cmd_total", "Commands processed.", L("node", "s0")).Add(3)
	r.Counter("cmd_total", "Commands processed.", L("node", "s1")).Add(1)
	r.Gauge("depth", "Queue depth.", nil).Set(2)
	r.GaugeFunc("workers", "Announced workers.", nil, func() float64 { return 4 })
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.1, 1}, L("node", "s0"))
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)

	var b strings.Builder
	r.WriteText(&b)
	want := `# HELP cmd_total Commands processed.
# TYPE cmd_total counter
cmd_total{node="s0"} 3
cmd_total{node="s1"} 1
# HELP depth Queue depth.
# TYPE depth gauge
depth 2
# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{node="s0",le="0.1"} 1
lat_seconds_bucket{node="s0",le="1"} 2
lat_seconds_bucket{node="s0",le="+Inf"} 3
lat_seconds_sum{node="s0"} 2.55
lat_seconds_count{node="s0"} 3
# HELP workers Announced workers.
# TYPE workers gauge
workers 4
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:               "0",
		2:               "2",
		-3:              "-3",
		0.25:            "0.25",
		math.Inf(1):     "+Inf",
		math.Inf(-1):    "-Inf",
		1e15:            "1e+15",
		1234567890123:   "1234567890123",
		0.005:           "0.005",
		2.5500000000004: "2.5500000000004",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestParseSeriesKeyRoundTrip(t *testing.T) {
	ls := L("node", "s0", "peer", `we"ird=x`, "dir", "rx")
	back := parseSeriesKey(ls.render())
	if len(back) != len(ls) {
		t.Fatalf("round trip lost labels: %v vs %v", back, ls)
	}
	for k, v := range ls {
		if back[k] != v {
			t.Errorf("label %q = %q, want %q", k, back[k], v)
		}
	}
}
