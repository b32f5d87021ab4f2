// Package obs is the observability substrate of the reproduction: a
// dependency-free metrics registry with Prometheus text exposition, a
// leveled key=value structured logger, and a lightweight span tracer that
// follows each command through its full lifecycle (submit → queue wait →
// dispatch → worker run → result upload → controller reaction).
//
// It plays the role of the paper's §3 monitoring interface, extended with
// the per-stage timing data that ensemble frameworks need to tune their
// schedulers: every control-plane package (server, worker, overlay, queue,
// controller) records into one shared Obs bundle, and the server's
// MonitorHandler serves the results on /metrics, /debug/trace and
// /debug/pprof.
//
// All metric primitives are safe for concurrent use and safe to call on a
// nil receiver (a nil Counter/Gauge/Histogram silently drops the update),
// so instrumentation can be threaded through hot paths unconditionally.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels is a metric's label set. The zero value (nil) means no labels.
type Labels map[string]string

// L builds a Labels set from alternating key/value pairs: L("worker", id).
// An odd trailing key is dropped.
func L(kv ...string) Labels {
	ls := make(Labels, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		ls[kv[i]] = kv[i+1]
	}
	return ls
}

// render serialises labels in sorted-key order as {k="v",...}; empty labels
// render as "". The result doubles as the series key and the exposition
// suffix.
func (ls Labels) render(extra ...string) string {
	if len(ls) == 0 && len(extra) == 0 {
		return ""
	}
	keys := make([]string, 0, len(ls))
	for k := range ls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(ls[k]))
	}
	for i := 0; i+1 < len(extra); i += 2 {
		if len(keys) > 0 || i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra[i])
		b.WriteByte('=')
		b.WriteString(strconv.Quote(extra[i+1]))
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing metric. Nil receivers no-op.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64 value. Nil receivers no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram observes a value distribution into fixed cumulative buckets
// (Prometheus semantics: bucket le="x" counts observations ≤ x). Nil
// receivers no-op.
type Histogram struct {
	bounds []float64       // sorted upper bounds; +Inf bucket is implicit
	counts []atomic.Uint64 // len(bounds)+1
	sum    atomic.Uint64   // float64 bits
	count  atomic.Uint64
}

// DefBuckets are general-purpose latency buckets in seconds (5 ms – 10 s).
func DefBuckets() []float64 {
	return []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}
}

// SizeBuckets are byte-size buckets (256 B – 16 MiB).
func SizeBuckets() []float64 {
	return []float64{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20}
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v, so v ≤ bounds[i]
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// metric is one registered series.
type metric struct {
	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
}

// family groups the series of one metric name.
type family struct {
	name    string
	help    string
	typ     string // "counter", "gauge", "histogram"
	buckets []float64
	series  map[string]*metric // rendered labels → series
}

// Registry holds metric families and serves them in Prometheus text format.
// The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns (creating if needed) the family and the series for labels.
// It panics if the name was previously registered with a different type —
// a programming error, mirroring the Prometheus client.
func (r *Registry) lookup(name, help, typ string, labels Labels, buckets []float64) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, buckets: buckets, series: make(map[string]*metric)}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, typ, f.typ))
	}
	key := labels.render()
	m := f.series[key]
	if m == nil {
		m = &metric{}
		switch typ {
		case "counter":
			m.counter = &Counter{}
		case "gauge":
			m.gauge = &Gauge{}
		case "histogram":
			m.hist = newHistogram(f.buckets)
		}
		f.series[key] = m
	}
	return m
}

// Counter returns the counter series name{labels}, creating it on first use.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return r.lookup(name, help, "counter", labels, nil).counter
}

// Gauge returns the gauge series name{labels}, creating it on first use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	return r.lookup(name, help, "gauge", labels, nil).gauge
}

// GaugeFunc registers a callback-backed gauge, sampled at exposition time.
// The callback must not call back into the registry.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.lookup(name, help, "gauge", labels, nil).gaugeFn = fn
}

// Histogram returns the histogram series name{labels} with the given
// bucket upper bounds (nil selects DefBuckets). Buckets are fixed by the
// first registration of the name.
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	if buckets == nil {
		buckets = DefBuckets()
	}
	return r.lookup(name, help, "histogram", labels, buckets).hist
}

// formatFloat renders a sample value the way Prometheus text format expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatFloat(v, 'f', -1, 64)
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// WriteText writes every family in Prometheus text exposition format
// (families and series in sorted order, so output is deterministic).
func (r *Registry) WriteText(w io.Writer) {
	// Snapshot the family and series maps under the lock — lookup keeps
	// inserting series concurrently — then format outside it; the sample
	// values themselves are atomics, safe to read unlocked.
	type famSnap struct {
		f    *family
		keys []string
		ms   []*metric
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]famSnap, 0, len(names))
	for _, n := range names {
		f := r.families[n]
		sn := famSnap{f: f, keys: make([]string, 0, len(f.series))}
		for k := range f.series {
			sn.keys = append(sn.keys, k)
		}
		sort.Strings(sn.keys)
		sn.ms = make([]*metric, len(sn.keys))
		for i, k := range sn.keys {
			sn.ms[i] = f.series[k]
		}
		fams = append(fams, sn)
	}
	r.mu.Unlock()

	for _, sn := range fams {
		f := sn.f
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for i, k := range sn.keys {
			m := sn.ms[i]
			switch f.typ {
			case "counter":
				fmt.Fprintf(w, "%s%s %d\n", f.name, k, m.counter.Value())
			case "gauge":
				v := m.gauge.Value()
				if m.gaugeFn != nil {
					v = m.gaugeFn()
				}
				fmt.Fprintf(w, "%s%s %s\n", f.name, k, formatFloat(v))
			case "histogram":
				h := m.hist
				// Re-render the base labels with le appended per bucket.
				base := parseSeriesKey(k)
				var cum uint64
				for i, bound := range h.bounds {
					cum += h.counts[i].Load()
					fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, base.render("le", formatFloat(bound)), cum)
				}
				cum += h.counts[len(h.bounds)].Load()
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, base.render("le", "+Inf"), cum)
				fmt.Fprintf(w, "%s_sum%s %s\n", f.name, k, formatFloat(h.Sum()))
				fmt.Fprintf(w, "%s_count%s %d\n", f.name, k, h.Count())
			}
		}
	}
}

// parseSeriesKey inverts Labels.render (keys never contain quotes or '=').
func parseSeriesKey(key string) Labels {
	if key == "" {
		return nil
	}
	ls := make(Labels)
	body := strings.TrimSuffix(strings.TrimPrefix(key, "{"), "}")
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 {
			break
		}
		k := body[:eq]
		rest := body[eq+1:]
		v, err := strconv.QuotedPrefix(rest)
		if err != nil {
			break
		}
		uq, _ := strconv.Unquote(v)
		ls[k] = uq
		body = strings.TrimPrefix(rest[len(v):], ",")
	}
	return ls
}

// Handler serves the registry in Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var b strings.Builder
		r.WriteText(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Header().Set("Cache-Control", "no-store")
		_, _ = w.Write([]byte(b.String()))
	})
}
