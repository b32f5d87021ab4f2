package obs

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Command lifecycle stages, in causal order. A command that completes
// successfully leaves one span per stage in the tracer (run spans are
// recorded by the worker, the rest by the project server — an in-process
// Fabric shares one tracer, so all six appear together).
const (
	StageSubmit     = "submit"     // controller handed the command to the queue
	StageQueueWait  = "queue_wait" // time spent queued (recorded at dispatch)
	StageDispatch   = "dispatch"   // matched to a worker's announcement
	StageRun        = "run"        // engine execution on the worker
	StageResult     = "result"     // result uploaded to the project server
	StageController = "controller" // controller reaction (MSM rebuild / respawn)
)

// StageOrder maps lifecycle stages to their causal position, for sorting
// and completeness checks.
var StageOrder = map[string]int{
	StageSubmit:     0,
	StageQueueWait:  1,
	StageDispatch:   2,
	StageRun:        3,
	StageResult:     4,
	StageController: 5,
}

// Span is one recorded lifecycle (or auxiliary) event. Start is when the
// spanned work began; Duration is zero for instantaneous events.
type Span struct {
	Stage    string            `json:"stage"`
	Command  string            `json:"command,omitempty"`
	Project  string            `json:"project,omitempty"`
	Worker   string            `json:"worker,omitempty"`
	Start    time.Time         `json:"start"`
	Duration time.Duration     `json:"duration_ns"`
	Err      string            `json:"error,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// Tracer records spans into a bounded ring buffer: the newest Capacity
// spans are retained, older ones are evicted in FIFO order. The ring is
// allocated a chunk at a time as spans arrive, so a tracer nothing records
// into costs next to nothing and a full one holds exactly Capacity spans.
// A nil *Tracer drops all records.
type Tracer struct {
	capn   int
	mu     sync.Mutex
	chunks [][]Span // the ring, traceChunk spans per chunk
	total  uint64   // spans ever recorded
}

// DefaultTraceCapacity bounds the ring buffer when no capacity is given.
const DefaultTraceCapacity = 4096

// traceChunk is how many spans the ring grows by at a time: on 64-bit
// platforms 120 KiB, whole pages, so a chunk carries no allocation slack.
const traceChunk = 1024

// NewTracer returns a tracer retaining the last capacity spans
// (DefaultTraceCapacity if capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{capn: capacity}
}

// Capacity returns the ring buffer size.
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return t.capn
}

// slot is ring position i.
func (t *Tracer) slot(i int) *Span { return &t.chunks[i/traceChunk][i%traceChunk] }

// Record stores a span, stamping Start with the current time if unset.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	if s.Start.IsZero() {
		s.Start = time.Now()
	}
	t.mu.Lock()
	i := int(t.total % uint64(t.capn))
	if t.total < uint64(t.capn) && i%traceChunk == 0 {
		t.chunks = append(t.chunks, make([]Span, min(traceChunk, t.capn-i)))
	}
	*t.slot(i) = s
	t.total++
	t.mu.Unlock()
}

// Spans returns the retained spans, oldest first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n, oldest := t.capn, int(t.total%uint64(t.capn))
	if t.total < uint64(t.capn) {
		n, oldest = int(t.total), 0
	}
	out := make([]Span, n)
	for k := range out {
		out[k] = *t.slot((oldest + k) % t.capn)
	}
	return out
}

// Total returns the number of spans ever recorded (including evicted ones).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// StageSummary is the per-stage latency digest served on /debug/trace.
type StageSummary struct {
	Count int     `json:"count"`
	P50ms float64 `json:"p50_ms"`
	P90ms float64 `json:"p90_ms"`
	P99ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

// Summarize computes latency quantiles per stage over the retained spans.
func Summarize(spans []Span) map[string]StageSummary {
	byStage := make(map[string][]float64)
	for _, s := range spans {
		byStage[s.Stage] = append(byStage[s.Stage], float64(s.Duration)/float64(time.Millisecond))
	}
	out := make(map[string]StageSummary, len(byStage))
	for stage, ds := range byStage {
		sort.Float64s(ds)
		q := func(p float64) float64 {
			i := int(p * float64(len(ds)-1))
			return ds[i]
		}
		out[stage] = StageSummary{
			Count: len(ds),
			P50ms: q(0.50),
			P90ms: q(0.90),
			P99ms: q(0.99),
			MaxMs: ds[len(ds)-1],
		}
	}
	return out
}

// traceDump is the JSON shape of /debug/trace.
type traceDump struct {
	Capacity int                     `json:"capacity"`
	Recorded uint64                  `json:"recorded"`
	Retained int                     `json:"retained"`
	Stages   map[string]StageSummary `json:"stages"`
	Spans    []Span                  `json:"spans"`
}

// Handler serves the retained spans and per-stage quantiles as JSON.
// Optional query parameters filter the span list (but not the summaries):
// ?command=ID, ?project=NAME, ?stage=NAME.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		spans := t.Spans()
		dump := traceDump{
			Capacity: t.Capacity(),
			Recorded: t.Total(),
			Retained: len(spans),
			Stages:   Summarize(spans),
		}
		q := req.URL.Query()
		cmd, project, stage := q.Get("command"), q.Get("project"), q.Get("stage")
		dump.Spans = spans[:0]
		for _, s := range spans {
			if (cmd == "" || s.Command == cmd) &&
				(project == "" || s.Project == project) &&
				(stage == "" || s.Stage == stage) {
				dump.Spans = append(dump.Spans, s)
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(&dump)
	})
}
