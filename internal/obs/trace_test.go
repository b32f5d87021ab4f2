package obs

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestTracerEvictionOrder fills the ring past capacity and checks that the
// oldest spans are evicted first and the survivors come back oldest-first.
func TestTracerEvictionOrder(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 7; i++ {
		tr.Record(Span{Stage: StageRun, Command: fmt.Sprintf("c%d", i)})
	}
	if got := tr.Total(); got != 7 {
		t.Fatalf("total = %d, want 7", got)
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	for i, s := range spans {
		want := fmt.Sprintf("c%d", i+3) // c0..c2 evicted
		if s.Command != want {
			t.Errorf("span %d = %q, want %q", i, s.Command, want)
		}
	}
}

// TestTracerGrowsOnDemand: the ring is allocated as spans arrive, not up
// front, never beyond its capacity, and keeps the eviction order across the
// growth steps.
func TestTracerGrowsOnDemand(t *testing.T) {
	const n = 1000
	tracers := make([]*Tracer, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range tracers {
		tracers[i] = NewTracer(0)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 1024 {
		t.Errorf("a new tracer allocates %d bytes before any span arrives, want < 1 KiB", per)
	}

	tr := NewTracer(2500)
	if len(tr.Spans()) != 0 {
		t.Fatal("a new tracer holds spans")
	}
	for i := 0; i < 6000; i++ {
		tr.Record(Span{Stage: StageRun, Command: fmt.Sprintf("c%d", i)})
	}
	held := 0
	for _, c := range tr.chunks {
		held += len(c)
	}
	if held != 2500 {
		t.Errorf("ring of capacity 2500 grew to %d spans", held)
	}
	spans := tr.Spans()
	if len(spans) != 2500 {
		t.Fatalf("retained %d spans, want 2500", len(spans))
	}
	for i, s := range spans {
		if want := fmt.Sprintf("c%d", i+3500); s.Command != want {
			t.Fatalf("span %d = %q, want %q", i, s.Command, want)
		}
	}
}

func TestTracerPartialFill(t *testing.T) {
	tr := NewTracer(8)
	tr.Record(Span{Stage: StageSubmit, Command: "a"})
	tr.Record(Span{Stage: StageRun, Command: "b"})
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Command != "a" || spans[1].Command != "b" {
		t.Fatalf("unexpected spans: %+v", spans)
	}
	if spans[0].Start.IsZero() {
		t.Error("Record should stamp a zero Start")
	}
}

func TestNilTracerNoop(t *testing.T) {
	var tr *Tracer
	tr.Record(Span{Stage: StageRun})
	if tr.Spans() != nil || tr.Total() != 0 || tr.Capacity() != 0 {
		t.Fatal("nil tracer should read as empty")
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Record(Span{Stage: StageRun, Command: fmt.Sprintf("g%d-%d", g, i)})
				_ = tr.Spans()
			}
		}(g)
	}
	wg.Wait()
	if got := tr.Total(); got != 4000 {
		t.Fatalf("total = %d, want 4000", got)
	}
}

func TestSummarizeQuantiles(t *testing.T) {
	var spans []Span
	for i := 1; i <= 100; i++ {
		spans = append(spans, Span{Stage: StageRun, Duration: time.Duration(i) * time.Millisecond})
	}
	spans = append(spans, Span{Stage: StageSubmit, Duration: 5 * time.Millisecond})
	sum := Summarize(spans)
	run := sum[StageRun]
	if run.Count != 100 {
		t.Fatalf("run count = %d, want 100", run.Count)
	}
	if run.P50ms < 49 || run.P50ms > 51 {
		t.Errorf("p50 = %v, want ≈50", run.P50ms)
	}
	if run.MaxMs != 100 {
		t.Errorf("max = %v, want 100", run.MaxMs)
	}
	if sum[StageSubmit].Count != 1 || sum[StageSubmit].MaxMs != 5 {
		t.Errorf("submit summary wrong: %+v", sum[StageSubmit])
	}
}

func TestTraceHandlerFilters(t *testing.T) {
	tr := NewTracer(16)
	tr.Record(Span{Stage: StageSubmit, Command: "c1", Project: "p"})
	tr.Record(Span{Stage: StageRun, Command: "c1", Project: "p"})
	tr.Record(Span{Stage: StageRun, Command: "c2", Project: "p"})

	get := func(url string) traceDump {
		rec := httptest.NewRecorder()
		tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
			t.Fatalf("Cache-Control = %q, want no-store", cc)
		}
		var dump traceDump
		if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
		return dump
	}

	all := get("/debug/trace")
	if all.Retained != 3 || len(all.Spans) != 3 || all.Recorded != 3 {
		t.Fatalf("unfiltered dump wrong: %+v", all)
	}
	if all.Stages[StageRun].Count != 2 {
		t.Errorf("run stage count = %d, want 2", all.Stages[StageRun].Count)
	}
	byCmd := get("/debug/trace?command=c1")
	if len(byCmd.Spans) != 2 {
		t.Errorf("command filter kept %d spans, want 2", len(byCmd.Spans))
	}
	byStage := get("/debug/trace?stage=run&command=c2")
	if len(byStage.Spans) != 1 || byStage.Spans[0].Command != "c2" {
		t.Errorf("combined filter wrong: %+v", byStage.Spans)
	}
	// Summaries are computed over everything, not the filtered subset.
	if byStage.Stages[StageSubmit].Count != 1 {
		t.Errorf("summaries should ignore filters: %+v", byStage.Stages)
	}
}

func TestStageOrderComplete(t *testing.T) {
	stages := []string{StageSubmit, StageQueueWait, StageDispatch, StageRun, StageResult, StageController}
	for i, s := range stages {
		if StageOrder[s] != i {
			t.Errorf("StageOrder[%s] = %d, want %d", s, StageOrder[s], i)
		}
	}
}
