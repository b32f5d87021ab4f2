package core

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"copernicus/internal/controller"
	"copernicus/internal/obs"
)

// httpGetBody fetches url and returns the body, failing the test on error.
func httpGetBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return string(body)
}

// promValue sums the sample values of every series of a metric family in a
// Prometheus text exposition body.
func promValue(t *testing.T, body, name string) float64 {
	t.Helper()
	var total float64
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		// Exact family match only: next char must open labels or a space.
		if rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		total += v
	}
	return total
}

// TestFabricObservabilityEndToEnd runs a small MSM project on a fabric with
// a shared Obs bundle and then checks the tentpole claims: the trace holds
// at least one command's complete lifecycle (submit → queue_wait → dispatch
// → run → result → controller) with causally ordered timestamps, and the
// MonitorHandler's /metrics reports the work that was done.
func TestFabricObservabilityEndToEnd(t *testing.T) {
	o := obs.New()
	p := smallMSMParams()
	p.Generations = 2
	f, err := NewFabric(FabricConfig{Servers: 1, WorkersPerServer: 2, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Submit(ctxTimeout(t, 30*time.Second), "obs-msm", controller.MSMControllerName, &p); err != nil {
		t.Fatal(err)
	}
	if st, err := f.Wait(ctxTimeout(t, 2*time.Minute), "obs-msm"); err != nil || st.State != "finished" {
		t.Fatalf("project did not finish: state=%v err=%v", st.State, err)
	}

	// Group lifecycle spans by command and find one with all six stages.
	byCmd := make(map[string][]obs.Span)
	for _, s := range o.Trace.Spans() {
		if s.Command != "" {
			byCmd[s.Command] = append(byCmd[s.Command], s)
		}
	}
	if len(byCmd) == 0 {
		t.Fatal("no command spans recorded")
	}
	var complete []obs.Span
	for _, spans := range byCmd {
		stages := make(map[string]bool)
		for _, s := range spans {
			stages[s.Stage] = true
		}
		if len(stages) == len(obs.StageOrder) {
			complete = spans
			break
		}
	}
	if complete == nil {
		t.Fatalf("no command recorded all %d lifecycle stages across %d commands",
			len(obs.StageOrder), len(byCmd))
	}
	// Keep the earliest span per stage (requeues may repeat stages), then
	// check stage start times follow the causal order.
	earliest := make(map[string]obs.Span)
	for _, s := range complete {
		if prev, ok := earliest[s.Stage]; !ok || s.Start.Before(prev.Start) {
			earliest[s.Stage] = s
		}
	}
	ordered := make([]obs.Span, 0, len(earliest))
	for _, s := range earliest {
		ordered = append(ordered, s)
	}
	sort.Slice(ordered, func(i, j int) bool {
		return obs.StageOrder[ordered[i].Stage] < obs.StageOrder[ordered[j].Stage]
	})
	for i := 1; i < len(ordered); i++ {
		// A stage may start while the previous one is still open (queue_wait
		// spans open at submit time), but never before the previous started.
		if ordered[i].Start.Before(ordered[i-1].Start) {
			t.Errorf("stage %s started at %v, before %s at %v",
				ordered[i].Stage, ordered[i].Start, ordered[i-1].Stage, ordered[i-1].Start)
		}
	}
	for _, s := range ordered {
		if s.Duration < 0 {
			t.Errorf("stage %s has negative duration %v", s.Stage, s.Duration)
		}
	}

	// The per-stage summaries must cover every lifecycle stage.
	sums := obs.Summarize(o.Trace.Spans())
	for stage := range obs.StageOrder {
		if sums[stage].Count == 0 {
			t.Errorf("stage %s missing from summaries", stage)
		}
	}

	// /metrics through the real MonitorHandler must report the finished work.
	srv := httptest.NewServer(f.ProjectServer().MonitorHandler())
	defer srv.Close()
	body := httpGetBody(t, srv.URL+"/metrics")
	finished := promValue(t, body, "copernicus_commands_finished_total")
	if finished == 0 {
		t.Error("copernicus_commands_finished_total is zero after a finished project")
	}
	for _, name := range []string{
		"copernicus_queue_depth",
		"copernicus_dispatch_latency_seconds_count",
		"copernicus_worker_commands_ok_total",
		"copernicus_worker_command_seconds_count",
		"copernicus_generations_total",
		"copernicus_overlay_messages_total",
	} {
		if !strings.Contains(body, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}

	// /debug/trace serves the spans as JSON with the summaries attached.
	var dump struct {
		Recorded uint64                      `json:"recorded"`
		Stages   map[string]obs.StageSummary `json:"stages"`
		Spans    []obs.Span                  `json:"spans"`
	}
	if err := json.Unmarshal([]byte(httpGetBody(t, srv.URL+"/debug/trace")), &dump); err != nil {
		t.Fatalf("decoding /debug/trace: %v", err)
	}
	if dump.Recorded == 0 || len(dump.Spans) == 0 {
		t.Error("/debug/trace served no spans")
	}
	if dump.Stages[obs.StageRun].Count == 0 {
		t.Error("/debug/trace summaries missing the run stage")
	}
}
