package obs

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestObsHandlerEndpoints(t *testing.T) {
	o := New()
	o.Metrics.Counter("copernicus_test_total", "", nil).Inc()
	o.Trace.Record(Span{Stage: StageRun, Command: "c1"})
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	get := func(path string) *http.Response {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp
	}

	if resp := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d", resp.StatusCode)
	}
	resp := get("/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	if resp := get("/debug/trace"); resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/trace = %d", resp.StatusCode)
	}
	if resp := get("/debug/pprof/"); resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ = %d", resp.StatusCode)
	}

	// Writes are rejected on the guarded endpoints.
	for _, path := range []string{"/metrics", "/debug/trace"} {
		resp, err := http.Post(srv.URL+path, "text/plain", strings.NewReader("x"))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != "GET, HEAD" {
			t.Errorf("POST %s Allow = %q", path, allow)
		}
	}
}

// TestRegisterFlags: -v means debug, -log-level overrides it, the default is
// silent, and an unknown level is an error rather than a silent default.
func TestRegisterFlags(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		enabled Level // lowest level that must be emitted; LevelOff = none
	}{
		{nil, LevelOff},
		{[]string{"-v"}, LevelDebug},
		{[]string{"-log-level", "warn"}, LevelWarn},
		{[]string{"-v", "-log-level", "error"}, LevelError},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		newObs := RegisterFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		o, err := newObs()
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		for l := LevelDebug; l < LevelOff; l++ {
			if got, want := o.Log.Enabled(l), l >= tc.enabled; got != want {
				t.Errorf("%v: level %v enabled = %v, want %v", tc.args, l, got, want)
			}
		}
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	newObs := RegisterFlags(fs)
	if err := fs.Parse([]string{"-log-level", "loud"}); err != nil {
		t.Fatal(err)
	}
	if _, err := newObs(); err == nil {
		t.Error("unknown -log-level accepted")
	}
}
