package obs

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
)

// Obs bundles the three observability primitives every component records
// into. Components receive an *Obs through their Config; a nil Obs in a
// config is replaced with New() (metrics and traces recorded but unserved,
// logs discarded), so instrumentation is always safe to call.
type Obs struct {
	Metrics *Registry
	Trace   *Tracer
	Log     *Logger
}

// Options tunes NewWith.
type Options struct {
	// LogWriter receives log lines; nil discards them.
	LogWriter io.Writer
	// LogLevel is the minimum emitted level (LevelOff with a nil writer).
	LogLevel Level
	// TraceCapacity bounds the span ring buffer (DefaultTraceCapacity if 0).
	TraceCapacity int
}

// New returns a silent Obs: metrics and traces are recorded (and can be
// served later), log output is discarded.
func New() *Obs {
	return NewWith(Options{})
}

// NewWith returns an Obs configured by opts.
func NewWith(opts Options) *Obs {
	return &Obs{
		Metrics: NewRegistry(),
		Trace:   NewTracer(opts.TraceCapacity),
		Log:     NewLogger(opts.LogWriter, opts.LogLevel),
	}
}

// RegisterFlags adds the daemons' -log-level and -v flags to fs and returns
// the constructor, to call once fs is parsed, of the bundle they select:
// logging to stderr at that level, silent by default.
func RegisterFlags(fs *flag.FlagSet) func() (*Obs, error) {
	logLevel := fs.String("log-level", "", "log level: debug, info, warn, error, off (empty = off; -v = debug)")
	verbose := fs.Bool("v", false, "verbose logging (shorthand for -log-level debug)")
	return func() (*Obs, error) {
		level := LevelOff
		if *verbose {
			level = LevelDebug
		}
		if *logLevel != "" {
			var err error
			if level, err = ParseLevel(*logLevel); err != nil {
				return nil, fmt.Errorf("-log-level: %w", err)
			}
		}
		return NewWith(Options{LogWriter: os.Stderr, LogLevel: level}), nil
	}
}

// Register mounts the observability endpoints on mux:
//
//	GET /metrics              Prometheus text exposition
//	GET /debug/trace          command-lifecycle spans + per-stage quantiles
//	GET /debug/pprof/...      runtime profiling (CPU, heap, goroutine, ...)
//
// All endpoints are read-only; guard them at the deployment layer if the
// address is reachable from untrusted networks.
func (o *Obs) Register(mux *http.ServeMux) {
	mux.Handle("/metrics", ReadOnly(o.Metrics.Handler()))
	mux.Handle("/debug/trace", ReadOnly(o.Trace.Handler()))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Handler returns a standalone mux with the Register endpoints plus a
// /healthz liveness probe — what cpcserver and cpcworker serve on
// -metrics-addr.
func (o *Obs) Handler() http.Handler {
	mux := http.NewServeMux()
	o.Register(mux)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, "ok\n")
	})
	return mux
}

// ReadOnly rejects every method except GET and HEAD with 405 — the guard
// in front of every monitoring endpoint (they perform no writes).
func ReadOnly(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		next.ServeHTTP(w, r)
	})
}
