package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"copernicus/internal/obs"
	"copernicus/internal/wire"
)

// monitorStatus is the JSON shape served per project (results are omitted:
// they can be megabytes; clients fetch them over the wire protocol).
type monitorStatus struct {
	Name       string `json:"name"`
	Controller string `json:"controller"`
	State      string `json:"state"`
	Generation int    `json:"generation"`
	Queued     int    `json:"queued"`
	Running    int    `json:"running"`
	Finished   int    `json:"finished"`
	Failed     int    `json:"failed"`
	Note       string `json:"note"`
	HasResult  bool   `json:"hasResult"`
}

func toMonitor(st wire.ProjectStatus) monitorStatus {
	return monitorStatus{
		Name:       st.Name,
		Controller: st.Controller,
		State:      st.State,
		Generation: st.Generation,
		Queued:     st.Queued,
		Running:    st.Running,
		Finished:   st.Finished,
		Failed:     st.Failed,
		Note:       st.Note,
		HasResult:  st.Result != nil,
	}
}

// MonitorHandler returns the HTTP handler of the paper's real-time
// monitoring interface:
//
//	GET /                 human-readable overview
//	GET /projects         JSON list of project statuses
//	GET /projects/N       JSON status of project N
//	GET /workers          JSON list of announced workers
//	GET /healthz          liveness probe
//	GET /metrics          Prometheus text exposition (queue depth, dispatch
//	                      latency, per-worker command counters, ...)
//	GET /debug/trace      command-lifecycle spans + per-stage quantiles
//	GET /debug/pprof/...  runtime profiling
//
// All endpoints are read-only: non-GET methods are rejected with 405, and
// dynamic responses carry Cache-Control: no-store. Serve it with
// http.ListenAndServe(addr, s.MonitorHandler()) or mount it under an
// existing mux; it performs no writes and needs no authentication beyond
// what the deployment puts in front of it.
func (s *Server) MonitorHandler() http.Handler {
	mux := http.NewServeMux()
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		if err := json.NewEncoder(w).Encode(v); err != nil {
			s.core.log.Warn("monitor encode failed", "err", err)
		}
	}
	handle := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, obs.ReadOnly(h))
	}
	handle("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	handle("/projects", func(w http.ResponseWriter, r *http.Request) {
		sts := s.Projects()
		out := make([]monitorStatus, 0, len(sts))
		for _, st := range sts {
			out = append(out, toMonitor(st))
		}
		writeJSON(w, out)
	})
	handle("/projects/", func(w http.ResponseWriter, r *http.Request) {
		// Normalize: a single trailing slash is tolerated
		// ("/projects/alpha/" serves alpha), deeper subpaths are 404s.
		name := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/projects/"), "/")
		if name == "" || strings.Contains(name, "/") {
			http.NotFound(w, r)
			return
		}
		st, ok := s.Project(name)
		if !ok {
			http.Error(w, "unknown project", http.StatusNotFound)
			return
		}
		writeJSON(w, toMonitor(st))
	})
	handle("/workers", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Workers())
	})
	s.cfg.Obs.Register(mux)
	handle("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "copernicus server %s\n\n", s.node.ID())
		fmt.Fprintf(w, "%-20s %-12s %-10s %4s %7s %8s %9s %7s  %s\n",
			"PROJECT", "CONTROLLER", "STATE", "GEN", "QUEUED", "RUNNING", "FINISHED", "FAILED", "NOTE")
		for _, st := range s.Projects() {
			fmt.Fprintf(w, "%-20s %-12s %-10s %4d %7d %8d %9d %7d  %s\n",
				st.Name, st.Controller, st.State, st.Generation,
				st.Queued, st.Running, st.Finished, st.Failed, st.Note)
		}
		fmt.Fprintf(w, "\n%d workers announced; queue depth %d\n", len(s.Workers()), s.QueueLen())
	})
	return mux
}
