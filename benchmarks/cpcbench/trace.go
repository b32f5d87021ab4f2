package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one interval recorded at a boundary the benchmark owns. Parent is
// the index of the enclosing span in the trace file (-1 for a root); all
// spans of one command share Cmd.
type span struct {
	Name   string    `json:"name"`
	Cmd    string    `json:"cmd,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Parent int       `json:"parent"`
	// SelfNs is the span's duration minus the part its children cover.
	SelfNs int64 `json:"self_ns"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// traceFile is the format of out/trace_<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	// SelfNsByName sums self time per span name: where the wall time of the
	// commands went, boundary by boundary.
	SelfNsByName map[string]int64 `json:"self_ns_by_name"`
	Spans        []span           `json:"spans"`
}

// commandSpans turns the recorder's per-command boundaries into a span
// tree: fabric.cmd (submit to the end of the controller's reaction) is the
// root; controller.submit, worker.pickup, engine.run (with its engine.emit
// children), worker.return and controller.finished tile it;
// controller.frame_chunk spans hang off the root as well.
func (r *recorder) commandSpans() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]string, 0, len(r.cmds))
	for id, ct := range r.cmds { // id is project/ID: unique across the campaigns of a phase
		if !ct.submitStart.IsZero() && !ct.runStart.IsZero() && !ct.finEnd.IsZero() {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	var out []span
	for _, id := range ids {
		ct := r.cmds[id]
		root := len(out)
		out = append(out, span{Name: "fabric.cmd", Cmd: id, Start: ct.submitStart, End: ct.finEnd, Parent: -1})
		add := func(name string, start, end time.Time, parent int) int {
			out = append(out, span{Name: name, Cmd: id, Start: start, End: end, Parent: parent})
			return len(out) - 1
		}
		add("controller.submit", ct.submitStart, ct.submitEnd, root)
		add("worker.pickup", ct.submitEnd, ct.runStart, root)
		run := add("engine.run", ct.runStart, ct.runEnd, root)
		for _, e := range ct.emits {
			add(e.Name, e.Start, e.End, run)
		}
		add("worker.return", ct.runEnd, ct.finStart, root)
		add("controller.finished", ct.finStart, ct.finEnd, root)
		for _, c := range ct.chunks {
			// Chunks are handled while the engine still runs; they overlap
			// engine.run in time but are the controller's work, so they are
			// roots of their own and do not reduce the command's self time.
			add(c.Name, c.Start, c.End, -1)
		}
	}
	selfTimes(out)
	return out
}

// selfTimes fills SelfNs: duration minus the union of the children's
// intervals, clipped to the parent.
func selfTimes(spans []span) {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start.Before(spans[kids[b]].Start) })
		covered := time.Duration(0)
		cursor := s.Start
		for _, k := range kids {
			ks, ke := spans[k].Start, spans[k].End
			if ks.Before(cursor) {
				ks = cursor
			}
			if ke.After(s.End) {
				ke = s.End
			}
			if ke.After(ks) {
				covered += ke.Sub(ks)
				cursor = ke
			}
		}
		s.SelfNs = int64(s.dur() - covered)
	}
}

func writeTrace(path, workload string, spans []span) error {
	tf := traceFile{Workload: workload, SelfNsByName: make(map[string]int64), Spans: spans}
	for _, s := range spans {
		tf.SelfNsByName[s.Name] += s.SelfNs
	}
	data, err := json.Marshal(&tf) // compact: a run records tens of thousands of spans
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
