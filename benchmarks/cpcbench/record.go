package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"copernicus/internal/controller"
	"copernicus/internal/engines"
	"copernicus/internal/wire"
)

// mark is the process state at a round boundary.
type mark struct {
	at         time.Time
	cmds       int64
	totalAlloc uint64
	mallocs    uint64
	gcPauseNs  uint64
	cpu        time.Duration
}

func takeMark(cmds int64) mark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mark{
		at:         time.Now(),
		cmds:       cmds,
		totalAlloc: ms.TotalAlloc,
		mallocs:    ms.Mallocs,
		gcPauseNs:  ms.PauseTotalNs,
		cpu:        processCPU(),
	}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// round is one equal-count slice of the command stream.
type round struct {
	start, end time.Time
	cmds       int64
}

func (r round) rate() float64 { return float64(r.cmds) / r.end.Sub(r.start).Seconds() }

// cmdTimes are the boundaries one command crossed, recorded only in a
// traced phase. All spans of a command share its ID.
type cmdTimes struct {
	submitStart, submitEnd time.Time
	runStart, runEnd       time.Time
	finStart, finEnd       time.Time
	cores                  int
	emits                  []span // engine.emit, children of engine.run
	chunks                 []span // controller.frame_chunk
}

// recorder is shared by every wrapper of one measured phase: the controller
// decorator, the engine wrapper and the round clock.
type recorder struct {
	trace bool
	// roundK > 0 cuts the stream at every roundK-th completion (loop
	// workloads); campaign workloads add their rounds themselves.
	roundK int64

	done atomic.Int64

	mu          sync.Mutex
	marks       []mark
	rounds      []round
	seen        map[string]int // project/command ID -> results delivered to its controller
	submitted   int64
	firstSubmit time.Time
	failed      int64 // CommandFailed calls + outputs that did not verify
	firstAt     time.Time
	cmds        map[string]*cmdTimes
	outputs     [][]byte      // raw result outputs, kept for the msm probes
	finishAt    time.Time     // the latest Finish
	finished    chan struct{} // one send per controller that calls Finish
	sampleCmd   *wire.CommandSpec
	sampleRes   *wire.CommandResult
	keepOut     bool
	chunkEnds   map[string]int // project/command ID -> one past the last streamed frame
	dupChunks   int64
}

func newRecorder(trace bool, roundK int64) *recorder {
	return &recorder{
		trace:     trace,
		roundK:    roundK,
		seen:      make(map[string]int),
		cmds:      make(map[string]*cmdTimes),
		finished:  make(chan struct{}, benchProcs), // a phase never has more projects than CPUs
		chunkEnds: make(map[string]int),
	}
}

// times returns the boundary record of one command. Command IDs are unique
// within a project only, so everything is keyed by project/ID.
func (r *recorder) times(project, id string) *cmdTimes {
	key := project + "/" + id
	ct := r.cmds[key]
	if ct == nil {
		ct = &cmdTimes{}
		r.cmds[key] = ct
	}
	return ct
}

// completed counts one delivered result and closes a round on every
// roundK-th.
func (r *recorder) completed() {
	n := r.done.Add(1)
	if r.roundK <= 0 || n%r.roundK != 0 {
		return
	}
	m := takeMark(n)
	r.mu.Lock()
	start, prev := r.firstSubmit, int64(0)
	if len(r.marks) > 0 {
		last := r.marks[len(r.marks)-1]
		start, prev = last.at, last.cmds
	}
	r.rounds = append(r.rounds, round{start: start, end: m.at, cmds: m.cmds - prev})
	r.marks = append(r.marks, m)
	r.mu.Unlock()
}

// tracedCtl decorates a controller: it counts every command ID in and out,
// stamps the first result, and in a traced phase times each handler.
type tracedCtl struct {
	inner controller.Controller
	rec   *recorder
}

func (t *tracedCtl) Name() string { return t.inner.Name() }

func (t *tracedCtl) Start(ctx controller.Context, params []byte) error {
	return t.inner.Start(&tracedCtx{Context: ctx, rec: t.rec}, params)
}

func (t *tracedCtl) CommandFinished(ctx controller.Context, res *wire.CommandResult) error {
	r := t.rec
	start := time.Now()
	r.mu.Lock()
	r.seen[ctx.ProjectName()+"/"+res.CommandID]++
	if r.firstAt.IsZero() {
		r.firstAt = start
	}
	if r.keepOut {
		r.outputs = append(r.outputs, res.Output)
	}
	if r.trace && r.sampleRes == nil {
		cp := *res
		r.sampleRes = &cp
	}
	r.mu.Unlock()
	err := t.inner.CommandFinished(&tracedCtx{Context: ctx, rec: r}, res)
	if r.trace {
		end := time.Now()
		r.mu.Lock()
		ct := r.times(ctx.ProjectName(), res.CommandID)
		ct.finStart, ct.finEnd = start, end
		r.mu.Unlock()
	}
	r.completed()
	return err
}

func (t *tracedCtl) CommandFailed(ctx controller.Context, cmd wire.CommandSpec, reason string) error {
	t.rec.mu.Lock()
	t.rec.failed++
	t.rec.mu.Unlock()
	return t.inner.CommandFailed(&tracedCtx{Context: ctx, rec: t.rec}, cmd, reason)
}

// FrameChunk implements controller.FrameSink for inner controllers that do.
// It also checks the exactly-once contract of the stream: the server's
// watermark must have dropped any chunk that does not extend the command's
// frame range.
func (t *tracedCtl) FrameChunk(ctx controller.Context, chunk *wire.FrameChunk) error {
	sink, ok := t.inner.(controller.FrameSink)
	if !ok {
		return nil
	}
	r := t.rec
	start := time.Now()
	err := sink.FrameChunk(&tracedCtx{Context: ctx, rec: r}, chunk)
	end := time.Now()
	r.mu.Lock()
	key := ctx.ProjectName() + "/" + chunk.CommandID
	if last := chunk.FirstFrame + len(chunk.Frames); last <= r.chunkEnds[key] {
		r.dupChunks++
	} else {
		r.chunkEnds[key] = last
	}
	if r.trace {
		ct := r.times(ctx.ProjectName(), chunk.CommandID)
		ct.chunks = append(ct.chunks, span{Name: "controller.frame_chunk", Cmd: chunk.CommandID, Start: start, End: end})
	}
	r.mu.Unlock()
	return err
}

// SaveState and RestoreState implement controller.Durable by delegation; a
// durable fabric snapshots running projects and refuses controllers
// without it.
func (t *tracedCtl) SaveState() ([]byte, error) {
	d, ok := t.inner.(controller.Durable)
	if !ok {
		return nil, fmt.Errorf("cpcbench: controller %q is not durable", t.inner.Name())
	}
	return d.SaveState()
}

func (t *tracedCtl) RestoreState(data []byte) error {
	d, ok := t.inner.(controller.Durable)
	if !ok {
		return fmt.Errorf("cpcbench: controller %q is not durable", t.inner.Name())
	}
	return d.RestoreState(data)
}

// tracedCtx intercepts the two Context calls the benchmark needs to see:
// Submit (the command enters the system) and Finish (the campaign ends).
type tracedCtx struct {
	controller.Context
	rec *recorder
}

func (c *tracedCtx) Submit(cmd wire.CommandSpec) error {
	r := c.rec
	start := time.Now()
	err := c.Context.Submit(cmd)
	r.mu.Lock()
	if r.firstSubmit.IsZero() {
		r.firstSubmit = start
	}
	if err == nil {
		r.submitted++
		r.seen[c.ProjectName()+"/"+cmd.ID] += 0
	}
	if r.trace {
		ct := r.times(c.ProjectName(), cmd.ID)
		ct.submitStart, ct.submitEnd = start, time.Now()
	}
	r.mu.Unlock()
	return err
}

func (c *tracedCtx) Finish(result []byte) {
	c.Context.Finish(result)
	r := c.rec
	r.mu.Lock()
	r.finishAt = time.Now()
	r.mu.Unlock()
	r.finished <- struct{}{}
}

// registry wraps every factory of base in the decorator.
func (r *recorder) registry(factories map[string]controller.Factory) *controller.Registry {
	reg := controller.NewRegistry()
	for name, f := range factories {
		f := f
		reg.Register(name, func() controller.Controller {
			return &tracedCtl{inner: f(), rec: r}
		})
	}
	return reg
}

// tracedEngine times Run from outside; tracedStreamer adds the time the
// engine is stuck inside emit. Engines are wrapped only in a traced phase.
type tracedEngine struct {
	inner engines.Engine
	rec   *recorder
}

func (e *tracedEngine) Name() string { return e.inner.Name() }

func (e *tracedEngine) Run(ctx context.Context, spec wire.CommandSpec, cores int, progress func([]byte)) ([]byte, error) {
	start := time.Now()
	out, err := e.inner.Run(ctx, spec, cores, progress)
	e.ran(spec, cores, start, nil)
	return out, err
}

func (e *tracedEngine) ran(spec wire.CommandSpec, cores int, start time.Time, emits []span) {
	end := time.Now()
	r := e.rec
	r.mu.Lock()
	ct := r.times(spec.Project, spec.ID)
	ct.runStart, ct.runEnd, ct.cores, ct.emits = start, end, cores, emits
	if r.sampleCmd == nil {
		cp := spec
		r.sampleCmd = &cp
	}
	r.mu.Unlock()
}

type tracedStreamer struct {
	tracedEngine
	stream engines.Streamer
}

func (e *tracedStreamer) RunStream(ctx context.Context, spec wire.CommandSpec, cores int,
	progress func([]byte), emit func(*wire.FrameChunk)) ([]byte, error) {
	var emits []span
	timedEmit := func(chunk *wire.FrameChunk) {
		s := time.Now()
		emit(chunk)
		emits = append(emits, span{Name: "engine.emit", Cmd: spec.ID, Start: s, End: time.Now()})
	}
	start := time.Now()
	out, err := e.stream.RunStream(ctx, spec, cores, progress, timedEmit)
	e.ran(spec, cores, start, emits)
	return out, err
}

func (r *recorder) wrapEngines(es []engines.Engine) []engines.Engine {
	if !r.trace {
		return es
	}
	out := make([]engines.Engine, len(es))
	for i, e := range es {
		te := tracedEngine{inner: e, rec: r}
		if s, ok := e.(engines.Streamer); ok {
			out[i] = &tracedStreamer{tracedEngine: te, stream: s}
		} else {
			out[i] = &te
		}
	}
	return out
}
