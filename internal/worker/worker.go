// Package worker implements the Copernicus worker client of §2.3: it
// announces its resources (platform, cores, installed executables) to its
// nearest server, receives a workload, executes the commands through the
// engine plugins, streams heartbeats, reports partial checkpoints for
// failover, and returns results to each command's project server through
// the overlay.
package worker

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"copernicus/internal/engines"
	"copernicus/internal/obs"
	"copernicus/internal/overlay"
	"copernicus/internal/retry"
	"copernicus/internal/store/atomicfile"
	"copernicus/internal/wire"
)

// Config tunes a worker.
type Config struct {
	// Platform is the announced platform plugin name ("smp" by default).
	Platform string
	// Cores is the announced core count (default 1).
	Cores int
	// PollInterval is the shortest time between two idle announces: the
	// back-off after one that came back empty or failed (default 500 ms —
	// batch systems would use seconds; tests use milliseconds). The server
	// holds an idle worker's announce open until work turns up, so an
	// announce held at least this long is followed by the next at once.
	PollInterval time.Duration
	// Retry is the backoff policy applied to every overlay request the
	// worker makes (announce, heartbeat, result upload). Zero fields take
	// the retry package defaults; PerAttempt defaults to 10 s.
	Retry retry.Policy
	// ServerAddrs lists transport addresses of known servers. When the home
	// peer stays unreachable for rehomeAfter consecutive announce rounds,
	// the worker dials the next address round-robin and adopts whichever
	// server answers as its new home — the paper's "connect to the nearest
	// available server" under churn.
	ServerAddrs []string
	// ResultSpoolDir, when set, lets the worker persist results it cannot
	// deliver to any server and redeliver them after the next successful
	// announcement, so finished CPU-hours survive a full partition.
	ResultSpoolDir string
	// FSToken and SpoolDir enable the shared-filesystem result path: when
	// the assigning server advertises the same token, results are written
	// under SpoolDir and passed by reference.
	FSToken  string
	SpoolDir string
	// CheckpointDir, when set, persists every engine progress checkpoint to
	// local disk (atomically, one file per command) so a restarted worker
	// process resumes a re-dispatched command from its own last checkpoint
	// even when the server never saw one — the server's checkpoint remains
	// authoritative whenever the dispatch carries it. Files are removed when
	// the command settles.
	CheckpointDir string
	// Obs carries the worker's metrics registry, span tracer and logger.
	// nil means a fresh silent bundle; pass a shared one to see worker run
	// spans alongside the server's lifecycle spans.
	Obs *obs.Obs
}

func (c *Config) fill() {
	if c.Platform == "" {
		c.Platform = "smp"
	}
	if c.Cores <= 0 {
		c.Cores = 1
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 500 * time.Millisecond
	}
	if c.Obs == nil {
		c.Obs = obs.New()
	}
	if c.Retry.PerAttempt <= 0 {
		c.Retry.PerAttempt = 10 * time.Second
	}
	c.Retry.Obs = c.Obs
}

// rehomeAfter is the number of consecutive failed announce rounds
// (post-retry) before the worker tries another server.
const rehomeAfter = 2

// Worker executes commands against a home server.
type Worker struct {
	node    *overlay.Node
	engines map[string]engines.Engine
	cfg     Config
	rpol    retry.Policy
	log     *obs.Logger
	met     workerMetrics

	// executables is the sorted engine list every announce carries.
	executables []string

	mu      sync.Mutex
	home    string // node ID of the current home server
	running map[string]context.CancelFunc

	// announceFails counts consecutive post-retry announce failures (only
	// touched from the Run loop); nextServer round-robins ServerAddrs.
	announceFails int
	nextServer    int

	// Completed counts finished commands (for tests and monitoring).
	completed int
}

// workerMetrics holds this worker's registry handles. Per-engine command
// wall-time histograms are resolved lazily (get-or-create) in runCommand.
type workerMetrics struct {
	announces       *obs.Counter
	announceErrors  *obs.Counter
	commandsOK      *obs.Counter
	commandsFailed  *obs.Counter
	resultErrors    *obs.Counter
	resultsSpooled  *obs.Counter
	redelivered     *obs.Counter
	rehomes         *obs.Counter
	checkpointBytes *obs.Histogram
	streamChunks    *obs.Counter
	streamFrames    *obs.Counter
	streamErrors    *obs.Counter
	ckptResumes     *obs.Counter
}

func newWorkerMetrics(o *obs.Obs, workerID string) workerMetrics {
	l := obs.L("worker", workerID)
	return workerMetrics{
		announces: o.Metrics.Counter("copernicus_worker_announces_total",
			"Resource announcements sent to the home server.", l),
		announceErrors: o.Metrics.Counter("copernicus_worker_announce_errors_total",
			"Announcements that failed at the overlay layer.", l),
		commandsOK: o.Metrics.Counter("copernicus_worker_commands_ok_total",
			"Commands this worker completed successfully.", l),
		commandsFailed: o.Metrics.Counter("copernicus_worker_commands_failed_total",
			"Commands whose engine run returned an error.", l),
		resultErrors: o.Metrics.Counter("copernicus_worker_result_errors_total",
			"Result uploads that failed to reach the project server.", l),
		resultsSpooled: o.Metrics.Counter("copernicus_worker_results_spooled_total",
			"Finished results persisted to disk because no server was reachable.", l),
		redelivered: o.Metrics.Counter("copernicus_worker_results_redelivered_total",
			"Spooled results successfully delivered after connectivity returned.", l),
		rehomes: o.Metrics.Counter("copernicus_worker_rehomes_total",
			"Times this worker adopted a different home server after its peer became unreachable.", l),
		checkpointBytes: o.Metrics.Histogram("copernicus_worker_checkpoint_bytes",
			"Size of partial-result checkpoints reported for failover.",
			obs.SizeBuckets(), l),
		streamChunks: o.Metrics.Counter("copernicus_worker_stream_chunks_total",
			"Frame chunks delivered to a project server.", l),
		streamFrames: o.Metrics.Counter("copernicus_worker_stream_frames_total",
			"Frames delivered inside streamed chunks.", l),
		streamErrors: o.Metrics.Counter("copernicus_worker_stream_chunk_errors_total",
			"Frame chunks dropped because no server accepted them.", l),
		ckptResumes: o.Metrics.Counter("copernicus_worker_checkpoint_resumes_total",
			"Commands resumed from a locally persisted engine checkpoint.", l),
	}
}

// New creates a worker bound to an overlay node that is already connected
// to its home server.
func New(node *overlay.Node, home string, engs []engines.Engine, cfg Config) (*Worker, error) {
	cfg.fill()
	if home == "" {
		return nil, fmt.Errorf("worker: home server ID required")
	}
	if len(engs) == 0 {
		return nil, fmt.Errorf("worker: no engines installed")
	}
	w := &Worker{
		node:    node,
		home:    home,
		engines: make(map[string]engines.Engine, len(engs)),
		cfg:     cfg,
		running: make(map[string]context.CancelFunc),
	}
	for _, e := range engs {
		if _, dup := w.engines[e.Name()]; dup {
			return nil, fmt.Errorf("worker: duplicate engine %q", e.Name())
		}
		w.engines[e.Name()] = e
		w.executables = append(w.executables, e.Name())
	}
	sort.Strings(w.executables)
	w.rpol = cfg.Retry
	w.rpol.Scope = node.ID()
	w.log = cfg.Obs.Log.Named("worker").With("worker", node.ID())
	w.met = newWorkerMetrics(cfg.Obs, node.ID())
	// A promoted standby announces ownership of its dead primary's projects;
	// adopting it as home immediately beats waiting out failed announces
	// before the rehome dial loop finds it.
	node.Handle(wire.MsgPromoted, func(from string, payload []byte) ([]byte, error) {
		var ann wire.Promoted
		if err := wire.Unmarshal(payload, &ann); err != nil {
			return nil, err
		}
		if ann.NodeID != "" && ann.NodeID != w.Home() {
			w.log.Info("server promotion announced; re-homing",
				"new_home", ann.NodeID, "epoch", ann.Epoch)
			w.met.rehomes.Inc()
			w.setHome(ann.NodeID)
		}
		return []byte{}, nil
	})
	return w, nil
}

// ID returns the worker's overlay node ID.
func (w *Worker) ID() string { return w.node.ID() }

// Home returns the node ID of the current home server (it changes when the
// worker re-homes after a partition).
func (w *Worker) Home() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.home
}

func (w *Worker) setHome(id string) {
	w.mu.Lock()
	w.home = id
	w.mu.Unlock()
}

// Completed returns the number of commands this worker has finished.
func (w *Worker) Completed() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.completed
}

// RunningCommands returns the IDs of commands currently executing (for
// tests and the chaos harness, which partitions a worker only once it is
// actually busy).
func (w *Worker) RunningCommands() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]string, 0, len(w.running))
	for id := range w.running {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// request runs one overlay request under the worker's retry policy. Remote
// handler errors are permanent (the request was delivered; the answer will
// not change); transport errors — no route, timeouts, dropped links — are
// retried with backoff.
func (w *Worker) request(ctx context.Context, op, to string, t wire.MsgType, payload []byte) ([]byte, error) {
	var reply []byte
	err := w.rpol.Do(ctx, op, func(ctx context.Context) error {
		r, err := w.node.Request(ctx, to, t, payload)
		if err != nil {
			var remote *overlay.RemoteError
			if errors.As(err, &remote) {
				return retry.Permanent(err)
			}
			return err
		}
		reply = r
		return nil
	})
	return reply, err
}

// info builds the announcement payload.
func (w *Worker) info() wire.WorkerInfo {
	return wire.WorkerInfo{
		ID:          w.node.ID(),
		Platform:    w.cfg.Platform,
		Cores:       w.cfg.Cores,
		Executables: w.executables,
		FSToken:     w.cfg.FSToken,
	}
}

// Run announces, executes and reports until ctx is cancelled. It returns
// ctx.Err() on cancellation, or the first fatal protocol error.
func (w *Worker) Run(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		announced := time.Now()
		wl, err := w.announce(ctx)
		if err != nil {
			w.met.announceErrors.Inc()
			w.log.Warn("announce failed", "err", err)
			w.announceFails++
			if w.announceFails >= rehomeAfter {
				w.rehome()
			}
		} else {
			w.announceFails = 0
			w.drainSpool(ctx)
			if len(wl.Commands) > 0 {
				w.execute(ctx, wl)
				continue
			}
		}
		// Nothing to run. The server has usually held the announce for as
		// long as it was willing to; what is left of PollInterval keeps a
		// server that answers at once (or not at all) from being hammered.
		if !sleepCtx(ctx, w.cfg.PollInterval-time.Since(announced)) {
			return ctx.Err()
		}
	}
}

// sleepCtx waits for d (not at all if d <= 0) and reports whether ctx is
// still live.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// announce sends the resource announcement and decodes the workload. It
// tells the server how long the reply may take: half the per-attempt
// deadline, so a held announce is answered well before the attempt is given
// up.
func (w *Worker) announce(ctx context.Context) (*wire.Workload, error) {
	w.met.announces.Inc()
	payload, err := wire.Marshal(&wire.AnnounceRequest{
		Info:        w.info(),
		WaitSeconds: (w.rpol.PerAttempt / 2).Seconds(),
	})
	if err != nil {
		return nil, err
	}
	reply, err := w.request(ctx, "announce", w.Home(), wire.MsgAnnounce, payload)
	if err != nil {
		return nil, err
	}
	var wl wire.Workload
	if err := wire.Unmarshal(reply, &wl); err != nil {
		return nil, err
	}
	return &wl, nil
}

// rehome dials the next known server address round-robin and adopts the
// responding server as the new home peer. Called from the Run loop after
// rehomeAfter consecutive announce failures; a worker with no configured
// addresses keeps hammering its original home.
func (w *Worker) rehome() {
	if len(w.cfg.ServerAddrs) == 0 {
		return
	}
	for i := 0; i < len(w.cfg.ServerAddrs); i++ {
		addr := w.cfg.ServerAddrs[w.nextServer%len(w.cfg.ServerAddrs)]
		w.nextServer++
		peerID, err := w.node.ConnectPeer(addr)
		if err != nil {
			w.log.Warn("re-home dial failed", "addr", addr, "err", err)
			continue
		}
		if peerID != w.Home() {
			w.met.rehomes.Inc()
			w.log.Info("re-homed to new server", "addr", addr, "server", peerID)
		}
		w.setHome(peerID)
		w.announceFails = 0
		return
	}
}

// drainSpool redelivers results spooled during an outage, anycast so any
// server holding the project can accept them. Files stay on disk until a
// delivery succeeds; servers treat duplicates idempotently, so redelivering
// a result the origin already counted is harmless.
func (w *Worker) drainSpool(ctx context.Context) {
	if w.cfg.ResultSpoolDir == "" {
		return
	}
	paths, err := filepath.Glob(filepath.Join(w.cfg.ResultSpoolDir, "*.result"))
	if err != nil || len(paths) == 0 {
		return
	}
	sort.Strings(paths)
	for _, path := range paths {
		payload, err := os.ReadFile(path)
		if err != nil {
			w.log.Warn("reading spooled result failed", "path", path, "err", err)
			continue
		}
		if _, err := w.request(ctx, "result_redeliver", "", wire.MsgResult, payload); err != nil {
			w.log.Warn("redelivering spooled result failed", "path", path, "err", err)
			return // connectivity degraded again; keep the rest for later
		}
		w.met.redelivered.Inc()
		w.log.Info("redelivered spooled result", "path", path)
		if err := os.Remove(path); err != nil {
			w.log.Warn("removing delivered spool file failed", "path", path, "err", err)
		}
	}
}

// execute runs a workload: one goroutine per command plus a heartbeat
// ticker, blocking until every command has completed or aborted.
func (w *Worker) execute(ctx context.Context, wl *wire.Workload) {
	cmds := wl.Commands
	if len(cmds) == 0 {
		return
	}
	var wg sync.WaitGroup
	ids := make([]string, 0, len(cmds))
	for _, cmd := range cmds {
		ids = append(ids, cmd.ID)
	}

	hbStop := make(chan struct{})
	hbInterval := time.Duration(wl.HeartbeatSeconds * float64(time.Second))
	if hbInterval <= 0 {
		hbInterval = 120 * time.Second
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.heartbeatLoop(ctx, hbStop, hbInterval, ids)
	}()

	var cmdWg sync.WaitGroup
	for _, cmd := range cmds {
		cmdWg.Add(1)
		go func(cmd wire.CommandSpec) {
			defer cmdWg.Done()
			w.runCommand(ctx, cmd, wl.Cores[cmd.ID], wl.SharedFS)
		}(cmd)
	}
	cmdWg.Wait()
	close(hbStop)
	wg.Wait()
}

// heartbeatLoop reports liveness and processes abort instructions.
func (w *Worker) heartbeatLoop(ctx context.Context, stop <-chan struct{}, interval time.Duration, ids []string) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		w.mu.Lock()
		live := make([]string, 0, len(ids))
		for _, id := range ids {
			if _, ok := w.running[id]; ok {
				live = append(live, id)
			}
		}
		w.mu.Unlock()
		payload, err := wire.Marshal(&wire.Heartbeat{WorkerID: w.ID(), CommandIDs: live})
		if err != nil {
			continue
		}
		reply, err := w.request(ctx, "heartbeat", w.Home(), wire.MsgHeartbeat, payload)
		if err != nil {
			w.log.Warn("heartbeat failed", "err", err)
			continue
		}
		var ack wire.HeartbeatAck
		if err := wire.Unmarshal(reply, &ack); err != nil {
			continue
		}
		for _, id := range ack.AbortCommandIDs {
			w.mu.Lock()
			cancel := w.running[id]
			w.mu.Unlock()
			if cancel != nil {
				w.log.Info("aborting terminated command", "command", id)
				cancel()
			}
		}
	}
}

// runCommand executes one command and reports its result to the project
// server.
func (w *Worker) runCommand(ctx context.Context, cmd wire.CommandSpec, cores int, sharedFS bool) {
	if cores <= 0 {
		cores = cmd.MinCores
	}
	eng := w.engines[cmd.Type]
	res := wire.CommandResult{
		CommandID: cmd.ID,
		Project:   cmd.Project,
		WorkerID:  w.ID(),
		CoresUsed: cores,
	}
	if eng == nil {
		res.Error = fmt.Sprintf("worker: no engine for %q", cmd.Type)
		w.sendResult(ctx, cmd.Origin, &res)
		return
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	w.mu.Lock()
	w.running[cmd.ID] = cancel
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.running, cmd.ID)
		w.mu.Unlock()
	}()

	// The server's checkpoint is authoritative; the local copy only covers
	// the dispatch arriving without one — a worker restart before the server
	// noticed any progress, or a requeue that lost the checkpoint.
	if len(cmd.Checkpoint) == 0 {
		if ck := w.loadLocalCheckpoint(cmd.ID); len(ck) > 0 {
			w.met.ckptResumes.Inc()
			w.log.Info("resuming from local checkpoint",
				"command", cmd.ID, "bytes", len(ck))
			cmd.Checkpoint = ck
		}
	}

	progress := func(checkpoint []byte) {
		w.saveLocalCheckpoint(cmd.ID, checkpoint)
		partial := wire.CommandResult{
			CommandID:  cmd.ID,
			Project:    cmd.Project,
			WorkerID:   w.ID(),
			OK:         true,
			Partial:    true,
			Checkpoint: checkpoint,
		}
		w.met.checkpointBytes.Observe(float64(len(checkpoint)))
		w.sendResult(ctx, cmd.Origin, &partial)
	}

	start := time.Now()
	var output []byte
	var err error
	if streamer, ok := eng.(engines.Streamer); ok {
		emit := func(chunk *wire.FrameChunk) {
			chunk.WorkerID = w.ID()
			w.sendChunk(ctx, cmd.Origin, chunk)
		}
		output, err = streamer.RunStream(runCtx, cmd, cores, progress, emit)
	} else {
		output, err = eng.Run(runCtx, cmd, cores, progress)
	}
	res.WallSeconds = time.Since(start).Seconds()
	w.cfg.Obs.Metrics.Histogram("copernicus_worker_command_seconds",
		"Wall time of engine runs, by engine type.",
		obs.DefBuckets(), obs.L("worker", w.ID(), "engine", cmd.Type)).
		Observe(res.WallSeconds)
	span := obs.Span{
		Stage:    obs.StageRun,
		Command:  cmd.ID,
		Project:  cmd.Project,
		Worker:   w.ID(),
		Start:    start,
		Duration: time.Since(start),
		Attrs:    map[string]string{"engine": cmd.Type, "cores": fmt.Sprint(cores)},
	}
	if err != nil && !errors.Is(err, context.Canceled) {
		span.Err = err.Error()
	}
	w.cfg.Obs.Trace.Record(span)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			// Terminated by the controller: nothing to report. Keep the
			// local checkpoint only when the whole worker is shutting down —
			// a deliberate per-command abort means the command is dead.
			if ctx.Err() == nil {
				w.dropLocalCheckpoint(cmd.ID)
			}
			return
		}
		w.met.commandsFailed.Inc()
		w.log.Warn("command failed", "command", cmd.ID, "engine", cmd.Type, "err", err)
		res.Error = err.Error()
		w.dropLocalCheckpoint(cmd.ID)
		w.sendResult(ctx, cmd.Origin, &res)
		return
	}
	w.met.commandsOK.Inc()
	w.dropLocalCheckpoint(cmd.ID)
	res.OK = true
	if sharedFS && w.cfg.SpoolDir != "" {
		if path, werr := w.spoolOutput(cmd.ID, output); werr == nil {
			res.OutputPath = path
		} else {
			res.Output = output
		}
	} else {
		res.Output = output
	}
	w.sendResult(ctx, cmd.Origin, &res)
	w.mu.Lock()
	w.completed++
	w.mu.Unlock()
}

// spoolOutput writes output to the shared filesystem and returns its path.
// The write is atomic: the server may read the path the moment the result
// message lands, so it must never observe a half-written file.
func (w *Worker) spoolOutput(cmdID string, output []byte) (string, error) {
	if err := os.MkdirAll(w.cfg.SpoolDir, 0o755); err != nil {
		return "", err
	}
	path := commandFile(w.cfg.SpoolDir, cmdID, ".out")
	if err := atomicfile.WriteFile(path, output, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// sendResult routes a result to the project server with the full
// degradation ladder: retried direct delivery to the origin, then retried
// anycast (any server in the overlay can accept and forward), and finally —
// for completed results — a disk spool redelivered after the next
// successful announcement. A finished command's CPU-hours are only lost if
// every rung fails AND the spool is disabled.
func (w *Worker) sendResult(ctx context.Context, origin string, res *wire.CommandResult) {
	payload, err := wire.Marshal(res)
	if err != nil {
		w.met.resultErrors.Inc()
		w.log.Error("encoding result failed", "command", res.CommandID, "err", err)
		return
	}
	if origin != "" {
		if _, err = w.request(ctx, "result", origin, wire.MsgResult, payload); err == nil {
			return
		}
		w.log.Warn("sending result to origin failed, trying anycast", "command", res.CommandID, "err", err)
	}
	if _, err = w.request(ctx, "result_anycast", "", wire.MsgResult, payload); err == nil {
		return
	}
	w.met.resultErrors.Inc()
	if res.Partial {
		// Checkpoints are advisory; the next one supersedes this one.
		w.log.Warn("dropping undeliverable checkpoint", "command", res.CommandID, "err", err)
		return
	}
	if w.cfg.ResultSpoolDir == "" {
		w.log.Error("result lost: no server reachable and spooling disabled", "command", res.CommandID, "err", err)
		return
	}
	if serr := w.spoolResult(res.CommandID, payload); serr != nil {
		w.log.Error("spooling undeliverable result failed", "command", res.CommandID, "err", serr)
		return
	}
	w.met.resultsSpooled.Inc()
	w.log.Warn("spooled undeliverable result for redelivery", "command", res.CommandID, "err", err)
}

// sendChunk ships one streamed frame chunk to the project server: retried
// direct delivery to the origin, then retried anycast. There is no disk
// rung — chunks are an optimization overlay on the batch path, and the
// final result blob carries every frame, so a dropped chunk costs analysis
// latency, never data.
func (w *Worker) sendChunk(ctx context.Context, origin string, chunk *wire.FrameChunk) {
	payload, err := wire.Marshal(chunk)
	if err != nil {
		w.met.streamErrors.Inc()
		w.log.Error("encoding frame chunk failed", "command", chunk.CommandID, "err", err)
		return
	}
	delivered := false
	if origin != "" {
		_, err = w.request(ctx, "framechunk", origin, wire.MsgFrameChunk, payload)
		delivered = err == nil
	}
	if !delivered {
		_, err = w.request(ctx, "framechunk_anycast", "", wire.MsgFrameChunk, payload)
		delivered = err == nil
	}
	if !delivered {
		w.met.streamErrors.Inc()
		w.log.Warn("dropping undeliverable frame chunk",
			"command", chunk.CommandID, "seq", chunk.Seq, "err", err)
		return
	}
	w.met.streamChunks.Inc()
	w.met.streamFrames.Add(uint64(len(chunk.Frames)))
}

// commandFile names the file in dir that holds cmdID's ext. Command IDs are
// chosen by controllers and the bundled ones contain a '/', so every path
// separator becomes '_': the name is always one entry of dir, never a
// subdirectory or a path out of it.
func commandFile(dir, cmdID, ext string) string {
	return filepath.Join(dir, strings.ReplaceAll(filepath.ToSlash(cmdID), "/", "_")+ext)
}

// checkpointPath maps a command ID to its local checkpoint file.
func (w *Worker) checkpointPath(cmdID string) string {
	return commandFile(w.cfg.CheckpointDir, cmdID, ".ckpt")
}

// saveLocalCheckpoint persists an engine checkpoint atomically; failures
// are logged and otherwise ignored — the server-side checkpoint path still
// covers the command.
func (w *Worker) saveLocalCheckpoint(cmdID string, ck []byte) {
	if w.cfg.CheckpointDir == "" || len(ck) == 0 {
		return
	}
	if err := os.MkdirAll(w.cfg.CheckpointDir, 0o755); err != nil {
		w.log.Warn("creating checkpoint dir failed", "err", err)
		return
	}
	if err := atomicfile.WriteFile(w.checkpointPath(cmdID), ck, 0o644); err != nil {
		w.log.Warn("persisting local checkpoint failed", "command", cmdID, "err", err)
	}
}

// loadLocalCheckpoint returns the persisted checkpoint for a command, or
// nil if there is none.
func (w *Worker) loadLocalCheckpoint(cmdID string) []byte {
	if w.cfg.CheckpointDir == "" {
		return nil
	}
	b, err := os.ReadFile(w.checkpointPath(cmdID))
	if err != nil {
		return nil
	}
	return b
}

// dropLocalCheckpoint removes a settled command's checkpoint file.
func (w *Worker) dropLocalCheckpoint(cmdID string) {
	if w.cfg.CheckpointDir == "" {
		return
	}
	if err := os.Remove(w.checkpointPath(cmdID)); err != nil && !os.IsNotExist(err) {
		w.log.Warn("removing local checkpoint failed", "command", cmdID, "err", err)
	}
}

// spoolResult persists one wire-encoded CommandResult for later redelivery.
func (w *Worker) spoolResult(cmdID string, payload []byte) error {
	if err := os.MkdirAll(w.cfg.ResultSpoolDir, 0o755); err != nil {
		return err
	}
	return atomicfile.WriteFile(commandFile(w.cfg.ResultSpoolDir, cmdID, ".result"), payload, 0o644)
}
