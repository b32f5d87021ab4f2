// Package core assembles the Copernicus pieces into runnable deployments:
// an overlay of servers, a fleet of workers with the standard engines, and
// client-side helpers to submit projects and wait for their results.
//
// The Host type is the one assembly of a serving node (server, durable
// store, replication peer) on whatever overlay node its caller built:
// cmd/cpcserver starts one on a TLS node, and the Fabric — the in-process
// deployment used by tests, examples and benchmarks, functionally the Fig 1
// topology (project server, relay servers, workers) — starts one per server
// on the in-memory transport.
package core

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"copernicus/internal/chaos"
	"copernicus/internal/client"
	"copernicus/internal/controller"
	"copernicus/internal/engines"
	"copernicus/internal/obs"
	"copernicus/internal/overlay"
	"copernicus/internal/retry"
	"copernicus/internal/server"
	"copernicus/internal/store"
	"copernicus/internal/store/replica"
	"copernicus/internal/wire"
	"copernicus/internal/worker"
)

// FabricConfig shapes an in-process deployment.
type FabricConfig struct {
	// Servers is the length of the server chain; Servers[0] is the project
	// server, the rest act as relays (≥1; default 1).
	Servers int
	// WorkersPerServer attaches that many workers to every server
	// (default 2).
	WorkersPerServer int
	// WorkerCores is each worker's announced core count (default 1).
	WorkerCores int
	// Heartbeat is the server-side heartbeat interval (default 200 ms in
	// fabric deployments — scaled down from the paper's 120 s so tests can
	// exercise failure detection quickly).
	Heartbeat time.Duration
	// Poll is the workers' back-off after an empty or failed announce
	// (default 20 ms).
	Poll time.Duration
	// Latency injects a per-write delay on the in-memory network.
	Latency time.Duration
	// Engines overrides the default engine set.
	Engines []engines.Engine
	// Registry overrides the default controller registry.
	Registry *controller.Registry
	// FSToken simulates a shared filesystem between servers and workers
	// when non-empty; SpoolDir is where outputs are exchanged.
	FSToken  string
	SpoolDir string
	// Chaos, when enabled, wraps every worker's transport in a
	// fault-injection layer (each worker gets its own chaos.Transport,
	// seeded Chaos.Seed+index, reachable as Fabric.Chaos for partition
	// control). Server↔server and client links stay clean so the harness
	// measures worker-path resilience, not total blackout.
	Chaos chaos.Config
	// WorkerRetry is the retry/backoff policy handed to every worker
	// (announce, heartbeat, result delivery). Zero fields take defaults.
	WorkerRetry retry.Policy
	// ResultSpoolDir, when set, gives each worker a private subdirectory to
	// spool undeliverable results for post-partition redelivery.
	ResultSpoolDir string
	// StateDir, when set, gives every server a durable state directory
	// (StateDir/server-N holding its WAL and snapshots) and arms
	// CrashServer/RestartServer: a restarted server replays its journal and
	// resumes its projects. Empty keeps all project state in memory.
	StateDir string
	// FsyncInterval and SnapshotEvery tune each server's store; see
	// store.Options. StoreWriteHook intercepts WAL frames before they hit
	// disk — chaos.WALFaults plugs in here.
	FsyncInterval  time.Duration
	SnapshotEvery  int
	StoreWriteHook func(frame []byte) ([]byte, error)
	// Standbys maps a primary server index to a standby server index. The
	// standby runs as a storeless relay while mirroring the primary's WAL
	// into StateDir/replica-<standby> through a replica.Peer; when its lease
	// on the primary lapses it promotes itself, replays the copy through the
	// normal recovery path, and takes the projects over. Requires StateDir.
	Standbys map[int]int
	// ReplInterval is the replication ship/heartbeat cadence (default 50 ms
	// in fabric deployments — scaled down, like Heartbeat, so failover tests
	// run in milliseconds). LeaseTimeout defaults to 5×ReplInterval.
	ReplInterval time.Duration
	LeaseTimeout time.Duration
	// ServerChaos, when non-nil, wraps every server node's transport in its
	// own fault-injection layer (seeded ServerChaos.Seed+index, reachable as
	// Fabric.ServerChaos) so tests can drop or partition server↔server
	// links — most importantly the replication link. A pointer rather than a
	// value: a zero Config is a valid choice here (no probabilistic faults,
	// pure Partition/Heal control).
	ServerChaos *chaos.Config
	// Obs is the observability bundle shared by every component in the
	// fabric — one metrics registry, one span tracer, one logger — so a
	// command's whole lifecycle (submit → queue → dispatch → run → result →
	// controller) lands in a single trace. nil means a fresh silent bundle,
	// reachable afterwards as Fabric.Obs.
	Obs *obs.Obs
}

func (c *FabricConfig) fill() {
	if c.Servers <= 0 {
		c.Servers = 1
	}
	if c.WorkersPerServer <= 0 {
		c.WorkersPerServer = 2
	}
	if c.WorkerCores <= 0 {
		c.WorkerCores = 1
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 200 * time.Millisecond
	}
	if c.Poll <= 0 {
		c.Poll = 20 * time.Millisecond
	}
	if c.ReplInterval <= 0 {
		c.ReplInterval = 50 * time.Millisecond
	}
	if c.Engines == nil {
		c.Engines = engines.Default()
	}
	if c.Registry == nil {
		c.Registry = controller.DefaultRegistry()
	}
	if c.Obs == nil {
		c.Obs = obs.New()
	}
}

// Fabric is a running in-process Copernicus deployment.
type Fabric struct {
	Net     *overlay.MemNetwork
	Workers []*worker.Worker
	// Chaos holds each worker's fault-injection transport (index-aligned
	// with Workers) when FabricConfig.Chaos is enabled; empty otherwise.
	// Tests drive partitions through these.
	Chaos []*chaos.Transport
	// ServerChaos holds each server node's fault-injection transport
	// (indexed like the servers) when FabricConfig.ServerChaos is set;
	// empty otherwise. Partitioning the standby's entry against the
	// primary's address severs the replication link.
	ServerChaos []*chaos.Transport
	// ClientChaos wraps the client node's transport (pure Partition/Heal
	// control, no probabilistic faults) when FabricConfig.ServerChaos is
	// set. Partition tests need it: the client peers with both the primary
	// and the standby, and the overlay forwards envelopes multi-hop, so a
	// cut of only the server↔server link would be healed by the client
	// relaying replication traffic around it — which is exactly the lease
	// protocol behaving well, not a partition.
	ClientChaos *chaos.Transport
	// Obs is the bundle shared by every node, server and worker; serve
	// Obs.Handler() (or any server's MonitorHandler) to expose /metrics and
	// /debug/trace for the whole fabric.
	Obs *obs.Obs

	cfg         FabricConfig
	tr          overlay.Transport
	serverSeeds []uint64   // identity seeds, so restarts keep node IDs
	smu         sync.Mutex // guards hosts[i] and nodes[i] against RestartServer
	hosts       []*Host
	nodes       []*overlay.Node // servers first: server i's node is nodes[i]
	clientNode  *overlay.Node
	cl          *client.Client
	cancel      context.CancelFunc
	wg          sync.WaitGroup
}

// serverAddr is the in-memory listen address of server i.
func serverAddr(i int) string { return fmt.Sprintf("server-%d", i) }

// NewFabric builds and starts the deployment: a chain of servers
// (server-0 — server-1 — …), workers attached round-robin, and a client
// node connected to the project server.
func NewFabric(cfg FabricConfig) (*Fabric, error) {
	cfg.fill()
	if err := cfg.validateStandbys(); err != nil {
		return nil, err
	}
	f := &Fabric{Net: overlay.NewMemNetwork(), Obs: cfg.Obs, cfg: cfg}
	f.Net.Latency = cfg.Latency
	tr := f.Net.Transport()
	f.tr = tr
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel

	seed := uint64(1000)
	newNode := func(nodeTr overlay.Transport) *overlay.Node {
		seed++
		n := overlay.NewNode(overlay.NewIdentityFromSeed(seed), overlay.NewTrustStore(), nodeTr)
		n.Obs = cfg.Obs
		f.nodes = append(f.nodes, n)
		return n
	}

	// Server chain: every node listening and linked before any host starts,
	// so a standby finds its primary's address up whichever index it has.
	serverAddrs := make([]string, cfg.Servers)
	for i := 0; i < cfg.Servers; i++ {
		serverTr := tr
		if cfg.ServerChaos != nil {
			sc := *cfg.ServerChaos
			sc.Seed = cfg.ServerChaos.Seed + uint64(i)
			ct := chaos.New(tr, sc, cfg.Obs)
			f.ServerChaos = append(f.ServerChaos, ct)
			serverTr = ct
		}
		node := newNode(serverTr)
		f.serverSeeds = append(f.serverSeeds, seed)
		addr := serverAddr(i)
		serverAddrs[i] = addr
		if err := node.Listen(addr); err != nil {
			f.Close()
			return nil, err
		}
		if i > 0 {
			if _, err := node.ConnectPeer(serverAddr(i - 1)); err != nil {
				f.Close()
				return nil, err
			}
		}
	}
	for i := 0; i < cfg.Servers; i++ {
		h, err := StartHost(f.nodes[i], f.hostConfig(i))
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("core: starting server %d: %w", i, err)
		}
		f.hosts = append(f.hosts, h)
	}

	// Workers, attached round-robin across servers. Each worker gets its own
	// chaos transport (when enabled) so faults and partitions can be aimed
	// at individual worker↔server links.
	for i := 0; i < cfg.Servers*cfg.WorkersPerServer; i++ {
		workerTr := tr
		if cfg.Chaos.Enabled() {
			ccfg := cfg.Chaos
			ccfg.Seed = cfg.Chaos.Seed + uint64(i)
			ct := chaos.New(tr, ccfg, cfg.Obs)
			f.Chaos = append(f.Chaos, ct)
			workerTr = ct
		}
		node := newNode(workerTr)
		home := f.nodes[i%cfg.Servers]
		var connErr error
		for attempt := 0; attempt < 5; attempt++ {
			if _, connErr = node.ConnectPeer(serverAddr(i % cfg.Servers)); connErr == nil {
				break
			}
		}
		if connErr != nil {
			if !cfg.Chaos.Enabled() {
				f.Close()
				return nil, connErr
			}
			// The fault injector ate every join attempt; the worker starts
			// peerless and re-homes onto a server on its first announce.
			cfg.Obs.Log.Named("core").Warn("worker joins overlay degraded",
				"worker", i, "err", connErr)
		}
		spool := ""
		if cfg.ResultSpoolDir != "" {
			spool = filepath.Join(cfg.ResultSpoolDir, fmt.Sprintf("worker-%d", i))
		}
		wk, err := worker.New(node, home.ID(), cfg.Engines, worker.Config{
			Cores:          cfg.WorkerCores,
			PollInterval:   cfg.Poll,
			Retry:          cfg.WorkerRetry,
			ServerAddrs:    serverAddrs,
			ResultSpoolDir: spool,
			FSToken:        cfg.FSToken,
			SpoolDir:       cfg.SpoolDir,
			Obs:            cfg.Obs,
		})
		if err != nil {
			f.Close()
			return nil, err
		}
		f.Workers = append(f.Workers, wk)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = wk.Run(ctx)
		}()
	}

	// Client node for submissions and monitoring. With replication enabled
	// it also peers with every standby, so a promotion announcement reaches
	// it directly and anycast status queries survive the primary's death.
	clientTr := tr
	if cfg.ServerChaos != nil {
		f.ClientChaos = chaos.New(tr, chaos.Config{}, cfg.Obs)
		clientTr = f.ClientChaos
	}
	f.clientNode = newNode(clientTr)
	if _, err := f.clientNode.ConnectPeer("server-0"); err != nil {
		f.Close()
		return nil, err
	}
	for _, s := range cfg.Standbys {
		if _, err := f.clientNode.ConnectPeer(serverAddr(s)); err != nil {
			f.Close()
			return nil, err
		}
	}
	f.cl = client.New(f.clientNode, client.Config{
		Server: f.nodes[0].ID(),
		Poll:   cfg.Poll,
	})
	return f, nil
}

// host returns server i's current Host; RestartServer replaces it.
func (f *Fabric) host(i int) *Host {
	f.smu.Lock()
	defer f.smu.Unlock()
	return f.hosts[i]
}

// Server returns server i's current serving instance. During a failover the
// instance at an index changes (a promoted standby swaps its relay for a
// project server; a fenced primary swaps back), so tests racing a failover
// must not cache it.
func (f *Fabric) Server(i int) *server.Server { return f.host(i).Server() }

// Store returns server i's current durable store (nil for storeless relays,
// standbys and crashed servers).
func (f *Fabric) Store(i int) *store.Store { return f.host(i).Store() }

// Peer returns server i's replication peer (nil when i has no replication
// role, or is crashed).
func (f *Fabric) Peer(i int) *replica.Peer { return f.host(i).Peer() }

// ProjectServer returns the server holding submitted projects.
func (f *Fabric) ProjectServer() *server.Server { return f.Server(0) }

// Client returns the fabric's project client — the same client.Client type
// cpcctl uses over TLS, here bound to the in-memory overlay.
func (f *Fabric) Client() *client.Client { return f.cl }

// Submit creates a project on the project server through the wire protocol
// (exactly what cmd/cpcctl does over TLS). Options set tenant, priority and
// deadline on the underlying client.SubmitRequest.
func (f *Fabric) Submit(ctx context.Context, name, controllerName string, params any, opts ...client.SubmitOption) error {
	blob, err := wire.Marshal(params)
	if err != nil {
		return err
	}
	_, err = f.cl.Submit(ctx, client.SubmitRequest{
		Name:       name,
		Controller: controllerName,
		Params:     blob,
	}, opts...)
	return err
}

// Status queries a project over the wire.
func (f *Fabric) Status(ctx context.Context, name string) (wire.ProjectStatus, error) {
	return f.cl.Status(ctx, name)
}

// Wait blocks until the project completes (or ctx is done) and returns its
// final status. It polls over the wire rather than peeking at server
// internals, so it behaves identically for in-process and remote callers.
func (f *Fabric) Wait(ctx context.Context, name string) (wire.ProjectStatus, error) {
	return f.cl.Wait(ctx, name)
}

// CrashServer simulates a hard failure of server i: the host stops without
// writing a snapshot and its overlay node is torn out (links to workers,
// peers and the client all die mid-flight) — leaving exactly the disk image
// a kill -9 leaves behind: the snapshots and fsynced WAL tail, and nothing
// that lived only in memory. RestartServer rebuilds the server from that
// image. Requires FabricConfig.StateDir (otherwise the crashed server's
// projects are simply gone, which is the pre-store behaviour).
func (f *Fabric) CrashServer(i int) {
	f.host(i).Close()
	f.nodes[i].Close()
}

// relistenServer rebuilds server i's overlay node: the same identity seed
// (so its node ID — which workers announce to, spool results for, and the
// client addresses — is unchanged), the same listen address and transport
// (including any server chaos wrapper), and re-dials to its chain
// neighbours in both directions: at bootstrap only server i dialled i-1,
// but after a crash the neighbours' links are dead too and nobody else
// redials.
func (f *Fabric) relistenServer(i int) (*overlay.Node, error) {
	tr := f.tr
	if len(f.ServerChaos) > i && f.ServerChaos[i] != nil {
		tr = f.ServerChaos[i]
	}
	node := overlay.NewNode(overlay.NewIdentityFromSeed(f.serverSeeds[i]), overlay.NewTrustStore(), tr)
	node.Obs = f.cfg.Obs
	if err := node.Listen(serverAddr(i)); err != nil {
		node.Close()
		return nil, fmt.Errorf("core: restarting server %d: %w", i, err)
	}
	for _, j := range []int{i - 1, i + 1} {
		if j < 0 || j >= f.cfg.Servers {
			continue
		}
		if _, err := node.ConnectPeer(serverAddr(j)); err != nil {
			f.cfg.Obs.Log.Named("core").Warn("restart could not reach chain neighbour",
				"server", i, "peer", j, "err", err)
		}
	}
	return node, nil
}

// RestartServer rebuilds a crashed server from its state directory: the
// same node identity and listen address, healed links, and the same
// HostConfig it first started with — so a server with a replication role
// comes back in whatever role its durable replica metadata last recorded,
// by the rule every serving node follows (see StartHost).
func (f *Fabric) RestartServer(i int) error {
	node, err := f.relistenServer(i)
	if err != nil {
		return err
	}
	h, err := StartHost(node, f.hostConfig(i))
	if err != nil {
		node.Close()
		return fmt.Errorf("core: restarting server %d: %w", i, err)
	}
	f.smu.Lock()
	f.nodes[i], f.hosts[i] = node, h
	f.smu.Unlock()
	// The client peers with the project server and every standby.
	if role, _ := f.cfg.replRole(i); i == 0 || role == store.RoleStandby {
		if _, err := f.clientNode.ConnectPeer(serverAddr(i)); err != nil {
			return fmt.Errorf("core: reconnecting client after restart: %w", err)
		}
	}
	return nil
}

// Close tears the deployment down.
func (f *Fabric) Close() {
	if f.cancel != nil {
		f.cancel()
	}
	// Every replication peer stops before any host does, so no standby sees
	// its primary go quiet and promotes underneath the teardown.
	for _, h := range f.hosts {
		if p := h.Peer(); p != nil {
			p.Close()
		}
	}
	for _, h := range f.hosts {
		h.Close()
	}
	f.wg.Wait()
	for _, ct := range f.Chaos {
		ct.Stop()
	}
	for _, ct := range f.ServerChaos {
		ct.Stop()
	}
	if f.ClientChaos != nil {
		f.ClientChaos.Stop()
	}
	for _, n := range f.nodes {
		n.Close()
	}
}

// RunMSM executes a full adaptive MSM project on a fresh fabric and returns
// the decoded result — the one-call entry point behind the villin
// experiments (Figs 2–5).
func RunMSM(params controller.MSMParams, cfg FabricConfig, timeout time.Duration) (*controller.MSMResult, error) {
	f, err := NewFabric(cfg)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := f.Submit(ctx, "msm-project", controller.MSMControllerName, &params); err != nil {
		return nil, err
	}
	st, err := f.Wait(ctx, "msm-project")
	if err != nil {
		return nil, err
	}
	if st.State != "finished" {
		return nil, fmt.Errorf("core: MSM project ended in state %q: %s", st.State, st.Note)
	}
	var res controller.MSMResult
	if err := wire.Unmarshal(st.Result, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// RunBAR executes a BAR free-energy project on a fresh fabric.
func RunBAR(params controller.BARParams, cfg FabricConfig, timeout time.Duration) (*controller.BARResult, error) {
	f, err := NewFabric(cfg)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := f.Submit(ctx, "bar-project", controller.BARControllerName, &params); err != nil {
		return nil, err
	}
	st, err := f.Wait(ctx, "bar-project")
	if err != nil {
		return nil, err
	}
	if st.State != "finished" {
		return nil, fmt.Errorf("core: BAR project ended in state %q: %s", st.State, st.Note)
	}
	var res controller.BARResult
	if err := wire.Unmarshal(st.Result, &res); err != nil {
		return nil, err
	}
	return &res, nil
}
