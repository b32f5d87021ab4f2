// Command cpcserver runs a Copernicus server node over TLS: it listens for
// workers, clients and peer servers, holds projects, and relays work. All
// servers run identical code (the paper's symmetric architecture); a node
// becomes a project server simply by receiving a submission.
//
// Usage:
//
//	cpcserver -listen :7770 [-peer host:port ...] [-seed N] [-fs-token T]
//
// With -seed the node identity is deterministic (useful for scripted
// overlays); otherwise a fresh Ed25519 identity is generated and its node ID
// printed so operators can exchange keys. Without -trust entries the server
// accepts any peer (bootstrap mode), matching the paper's "open — but
// authenticated" spectrum.
//
// Replication: a -state-dir server started with -replicate accepts a warm
// standby and ships it every WAL record; a server started with
// -standby-of <addr> runs as that primary's standby, holding a replayable
// copy and promoting itself when the heartbeat lease lapses (see
// docs/PERSISTENCE.md, "Replication & failover"). Either node resumes
// whatever role its durable replica metadata last recorded, so a fenced
// ex-primary restarts as a standby without operator intervention.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"copernicus/internal/chaos"
	"copernicus/internal/controller"
	"copernicus/internal/obs"
	"copernicus/internal/overlay"
	"copernicus/internal/server"
	"copernicus/internal/store"
	"copernicus/internal/store/replica"
)

func main() {
	listen := flag.String("listen", ":7770", "address to listen on")
	peers := flag.String("peer", "", "comma-separated peer server addresses to connect to")
	seed := flag.Uint64("seed", 0, "deterministic identity seed (0 = random identity)")
	heartbeat := flag.Duration("heartbeat-interval", 120*time.Second, "worker heartbeat interval")
	relayTimeout := flag.Duration("relay-timeout", 0, "longest an idle announce is held waiting for work (0 = default 2s)")
	maxQueued := flag.Int("max-queued", 0, "global queued-command bound across all tenants; submits beyond it are shed (0 = unlimited)")
	starvationAge := flag.Duration("starvation-age", 0, "queued-command age that jumps fair-share order (0 = default 30s, negative disables)")
	preemptAge := flag.Duration("preempt-age", 0, "tenant starvation age that triggers checkpoint-boundary preemption of the dominant tenant (0 = disabled)")
	walSlowAppend := flag.Duration("wal-slow-append", 0, "WAL append-latency EWMA at which backpressure saturates and matching sheds (0 = default 100ms)")
	chaosCfg := chaos.RegisterFlags(flag.CommandLine)
	monitor := flag.String("monitor-addr", "", "HTTP monitoring address (e.g. :8080); empty disables")
	metricsAddr := flag.String("metrics-addr", "", "standalone /metrics+/debug address (e.g. :9090); empty disables (the -monitor-addr handler always includes them)")
	logLevel := flag.String("log-level", "", "log level: debug, info, warn, error, off (empty = off; -v = debug)")
	fsToken := flag.String("fs-token", "", "shared-filesystem token (enables by-path result exchange)")
	stateDir := flag.String("state-dir", "", "durable state directory (WAL + snapshots); empty keeps all project state in memory")
	fsyncInterval := flag.Duration("fsync-interval", 2*time.Millisecond, "group-commit window: how long the WAL syncer waits for more appends before one shared fsync (0 = fsync each batch immediately)")
	snapshotEvery := flag.Int("snapshot-every", 512, "WAL records between snapshots (snapshots truncate the log; 0 disables automatic snapshots)")
	standbyOf := flag.String("standby-of", "", "primary server address to replicate from: run as its warm standby and promote on lease lapse (requires -state-dir)")
	replicate := flag.Bool("replicate", false, "accept a standby and ship it the WAL (requires -state-dir)")
	leaseInterval := flag.Duration("lease-interval", time.Second, "replication ship/heartbeat cadence")
	leaseTimeout := flag.Duration("lease-timeout", 0, "failover lease: contactless time before a standby promotes itself (0 = 5×lease-interval)")
	verbose := flag.Bool("v", false, "verbose logging (shorthand for -log-level debug)")
	flag.Parse()

	level := obs.LevelOff
	if *verbose {
		level = obs.LevelDebug
	}
	if *logLevel != "" {
		var err error
		if level, err = obs.ParseLevel(*logLevel); err != nil {
			log.Fatalf("-log-level: %v", err)
		}
	}
	o := obs.NewWith(obs.Options{LogWriter: os.Stderr, LogLevel: level})

	var id *overlay.Identity
	if *seed != 0 {
		id = overlay.NewIdentityFromSeed(*seed)
	} else {
		var err error
		id, err = overlay.NewIdentity()
		if err != nil {
			log.Fatalf("generating identity: %v", err)
		}
	}
	trust := overlay.NewTrustStore()
	var tr overlay.Transport
	tr, err := overlay.NewTLSTransport(id, trust)
	if err != nil {
		log.Fatalf("tls transport: %v", err)
	}
	tr = chaos.Wrap(tr, *chaosCfg, o)
	node := overlay.NewNode(id, trust, tr)
	node.Obs = o
	if err := node.Listen(*listen); err != nil {
		log.Fatalf("listen %s: %v", *listen, err)
	}

	// Replication role. Flags pick the configured role; durable replica
	// metadata in the state directory overrides it, so a node that was
	// promoted or fenced while its operator's scripts still said otherwise
	// comes back in the role the protocol left it in.
	role := ""
	if *standbyOf != "" {
		role = store.RoleStandby
	} else if *replicate {
		role = store.RolePrimary
	}
	if role != "" {
		if *stateDir == "" {
			log.Fatalf("-standby-of/-replicate require -state-dir")
		}
		meta, err := store.LoadReplicaMeta(*stateDir)
		if err != nil {
			log.Fatalf("reading replica metadata in %s: %v", *stateDir, err)
		}
		if meta != nil && meta.Role != "" {
			role = meta.Role
		}
	}

	storeOptions := func() store.Options {
		return store.Options{
			Dir:           *stateDir,
			FsyncInterval: *fsyncInterval,
			SnapshotEvery: *snapshotEvery,
			Obs:           o,
		}
	}
	serverConfig := func(st *store.Store) server.Config {
		return server.Config{
			HeartbeatInterval: *heartbeat,
			RelayTimeout:      *relayTimeout,
			FSToken:           *fsToken,
			MaxQueuedTotal:    *maxQueued,
			StarvationAge:     *starvationAge,
			PreemptAge:        *preemptAge,
			WALSlowAppend:     *walSlowAppend,
			Store:             st,
			Obs:               o,
		}
	}

	// A standby serves as a storeless relay until promoted — its replica
	// peer owns the state directory and feeds it through recovery at
	// promotion time.
	var st *store.Store
	if *stateDir != "" && role != store.RoleStandby {
		st, err = store.Open(storeOptions())
		if err != nil {
			log.Fatalf("opening state dir %s: %v", *stateDir, err)
		}
		rec := st.Recovered()
		if rec.Snapshot != nil || len(rec.Records) > 0 {
			fmt.Printf("cpcserver: recovering state from %s (%d WAL records)\n", *stateDir, len(rec.Records))
		}
	}
	registry := controller.DefaultRegistry()
	var smu sync.Mutex
	srv := server.New(node, registry, serverConfig(st))
	currentServer := func() *server.Server {
		smu.Lock()
		defer smu.Unlock()
		return srv
	}
	defer node.Close()
	defer func() {
		smu.Lock()
		defer smu.Unlock()
		srv.Close()
		if st != nil {
			st.Close()
		}
	}()

	var peer *replica.Peer
	if role != "" {
		cfg := replica.Config{
			Dir:          *stateDir,
			Role:         role,
			SelfAddr:     *listen,
			Interval:     *leaseInterval,
			LeaseTimeout: *leaseTimeout,
			StoreOptions: storeOptions(),
			Obs:          o,
			Hooks: replica.Hooks{
				Promote: func(recovered *store.Store, epoch uint64) ([]string, error) {
					smu.Lock()
					defer smu.Unlock()
					srv.Close()
					st = recovered
					srv = server.New(node, registry, serverConfig(st))
					fmt.Printf("cpcserver: promoted to primary (epoch %d), serving %d projects\n",
						epoch, len(srv.ProjectNames()))
					return srv.ProjectNames(), nil
				},
				Demote: func(epoch uint64, newPrimaryID string) error {
					smu.Lock()
					defer smu.Unlock()
					srv.Close()
					if st != nil {
						st.Close()
						st = nil
					}
					srv = server.New(node, registry, serverConfig(nil))
					fmt.Printf("cpcserver: fenced at epoch %d; demoted to standby of %s\n",
						epoch, newPrimaryID)
					return nil
				},
			},
		}
		if role == store.RoleStandby {
			if *standbyOf == "" {
				log.Fatalf("replica metadata says standby but no -standby-of address given")
			}
			primaryID, err := node.ConnectPeer(*standbyOf)
			if err != nil {
				log.Fatalf("connecting to primary %s: %v", *standbyOf, err)
			}
			cfg.PeerID = primaryID
			cfg.PeerAddr = *standbyOf
			fmt.Printf("cpcserver: standby of %s (%s)\n", *standbyOf, primaryID)
		}
		// A primary learns its standby's ID from the standby's join.
		if peer, err = replica.NewPeer(node, st, cfg); err != nil {
			log.Fatalf("starting replication peer: %v", err)
		}
		defer peer.Close()
	}

	fmt.Printf("cpcserver: node %s listening on %s\n", node.ID(), *listen)
	if *monitor != "" {
		go func() {
			fmt.Printf("cpcserver: monitoring interface on http://%s/\n", *monitor)
			handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				currentServer().MonitorHandler().ServeHTTP(w, r)
			})
			if err := http.ListenAndServe(*monitor, handler); err != nil {
				log.Printf("cpcserver: monitor: %v", err)
			}
		}()
	}
	if *metricsAddr != "" {
		go func() {
			fmt.Printf("cpcserver: metrics on http://%s/metrics\n", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, o.Handler()); err != nil {
				log.Printf("cpcserver: metrics: %v", err)
			}
		}()
	}
	if *peers != "" {
		for _, addr := range strings.Split(*peers, ",") {
			peerID, err := node.ConnectPeer(strings.TrimSpace(addr))
			if err != nil {
				log.Fatalf("connecting to peer %s: %v", addr, err)
			}
			fmt.Printf("cpcserver: connected to peer %s (%s)\n", addr, peerID)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("cpcserver: shutting down")
}
