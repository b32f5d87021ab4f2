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
// whatever role and peer its durable replica metadata last recorded, so a
// fenced ex-primary restarted with its old -replicate flags comes back as a
// standby of the node that fenced it, without operator intervention.
//
// This file is flags and process plumbing only. The serving node itself —
// store, server, replication peer, role resolution, promote/demote — is
// core.Host, the same assembly the in-process Fabric and every failover test
// start.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"copernicus/internal/chaos"
	"copernicus/internal/controller"
	"copernicus/internal/core"
	"copernicus/internal/obs"
	"copernicus/internal/store"
)

// options is the command line, bound straight onto the HostConfig it
// describes wherever a flag is one of its fields.
type options struct {
	listen, peers, monitor, metricsAddr string
	seed                                uint64
	replicate                           bool
	chaos                               *chaos.Config
	obs                                 func() (*obs.Obs, error)
	host                                core.HostConfig
	repl                                core.ReplicationConfig
}

// registerFlags defines cpcserver's flag surface on fs. testdata/flags.golden
// pins it: no knob is added, removed, renamed or re-defaulted unnoticed.
func registerFlags(fs *flag.FlagSet) *options {
	o := &options{chaos: chaos.RegisterFlags(fs), obs: obs.RegisterFlags(fs)}
	srv, st := &o.host.Server, &o.host.Store
	fs.StringVar(&o.listen, "listen", ":7770", "address to listen on")
	fs.StringVar(&o.peers, "peer", "", "comma-separated peer server addresses to connect to")
	fs.Uint64Var(&o.seed, "seed", 0, "deterministic identity seed (0 = random identity)")
	fs.DurationVar(&srv.HeartbeatInterval, "heartbeat-interval", 120*time.Second, "worker heartbeat interval")
	fs.DurationVar(&srv.RelayTimeout, "relay-timeout", 0, "longest an idle announce is held waiting for work (0 = default 2s)")
	fs.IntVar(&srv.MaxQueuedTotal, "max-queued", 0, "global queued-command bound across all tenants; submits beyond it are shed (0 = unlimited)")
	fs.DurationVar(&srv.StarvationAge, "starvation-age", 0, "queued-command age that jumps fair-share order (0 = default 30s, negative disables)")
	fs.DurationVar(&srv.PreemptAge, "preempt-age", 0, "tenant starvation age that triggers checkpoint-boundary preemption of the dominant tenant (0 = disabled)")
	fs.DurationVar(&srv.WALSlowAppend, "wal-slow-append", 0, "WAL append-latency EWMA at which backpressure saturates and matching sheds (0 = default 100ms)")
	fs.StringVar(&o.monitor, "monitor-addr", "", "HTTP monitoring address (e.g. :8080); empty disables")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "standalone /metrics+/debug address (e.g. :9090); empty disables (the -monitor-addr handler always includes them)")
	fs.StringVar(&srv.FSToken, "fs-token", "", "shared-filesystem token (enables by-path result exchange)")
	fs.StringVar(&st.Dir, "state-dir", "", "durable state directory (WAL + snapshots); empty keeps all project state in memory")
	fs.DurationVar(&st.FsyncInterval, "fsync-interval", 2*time.Millisecond, "longest a WAL group commit waits, after its first record, for the writers the last fsync released before one shared fsync (0 = fsync each batch immediately)")
	fs.IntVar(&st.SnapshotEvery, "snapshot-every", 512, "WAL records between snapshots (snapshots truncate the log; 0 disables automatic snapshots)")
	fs.StringVar(&o.repl.PeerAddr, "standby-of", "", "primary server address to replicate from: run as its warm standby and promote on lease lapse (requires -state-dir)")
	fs.BoolVar(&o.replicate, "replicate", false, "accept a standby and ship it the WAL (requires -state-dir)")
	fs.DurationVar(&o.repl.Interval, "lease-interval", time.Second, "replication ship/heartbeat cadence")
	fs.DurationVar(&o.repl.LeaseTimeout, "lease-timeout", 0, "failover lease: contactless time before a standby promotes itself (0 = 5×lease-interval)")
	return o
}

// hostConfig completes the HostConfig once the flags are parsed. The flags
// only say which role the operator configured; Host resolves the one the
// node actually resumes.
func (o *options) hostConfig() core.HostConfig {
	o.host.Registry = controller.DefaultRegistry()
	o.repl.SelfAddr = o.listen
	if o.repl.PeerAddr != "" {
		o.repl.Role = store.RoleStandby
	} else if o.replicate {
		o.repl.Role = store.RolePrimary
	}
	if o.repl.Role != "" {
		o.host.Replication = &o.repl
	}
	return o.host
}

// serveHTTP serves h on addr in the background; what names it in the logs.
func serveHTTP(what, addr string, h http.Handler) {
	if addr == "" {
		return
	}
	fmt.Printf("cpcserver: %s on http://%s/\n", what, addr)
	go func() {
		if err := http.ListenAndServe(addr, h); err != nil {
			log.Printf("cpcserver: %s: %v", what, err)
		}
	}()
}

func main() {
	opts := registerFlags(flag.CommandLine)
	flag.Parse()
	o, err := opts.obs()
	if err != nil {
		log.Fatal(err)
	}
	node, err := core.NewTLSNode(opts.seed, *opts.chaos, o)
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()
	if err := node.Listen(opts.listen); err != nil {
		log.Fatalf("listen %s: %v", opts.listen, err)
	}
	host, err := core.StartHost(node, opts.hostConfig())
	if err != nil {
		log.Fatalf("cpcserver: %v", err)
	}
	defer host.Close()

	fmt.Printf("cpcserver: node %s listening on %s\n", node.ID(), opts.listen)
	if p := host.Peer(); p != nil {
		fmt.Printf("cpcserver: replication %s, epoch %d\n", p.Role(), p.Epoch())
	}
	// The serving instance changes on promote/demote: resolve it per request.
	serveHTTP("monitoring interface", opts.monitor, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		host.Server().MonitorHandler().ServeHTTP(w, r)
	}))
	serveHTTP("metrics", opts.metricsAddr, o.Handler())
	for _, addr := range strings.Split(opts.peers, ",") {
		if addr = strings.TrimSpace(addr); addr == "" {
			continue
		}
		peerID, err := node.ConnectPeer(addr)
		if err != nil {
			log.Fatalf("connecting to peer %s: %v", addr, err)
		}
		fmt.Printf("cpcserver: connected to peer %s (%s)\n", addr, peerID)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("cpcserver: shutting down")
}
