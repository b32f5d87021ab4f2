// Command cpcworker runs a Copernicus worker: it connects to its nearest
// server over TLS, announces its resources and installed executables, and
// executes simulation commands until interrupted — the bootstrap flow of
// §2.3. Start one per batch-queue slot; the paper's pattern of submitting
// workers to a cluster's queue maps to launching this binary from the job
// script.
//
// Usage:
//
//	cpcworker -server head1:7770,head2:7770 [-cores N] [-platform smp]
//
// -server takes a comma-separated list: the worker homes on the first
// address that answers and re-homes round-robin through the rest when its
// home stops responding. -result-spool-dir survives full partitions by spooling
// finished results to disk for later redelivery, and the -retry-* / -chaos-*
// flags expose the retry policy and fault-injection harness used by the
// chaos soak tests (see docs/ROBUSTNESS.md).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"copernicus/internal/chaos"
	"copernicus/internal/core"
	"copernicus/internal/engines"
	"copernicus/internal/md"
	"copernicus/internal/obs"
	"copernicus/internal/worker"
)

// options is the command line, bound straight onto the worker.Config it
// describes wherever a flag is one of its fields.
type options struct {
	servers, metricsAddr string
	chaos                *chaos.Config
	obs                  func() (*obs.Obs, error)
	worker               worker.Config
}

// registerFlags defines cpcworker's flag surface on fs. testdata/flags.golden
// pins it: no knob is added, removed, renamed or re-defaulted unnoticed.
func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	w, r := &o.worker, &o.worker.Retry
	fs.StringVar(&o.servers, "server", "127.0.0.1:7770", "comma-separated server addresses; first responder becomes home, the rest are re-home candidates")
	fs.IntVar(&w.Cores, "cores", runtime.NumCPU(), "cores to announce; MD commands clamp their force-loop shards to this grant (payload Shards<=0 auto-sizes to it)")
	fs.StringVar(&w.Platform, "platform", "smp", "platform plugin name")
	fs.DurationVar(&w.PollInterval, "poll", 2*time.Second, "back-off after an empty or failed announce")
	fs.StringVar(&w.FSToken, "fs-token", "", "shared-filesystem token")
	fs.StringVar(&w.SpoolDir, "spool-dir", "", "shared-filesystem spool directory")
	fs.StringVar(&w.ResultSpoolDir, "result-spool-dir", "", "directory to spool undeliverable results for redelivery; empty disables")
	fs.StringVar(&w.CheckpointDir, "checkpoint-dir", "", "directory for local engine-checkpoint durability; a restarted worker resumes re-dispatched commands from here (empty disables)")
	fs.IntVar(&r.MaxAttempts, "retry-attempts", 0, "max attempts per overlay request (0 = default)")
	fs.DurationVar(&r.BaseDelay, "retry-base-delay", 0, "initial retry backoff (0 = default)")
	fs.DurationVar(&r.MaxDelay, "retry-max-delay", 0, "backoff cap (0 = default)")
	fs.DurationVar(&r.PerAttempt, "retry-per-attempt", 0, "per-attempt request deadline (0 = default)")
	o.chaos = chaos.RegisterFlags(fs)
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "standalone /metrics+/debug address (e.g. :9091); empty disables")
	o.obs = obs.RegisterFlags(fs)
	return o
}

func main() {
	opts := registerFlags(flag.CommandLine)
	flag.Parse()

	o, err := opts.obs()
	if err != nil {
		log.Fatal(err)
	}
	// Kernel observability: the MD engine records copernicus_md_* (pair
	// throughput, rebuild cadence, force-loop time, ns/day) into the same
	// bundle served on -metrics-addr.
	md.EnableMetrics(o)

	node, err := core.NewTLSNode(0, *opts.chaos, o)
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()

	servers := splitAddrs(opts.servers)
	if len(servers) == 0 {
		log.Fatal("-server: no addresses given")
	}
	// Cycle through the address list a few times before giving up: the
	// worker may start before its server (batch queues make no ordering
	// promises), and under -chaos-* the handshake itself can be eaten.
	var home string
	var connErr error
	for round := 0; round < 5 && home == ""; round++ {
		if round > 0 {
			time.Sleep(time.Duration(round) * 500 * time.Millisecond)
		}
		for _, addr := range servers {
			if home, connErr = node.ConnectPeer(addr); connErr == nil {
				break
			}
			log.Printf("connecting to %s: %v", addr, connErr)
		}
	}
	if home == "" {
		log.Fatalf("no server reachable from %v: %v", servers, connErr)
	}
	cfg := opts.worker
	cfg.ServerAddrs = servers
	cfg.Obs = o
	wk, err := worker.New(node, home, engines.Default(), cfg)
	if err != nil {
		log.Fatalf("creating worker: %v", err)
	}
	fmt.Printf("cpcworker: %s attached to server %s (%d cores, platform %s)\n",
		wk.ID(), home, cfg.Cores, cfg.Platform)
	if opts.metricsAddr != "" {
		go func() {
			fmt.Printf("cpcworker: metrics on http://%s/metrics\n", opts.metricsAddr)
			if err := http.ListenAndServe(opts.metricsAddr, o.Handler()); err != nil {
				log.Printf("cpcworker: metrics: %v", err)
			}
		}()
	}

	ctx, cancel := context.WithCancel(context.Background())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		cancel()
	}()
	if err := wk.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		log.Fatalf("worker: %v", err)
	}
	fmt.Printf("cpcworker: done (%d commands completed)\n", wk.Completed())
}

// splitAddrs parses a comma-separated address list, dropping empties.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}
