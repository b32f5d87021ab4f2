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
	"copernicus/internal/retry"
	"copernicus/internal/worker"
)

func main() {
	serverList := flag.String("server", "127.0.0.1:7770", "comma-separated server addresses; first responder becomes home, the rest are re-home candidates")
	cores := flag.Int("cores", runtime.NumCPU(), "cores to announce; MD commands clamp their force-loop shards to this grant (payload Shards<=0 auto-sizes to it)")
	platform := flag.String("platform", "smp", "platform plugin name")
	poll := flag.Duration("poll", 2*time.Second, "back-off after an empty or failed announce")
	fsToken := flag.String("fs-token", "", "shared-filesystem token")
	spool := flag.String("spool-dir", "", "shared-filesystem spool directory")
	resultSpool := flag.String("result-spool-dir", "", "directory to spool undeliverable results for redelivery; empty disables")
	ckptDir := flag.String("checkpoint-dir", "", "directory for local engine-checkpoint durability; a restarted worker resumes re-dispatched commands from here (empty disables)")
	retryAttempts := flag.Int("retry-attempts", 0, "max attempts per overlay request (0 = default)")
	retryBase := flag.Duration("retry-base-delay", 0, "initial retry backoff (0 = default)")
	retryMax := flag.Duration("retry-max-delay", 0, "backoff cap (0 = default)")
	retryPerAttempt := flag.Duration("retry-per-attempt", 0, "per-attempt request deadline (0 = default)")
	chaosCfg := chaos.RegisterFlags(flag.CommandLine)
	metricsAddr := flag.String("metrics-addr", "", "standalone /metrics+/debug address (e.g. :9091); empty disables")
	newObs := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	o, err := newObs()
	if err != nil {
		log.Fatal(err)
	}
	// Kernel observability: the MD engine records copernicus_md_* (pair
	// throughput, rebuild cadence, force-loop time, ns/day) into the same
	// bundle served on -metrics-addr.
	md.EnableMetrics(o)

	node, err := core.NewTLSNode(0, *chaosCfg, o)
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()

	servers := splitAddrs(*serverList)
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
	wk, err := worker.New(node, home, engines.Default(), worker.Config{
		Platform:     *platform,
		Cores:        *cores,
		PollInterval: *poll,
		Retry: retry.Policy{
			MaxAttempts: *retryAttempts,
			BaseDelay:   *retryBase,
			MaxDelay:    *retryMax,
			PerAttempt:  *retryPerAttempt,
		},
		ServerAddrs:    servers,
		ResultSpoolDir: *resultSpool,
		CheckpointDir:  *ckptDir,
		FSToken:        *fsToken,
		SpoolDir:       *spool,
		Obs:            o,
	})
	if err != nil {
		log.Fatalf("creating worker: %v", err)
	}
	fmt.Printf("cpcworker: %s attached to server %s (%d cores, platform %s)\n",
		wk.ID(), home, *cores, *platform)
	if *metricsAddr != "" {
		go func() {
			fmt.Printf("cpcworker: metrics on http://%s/metrics\n", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, o.Handler()); err != nil {
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
