// Command cpcctl is the Copernicus command-line client: it submits projects
// to a server and monitors them — the paper's "command line client" from
// Fig 1.
//
// Usage:
//
//	cpcctl -server host:7770 submit -name myrun -controller msm [-tenant T] [-priority N] [-deadline D] [flags]
//	cpcctl -server host:7770 status -name myrun [-watch]
//	cpcctl -server host:7770 repex stats -name myrun
//	cpcctl -server host:7770 tenant list
//	cpcctl -server host:7770 tenant quota get -tenant T
//	cpcctl -server host:7770 tenant quota set -tenant T [-weight W] [-max-queued N] [-max-cores N] [-max-storage-bytes N]
//	cpcctl state inspect <state-dir>
//
// Controller flags (submit):
//
//	msm: -generations -clusters -starts -tasks -segment-ns -weighting
//	     -stream -stream-every-ns -converge-tol -converge-checks
//	bar: -windows -samples -target-stderr -delta-f
//	repex: -replicas -t-min -t-max -mode -segment-steps -epochs
//
// A sync-mode repex project submits one command per rung each epoch and
// exchanges once every rung has reported, so a ladder may be wider than any
// one worker; `repex stats` prints the ladder's live per-pair exchange
// acceptance rates from the server's status detail.
//
// `state inspect` is offline: it reads a server's -state-dir directly
// (snapshot + WAL tail as JSON, CRCs verified) without contacting any
// server, for operator debugging of durable state.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"copernicus/internal/chaos"
	"copernicus/internal/client"
	"copernicus/internal/controller"
	"copernicus/internal/core"
	"copernicus/internal/msm"
	"copernicus/internal/obs"
	"copernicus/internal/store"
	"copernicus/internal/wire"
)

func main() {
	serverAddr := flag.String("server", "127.0.0.1:7770", "server address")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: cpcctl -server ADDR {submit|status} [flags] | cpcctl state inspect DIR")
		os.Exit(2)
	}

	// The state subcommand works on local files; dispatch it before dialing
	// any server.
	if flag.Arg(0) == "state" {
		stateCmd(flag.Args()[1:])
		return
	}

	node, err := core.NewTLSNode(0, chaos.Config{}, obs.New())
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()
	serverID, err := node.ConnectPeer(*serverAddr)
	if err != nil {
		log.Fatalf("connecting to %s: %v", *serverAddr, err)
	}

	cl := client.New(node, client.Config{Server: serverID})
	switch flag.Arg(0) {
	case "submit":
		submit(cl, flag.Args()[1:])
	case "status":
		status(cl, flag.Args()[1:])
	case "repex":
		repexCmd(cl, flag.Args()[1:])
	case "tenant":
		tenantCmd(cl, flag.Args()[1:])
	default:
		fmt.Fprintf(os.Stderr, "cpcctl: unknown subcommand %q\n", flag.Arg(0))
		os.Exit(2)
	}
}

// stateCmd handles the offline `state inspect <dir>` subcommand.
func stateCmd(args []string) {
	if len(args) < 2 || args[0] != "inspect" {
		fmt.Fprintln(os.Stderr, "usage: cpcctl state inspect DIR")
		os.Exit(2)
	}
	insp, err := store.Inspect(args[1])
	if err != nil {
		log.Fatalf("cpcctl state inspect: %v", err)
	}
	out, err := json.MarshalIndent(insp, "", "  ")
	if err != nil {
		log.Fatalf("cpcctl state inspect: %v", err)
	}
	fmt.Println(string(out))
	// The JSON above is the machine surface; repeat the operator-critical
	// replication facts on stderr so they are not lost in a pipe.
	fmt.Fprintf(os.Stderr, "cpcctl: last journaled seq %d\n", insp.LastSeq)
	if insp.Replica != nil {
		fmt.Fprintf(os.Stderr, "cpcctl: replica role=%s epoch=%d peer=%s\n",
			insp.Replica.Role, insp.Replica.Epoch, insp.Replica.PeerID)
	}
	if insp.Gap != "" {
		fmt.Fprintf(os.Stderr, "cpcctl: WARNING: replay gap: %s\n", insp.Gap)
	}
	if !insp.Healthy {
		os.Exit(1)
	}
}

func submit(cl *client.Client, args []string) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	name := fs.String("name", "", "project name (required)")
	ctrl := fs.String("controller", "msm", "controller plugin: msm, bar or repex")
	// MSM flags.
	generations := fs.Int("generations", 8, "msm: clustering generations")
	clusters := fs.Int("clusters", 1000, "msm: microstate count")
	starts := fs.Int("starts", 9, "msm: unfolded starting conformations")
	tasks := fs.Int("tasks", 25, "msm: trajectories per start")
	segment := fs.Float64("segment-ns", 50, "msm: command length in ns")
	weighting := fs.String("weighting", "adaptive", "msm: adaptive or even")
	stream := fs.Bool("stream", false, "msm: stream frame chunks + incremental clustering")
	streamEvery := fs.Float64("stream-every-ns", 0, "msm: worker flush interval in ns (0 = 5×frame)")
	convTol := fs.Float64("converge-tol", 0, "msm: population-convergence TV tolerance (0 = default)")
	convChecks := fs.Int("converge-checks", 0, "msm: consecutive passing checks per generation (0 = default)")
	// BAR flags.
	windows := fs.Int("windows", 5, "bar: lambda windows")
	samples := fs.Int("samples", 500, "bar: samples per command")
	target := fs.Float64("target-stderr", 0.05, "bar: stop at this total error (kT)")
	deltaf := fs.Float64("delta-f", 3.0, "bar: exact ΔF of the synthetic system (kT)")
	// Repex flags.
	replicas := fs.Int("replicas", 8, "repex: temperature-ladder rungs")
	tMin := fs.Float64("t-min", 100, "repex: ladder bottom temperature (K)")
	tMax := fs.Float64("t-max", 200, "repex: ladder top temperature (K)")
	mode := fs.String("mode", "sync", "repex: exchange pattern, sync (barrier after every epoch) or async (neighbours pair as they arrive)")
	segSteps := fs.Int("segment-steps", 40, "repex: MD steps between exchange attempts")
	epochs := fs.Int("epochs", 4, "repex: segments per rung")
	seed := fs.Uint64("seed", 1, "project RNG seed")
	// Multi-tenant submission flags.
	tenant := fs.String("tenant", "", "tenant account to bill the project to (empty = default tenant)")
	priority := fs.Int("priority", 0, "base priority the project's commands inherit")
	deadline := fs.Duration("deadline", 0, "reject the submission if not admitted within this duration (0 = none)")
	if err := fs.Parse(args); err != nil {
		log.Fatal(err)
	}
	if *name == "" {
		log.Fatal("cpcctl submit: -name is required")
	}

	var params []byte
	var err error
	switch *ctrl {
	case "msm":
		p := controller.DefaultMSMParams()
		p.Generations = *generations
		p.Clusters = *clusters
		p.NStarts = *starts
		p.TasksPerStart = *tasks
		p.SegmentNs = *segment
		p.Seed = *seed
		p.Stream = *stream
		p.StreamEveryNs = *streamEvery
		p.ConvergeTol = *convTol
		p.ConvergeChecks = *convChecks
		switch *weighting {
		case "adaptive":
			p.Weighting = msm.AdaptiveWeighting
		case "even":
			p.Weighting = msm.EvenWeighting
		default:
			log.Fatalf("cpcctl: unknown weighting %q", *weighting)
		}
		params, err = wire.Marshal(&p)
	case "bar":
		p := controller.DefaultBARParams()
		p.Windows = *windows
		p.SamplesPerCommand = *samples
		p.TargetStdErr = *target
		p.Offset = *deltaf
		p.Seed = *seed
		params, err = wire.Marshal(&p)
	case "repex":
		p := controller.DefaultRepexParams()
		p.Replicas = *replicas
		p.TMin = *tMin
		p.TMax = *tMax
		p.Mode = *mode
		p.SegmentSteps = *segSteps
		p.Epochs = *epochs
		p.Seed = *seed
		params, err = wire.Marshal(&p)
	default:
		log.Fatalf("cpcctl: unknown controller %q", *ctrl)
	}
	if err != nil {
		log.Fatalf("encoding params: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req := client.SubmitRequest{
		Name:       *name,
		Controller: *ctrl,
		Params:     params,
		Tenant:     *tenant,
		Priority:   *priority,
	}
	if *deadline != 0 {
		req.Deadline = time.Now().Add(*deadline)
	}
	receipt, err := cl.Submit(ctx, req)
	if err != nil {
		switch {
		case errors.Is(err, client.ErrQuotaExceeded):
			log.Fatalf("submit: rejected by tenant quota (terminal — raise the quota or drain usage): %v", err)
		case errors.Is(err, client.ErrAdmissionShed):
			log.Fatalf("submit: shed by admission control (retryable — back off and resubmit): %v", err)
		default:
			log.Fatalf("submit: %v", err)
		}
	}
	fmt.Printf("cpcctl: project %q submitted (%s controller, tenant %q) to %s\n",
		*name, *ctrl, receipt.Tenant, receipt.Server)
}

// repexCmd handles `repex stats -name X`: it decodes the controller's live
// status detail into the exchange ladder's per-pair acceptance table.
func repexCmd(cl *client.Client, args []string) {
	if len(args) < 1 || args[0] != "stats" {
		fmt.Fprintln(os.Stderr, "usage: cpcctl repex stats -name NAME")
		os.Exit(2)
	}
	fs := flag.NewFlagSet("repex stats", flag.ExitOnError)
	name := fs.String("name", "", "project name (required)")
	if err := fs.Parse(args[1:]); err != nil {
		log.Fatal(err)
	}
	if *name == "" {
		log.Fatal("cpcctl repex stats: -name is required")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := cl.Status(ctx, *name)
	if err != nil {
		log.Fatalf("repex stats: %v", err)
	}
	if st.Controller != controller.RepexControllerName {
		log.Fatalf("repex stats: project %q runs controller %q, not %q",
			*name, st.Controller, controller.RepexControllerName)
	}
	if len(st.Detail) == 0 {
		log.Fatalf("repex stats: no controller detail for %q (server predates repex or project not started)", *name)
	}
	var d controller.RepexDetail
	if err := wire.Unmarshal(st.Detail, &d); err != nil {
		log.Fatalf("repex stats: decoding detail: %v", err)
	}
	fmt.Printf("%s  state=%s mode=%s epoch=%d segments=%d waiting=%d round-trips=%d\n",
		st.Name, st.State, d.Mode, d.Epoch, d.Segments, d.Waiting, d.RoundTrips)
	var att, acc uint64
	for i := range d.Attempts {
		att += d.Attempts[i]
		acc += d.Accepts[i]
		rate := 0.0
		if d.Attempts[i] > 0 {
			rate = float64(d.Accepts[i]) / float64(d.Attempts[i])
		}
		fmt.Printf("  pair %2d-%-2d  %7.2fK <-> %7.2fK  accepted %d/%d (%.0f%%)\n",
			i, i+1, d.Temps[i], d.Temps[i+1], d.Accepts[i], d.Attempts[i], 100*rate)
	}
	if att > 0 {
		fmt.Printf("  overall    accepted %d/%d (%.0f%%)\n", acc, att, 100*float64(acc)/float64(att))
	}
}

// tenantCmd handles `tenant list`, `tenant quota get` and `tenant quota set`.
func tenantCmd(cl *client.Client, args []string) {
	if len(args) < 1 {
		fmt.Fprintln(os.Stderr, "usage: cpcctl tenant {list | quota get -tenant T | quota set -tenant T [flags]}")
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	switch args[0] {
	case "list":
		tenants, err := cl.Tenants(ctx)
		if err != nil {
			log.Fatalf("tenant list: %v", err)
		}
		for _, t := range tenants {
			printTenant(t)
		}
	case "quota":
		if len(args) < 2 {
			fmt.Fprintln(os.Stderr, "usage: cpcctl tenant quota {get|set} -tenant T [flags]")
			os.Exit(2)
		}
		switch args[1] {
		case "get":
			fs := flag.NewFlagSet("tenant quota get", flag.ExitOnError)
			tenant := fs.String("tenant", "", "tenant ID (required)")
			if err := fs.Parse(args[2:]); err != nil {
				log.Fatal(err)
			}
			if *tenant == "" {
				log.Fatal("cpcctl tenant quota get: -tenant is required")
			}
			st, err := cl.TenantQuota(ctx, *tenant)
			if err != nil {
				log.Fatalf("tenant quota get: %v", err)
			}
			printTenant(st)
		case "set":
			fs := flag.NewFlagSet("tenant quota set", flag.ExitOnError)
			tenant := fs.String("tenant", "", "tenant ID (required)")
			weight := fs.Float64("weight", 0, "fair-share weight (0 = keep current)")
			maxQueued := fs.Int("max-queued", -1, "max queued commands (-1 = keep, 0 = unlimited)")
			maxCores := fs.Int("max-cores", -1, "max concurrent cores (-1 = keep, 0 = unlimited)")
			maxStorage := fs.Int64("max-storage-bytes", -1, "max stored result bytes (-1 = keep, 0 = unlimited)")
			if err := fs.Parse(args[2:]); err != nil {
				log.Fatal(err)
			}
			if *tenant == "" {
				log.Fatal("cpcctl tenant quota set: -tenant is required")
			}
			st, err := cl.SetTenantQuota(ctx, wire.TenantQuotaUpdate{
				Tenant:          *tenant,
				Weight:          *weight,
				MaxQueued:       *maxQueued,
				MaxCores:        *maxCores,
				MaxStorageBytes: *maxStorage,
			})
			if err != nil {
				log.Fatalf("tenant quota set: %v", err)
			}
			printTenant(st)
		default:
			fmt.Fprintf(os.Stderr, "cpcctl tenant quota: unknown action %q\n", args[1])
			os.Exit(2)
		}
	default:
		fmt.Fprintf(os.Stderr, "cpcctl tenant: unknown action %q\n", args[0])
		os.Exit(2)
	}
}

func printTenant(t wire.TenantStatus) {
	id := t.ID
	if id == "" {
		id = "(default)"
	}
	fmt.Printf("%s  weight=%g max-queued=%d max-cores=%d max-storage-bytes=%d  queued=%d inflight-cores=%d core-seconds=%.1f storage-bytes=%d oldest-wait=%.1fs\n",
		id, t.Weight, t.MaxQueued, t.MaxCores, t.MaxStorageBytes,
		t.Queued, t.InflightCores, t.CoreSeconds, t.StorageBytes, t.OldestWaitSeconds)
}

func status(cl *client.Client, args []string) {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	name := fs.String("name", "", "project name (required)")
	watch := fs.Bool("watch", false, "poll until the project finishes")
	interval := fs.Duration("interval", 5*time.Second, "watch poll interval")
	if err := fs.Parse(args); err != nil {
		log.Fatal(err)
	}
	if *name == "" {
		log.Fatal("cpcctl status: -name is required")
	}
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		st, err := cl.Status(ctx, *name)
		cancel()
		if err != nil {
			log.Fatalf("status: %v", err)
		}
		fmt.Printf("%s  state=%s gen=%d queued=%d running=%d finished=%d failed=%d  %s\n",
			st.Name, st.State, st.Generation, st.Queued, st.Running, st.Finished, st.Failed, st.Note)
		if !*watch || st.State != "running" {
			return
		}
		time.Sleep(*interval)
	}
}
