// Command cpcbench is the repository's benchmark: five workloads that drive
// a real in-process core.Fabric through its public surface, each reporting
// the end-to-end metrics of BENCHMARK.json (-trace 0) or the per-layer
// metrics (-trace 1). See ../README.md.
//
//	cpcbench -workload dispatch_mem -seed 1 -seconds 15 -trace 0
//	cpcbench -workload all -seed 1            # one full pass, a process per workload
//	cpcbench -calibrate [a.json b.json]       # two interleaved sets of passes (or those on file), writes the bounds
//	cpcbench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"text/tabwriter"
)

// benchProcs is the GOMAXPROCS every workload is sized for and pinned to.
const benchProcs = 2

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summary is the full record of one invocation, written beside the trace.
type summary struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Trace    bool     `json:"trace"`
	Env      envStamp `json:"env"`
	Problems []string `json:"problems"`
	// RoundRates are the per-round rates behind cmds_per_s (-trace 0 only),
	// the discarded first round included.
	RoundRates []float64 `json:"round_rates,omitempty"`
	Report     report    `json:"report"`
	// Claim is always null: this program measures, it does not compare.
	Claim *string `json:"claim"`
}

// envStamp records where the numbers were measured.
type envStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	CPUModel   string `json:"cpu_model"`
	StateFS    string `json:"state_fs"`
}

func readEnv(outDir string) envStamp {
	e := envStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		StateFS:    fsType(outDir),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.IndexByte(line, ':'); i >= 0 {
					e.CPUModel = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	return e
}

// fsType names the filesystem holding dir by its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0x858458f6:
		return "ramfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// options are the command line.
type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	outDir    string
	calibrate bool
	passes    int
	compare   bool
	benchJSON string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name, or \"all\" for one full pass")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 15, "nominal length of the measured phase; sets the command counts")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics and trace file")
	flag.StringVar(&o.outDir, "out", "out", "directory for summaries, traces and durable state")
	flag.BoolVar(&o.calibrate, "calibrate", false, "run two interleaved sets of full passes (or read the two pass files given) and write the bounds")
	flag.IntVar(&o.passes, "passes", 5, "passes per set for -calibrate")
	flag.BoolVar(&o.compare, "compare", false, "compare two pass files: -compare a.json b.json")
	flag.StringVar(&o.benchJSON, "benchmark-json", "../BENCHMARK.json", "path of BENCHMARK.json, for -calibrate and -compare")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "cpcbench:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two pass files")
		}
		return runCompare(o.benchJSON, args[0], args[1])
	}
	outDir, seed, seconds, trace := o.outDir, o.seed, o.seconds, o.trace != 0
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if o.calibrate {
		return runCalibrate(o.benchJSON, outDir, seconds, o.passes, args)
	}
	if o.workload == "all" {
		_, err := runPass(outDir, seed, seconds, filepath.Join(outDir, fmt.Sprintf("pass_%d.json", seed)))
		return err
	}
	wl := findWorkload(o.workload)
	if wl == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	runtime.GOMAXPROCS(benchProcs)
	env := readEnv(outDir)
	if env.NProc < benchProcs {
		return fmt.Errorf("host has %d CPU, the workloads need %d", env.NProc, benchProcs)
	}
	if wl.name == "dispatch_wal" && (env.StateFS == "tmpfs" || env.StateFS == "ramfs") {
		return fmt.Errorf("%s is on %s, where fsync is a no-op: dispatch_wal would measure nothing", outDir, env.StateFS)
	}

	h := &harness{wl: wl, seed: seed, seconds: seconds, trace: trace, outDir: outDir, scale: 1,
		metrics: make(map[string]float64)}
	if err := wl.run(h); err != nil {
		return fmt.Errorf("%s: %w", wl.name, err)
	}
	rep, err := h.report()
	if err != nil {
		return err
	}
	sum := summary{Workload: wl.name, Seed: seed, Seconds: seconds, Trace: trace, Env: env,
		Problems: h.problems, RoundRates: h.roundRates, Report: *rep}
	if err := writeJSON(filepath.Join(outDir, fmt.Sprintf("summary_%s_trace%d.json", wl.name, o.trace)), &sum); err != nil {
		return err
	}
	if trace {
		if err := writeTrace(filepath.Join(outDir, "trace_"+wl.name+".json"), wl.name, h.spans); err != nil {
			return err
		}
	}
	printTable(os.Stderr, wl.name, env, rep)
	for _, p := range h.problems {
		fmt.Fprintln(os.Stderr, "cpcbench: INCORRECT:", p)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return fmt.Errorf("%s: %d correctness violations", wl.name, len(h.problems))
	}
	return nil
}

// report checks that exactly the declared metrics were produced, each a
// finite number, and attaches the units.
func (h *harness) report() (*report, error) {
	specs := endToEnd
	if h.trace {
		specs = perLayer
	}
	rep := &report{
		Correct:   len(h.problems) == 0,
		Attempted: h.attempted,
		Failed:    h.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, s := range specs {
		v, ok := h.metrics[s.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", h.wl.name, s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s is %g", h.wl.name, s.Name, v)
		}
		rep.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	if len(h.metrics) != len(specs) {
		for name := range h.metrics {
			if _, ok := rep.Metrics[name]; !ok {
				return nil, fmt.Errorf("%s: metric %s is measured but not declared", h.wl.name, name)
			}
		}
	}
	if rep.Attempted < 1 {
		return nil, fmt.Errorf("%s: no command was attempted", h.wl.name)
	}
	return rep, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printTable(w *os.File, workload string, env envStamp, rep *report) {
	fmt.Fprintf(w, "%s  nproc=%d GOMAXPROCS=%d %s kernel=%s cpu=%q fs=%s\n",
		workload, env.NProc, env.GOMAXPROCS, env.GoVersion, env.Kernel, env.CPUModel, env.StateFS)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range specs {
			if m, ok := rep.Metrics[s.Name]; ok {
				fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", s.Name, m.Value, m.Unit)
			}
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", rep.Attempted, rep.Failed, rep.Correct)
}
