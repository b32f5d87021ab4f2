package main

import "strings"

// metricSpec names one reported metric. BENCHMARK.json declares the same
// names, units and directions; the smoke test holds the two lists together.
type metricSpec struct {
	Name, Unit, Better string
}

// endToEnd is what a user of the system sees, reported by every workload
// with -trace 0. The driver's contract wants every end-to-end metric on
// every workload and never zero, so the one headline rate is commands per
// second everywhere; generations per hour and MD ns/day are the same rate
// restated for one workload family and live in perLayer
// (controller.generations_per_hour, md.ns_per_day). Peak resident memory was
// end-to-end in the first calibration and was demoted: Go's heap high-water
// depends on where GC cycles happen to fall, and on md_ensemble (small live
// heap) its inter-quartile spread was 18.4 %, above any usable bound. It is
// fabric.peak_rss_mb now; alloc_kb_per_cmd (spread <= 0.7 %) carries memory.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"cmds_per_s", "1/s", "higher"},
	{"alloc_kb_per_cmd", "KiB", "lower"},
}

// perLayer is reported with -trace 1; see unusedLayers for the ones a
// workload reports as 0 without measuring.
var perLayer = []metricSpec{
	{"wire.encode_us_per_msg", "us", "lower"},
	{"wire.decode_us_per_msg", "us", "lower"},
	{"wire.encode_allocs_per_msg", "count", "lower"},

	{"overlay.msgs_per_cmd", "count", "lower"},
	{"overlay.bytes_per_cmd", "B", "lower"},
	{"overlay.request_rtt_us_p50", "us", "lower"},
	{"overlay.relay_rtt_us_p50", "us", "lower"},

	{"queue.push_us_p50", "us", "lower"},
	{"queue.match_us_p50", "us", "lower"},
	{"queue.wait_ms_p50", "ms", "lower"},

	{"store.append_ms_p50", "ms", "lower"},
	{"store.append_ms_p99", "ms", "lower"},
	{"store.records_per_cmd", "count", "lower"},
	{"store.bytes_per_cmd", "B", "lower"},
	{"store.fsyncs_per_cmd", "count", "lower"},

	{"server.submit_ms_p50", "ms", "lower"},
	{"server.dispatch_ms_p50", "ms", "lower"},
	{"server.result_ms_p50", "ms", "lower"},
	{"server.first_result_s", "s", "lower"},

	{"worker.busy_share", "ratio", "higher"},
	{"worker.announces_per_cmd", "count", "lower"},
	{"worker.empty_announce_share", "ratio", "lower"},
	{"worker.pickup_ms_p50", "ms", "lower"},
	{"worker.return_ms_p50", "ms", "lower"},

	{"engines.run_ms_p50", "ms", "lower"},
	{"engines.run_ms_p99", "ms", "lower"},
	{"engines.chunks_per_cmd", "count", "lower"},
	{"engines.emit_blocked_ms_p50", "ms", "lower"},

	{"landscape.step_ns", "ns", "lower"},

	{"md.step_ms", "ms", "lower"},
	{"md.pairs_per_step", "count", "lower"},
	{"md.rebuilds_per_1k_steps", "count", "lower"},
	{"md.ns_per_day_serial", "ns/day", "higher"},
	{"md.shard_speedup_2", "ratio", "higher"},
	{"md.ns_per_day", "ns/day", "higher"},

	{"msm.kcenters_ms", "ms", "lower"},
	{"msm.assign_ns_per_frame", "ns", "lower"},
	{"msm.count_ms", "ms", "lower"},
	{"msm.timescales_ms", "ms", "lower"},
	{"msm.stream_observe_ns_per_frame", "ns", "lower"},

	{"controller.finished_ms_p50", "ms", "lower"},
	{"controller.finished_ms_max", "ms", "lower"},
	{"controller.frame_chunk_ms_p50", "ms", "lower"},
	{"controller.analysis_share", "ratio", "lower"},
	{"controller.cmds_per_gen", "count", "lower"},
	{"controller.sim_ns_total", "ns", "higher"},
	{"controller.generations_per_hour", "1/h", "higher"},

	{"fabric.cmd_rtt_ms_p50", "ms", "lower"},
	{"fabric.cmd_rtt_ms_p99", "ms", "lower"},
	{"fabric.cmd_rtt_samples", "count", "higher"},
	{"fabric.unattributed_ms_p50", "ms", "lower"},
	{"fabric.cmds_per_s_mean", "1/s", "higher"},
	{"fabric.cpu_us_per_cmd", "us", "lower"},
	{"fabric.mallocs_per_cmd", "count", "lower"},
	{"fabric.gc_pause_ms_total", "ms", "lower"},
	{"fabric.peak_rss_mb", "MiB", "lower"},
	{"fabric.tracing_overhead_pct", "%", "lower"},
	{"fabric.failed_cmd_share", "ratio", "lower"},
}

// layer returns the per-layer metrics whose names start with one of the
// prefixes.
func layer(prefixes ...string) []string {
	var out []string
	for _, m := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(m.Name, p) {
				out = append(out, m.Name)
			}
		}
	}
	return out
}

// campaignMetrics describe an MSM campaign and mean nothing elsewhere.
var campaignMetrics = []string{"controller.generations_per_hour", "controller.cmds_per_gen"}

// unusedLayers names, per workload, the per-layer metrics of layers the
// workload is predicted not to touch. Those are reported as 0 without being
// measured; every other metric must be measured, or the traced run fails.
// (engines.chunks_per_cmd is not here: it is counted everywhere, and the
// prediction that it is 0 off msm_stream is checked, not assumed.)
var unusedLayers = map[string][]string{
	"dispatch_mem": append(layer("store.", "landscape.", "md.", "msm.", "controller.sim_ns_total"), campaignMetrics...),
	"dispatch_wal": append(layer("landscape.", "md.", "msm.", "controller.sim_ns_total"), campaignMetrics...),
	"msm_batch":    layer("store.", "md.", "msm.stream_"),
	"msm_stream":   layer("store.", "md."),
	"md_ensemble":  append(layer("store.", "landscape.", "msm."), campaignMetrics...),
}

// workloadSpec freezes one workload's shape. Work is count-based: the
// command counts below are per second of -seconds, sized on the reference
// host (2 vCPU) so that the measured phase lasts about that long, and are
// the same on both sides of any comparison.
type workloadSpec struct {
	name string
	why  string
	run  func(h *harness) error
}

var workloads = []workloadSpec{
	{"dispatch_mem", "in-memory fabric, 2 tenants x 16 outstanding 0.5 ms commands: the control plane does the work, store/msm/md none", runDispatchMem},
	{"dispatch_wal", "same stream on a durable fabric (fsync on): every transition is a write before an ack, so store dominates", runDispatchWAL},
	{"msm_batch", "one landscape MSM campaign in batch mode on one core: engines/landscape and the growing analysis at each generation barrier dominate", runMSMBatch},
	{"msm_stream", "same campaign with Stream=true: the incremental msm path plus worker chunk emit and server ingest", runMSMStream},
	{"md_ensemble", "mdrun on the 192-molecule water box with 2-core commands: the md kernel and shard pool are >95% of the wall", runMDEnsemble},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
