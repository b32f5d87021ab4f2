#!/bin/sh
# bench.sh — runs the MD kernel micro-benchmarks and records the numbers in
# BENCH_md.json.
#
# Usage: scripts/bench.sh [benchtime]
#   benchtime   go -benchtime value for the micro-benches (default 2s;
#               pass e.g. 1x for a smoke run)
#
# Each row runs 5 times (-count) and BENCH_md.json records the
# median: one run of a kernel row spreads by ±20 % on a 2-vCPU host, too
# much to resolve a before/after. The count is stamped into the file.
#
# The parallel-speedup numbers (shard scaling, rebuild workers) are
# meaningless on a single-core host, so such runs are refused unless
# BENCH_ALLOW_SINGLE_CORE=1 — and then the output is annotated so nobody
# mistakes the figures for real scaling data. A single-core run never
# overwrites a BENCH_md.json recorded on a multi-core host, override or not.
# The host core count is stamped into BENCH_md.json either way.
set -eu
cd "$(dirname "$0")/.."

NPROC="$(nproc 2>/dev/null || echo 1)"
OUT="BENCH_md.json"
SINGLE_CORE=0
if [ "$NPROC" -le 1 ]; then
    OLD_NPROC="$(sed -n 's/^ *"nproc": *\([0-9]*\).*/\1/p' "$OUT" 2>/dev/null || true)"
    if [ "${OLD_NPROC:-0}" -gt 1 ]; then
        echo "bench: refusing to overwrite $OUT (recorded on $OLD_NPROC cpus) from a single-core host." >&2
        exit 1
    fi
    if [ "${BENCH_ALLOW_SINGLE_CORE:-0}" = "1" ]; then
        SINGLE_CORE=1
        echo "bench: WARNING: single-core host ($NPROC cpu) — parallel speedups below are NOT meaningful" >&2
    else
        echo "bench: refusing to benchmark on a single-core host ($NPROC cpu):" >&2
        echo "bench: shard/worker speedup numbers would be noise. Set BENCH_ALLOW_SINGLE_CORE=1 to override." >&2
        exit 1
    fi
fi

BENCHTIME="${1:-2s}"
COUNT=5
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

echo "== kernel micro-benches (internal/md, -benchtime $BENCHTIME, -count $COUNT) =="
go test -run=NONE -bench='BenchmarkNonbondedKernel|BenchmarkNeighborRebuild|BenchmarkStepVillinBox' \
    -benchtime "$BENCHTIME" -count "$COUNT" ./internal/md | tee "$TMP"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v nproc="$NPROC" -v single="$SINGLE_CORE" -v count="$COUNT" '
/^Benchmark/ {
    name = $1
    sub(/^Benchmark/, "", name)
    sub(/-[0-9]+$/, "", name)   # strip GOMAXPROCS suffix
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op") {
            # insert in order, so the runs of a row stay sorted
            k = ++runs[name]
            while (k > 1 && run[name, k-1] > $i + 0) { run[name, k] = run[name, k-1]; k-- }
            run[name, k] = $i + 0
        }
    }
}
END {
    for (name in runs) {
        m = runs[name]
        ns[name] = (m % 2) ? run[name, (m+1)/2] : (run[name, m/2] + run[name, m/2+1]) / 2
    }
    printf "{\n"
    printf "  \"generated\": \"%s\",\n", date
    printf "  \"nproc\": %d,\n", nproc
    printf "  \"count\": %d,\n", count
    if (single) printf "  \"single_core_host\": true,\n"
    printf "  \"ns_per_op\": {\n"
    n = 0
    for (k in ns) order[n++] = k
    for (i = 0; i < n; i++) {
        k = order[i]
        printf "    \"%s\": %.0f%s\n", k, ns[k], (i < n-1 ? "," : "")
    }
    printf "  }"
    for (w = 2; w <= 4; w += 2) {
        if (("StepVillinBox/serial" in ns) && (("StepVillinBox/shards" w) in ns) && ns["StepVillinBox/shards" w] > 0)
            printf ",\n  \"villin_speedup_%dshards\": %.3f", w, ns["StepVillinBox/serial"] / ns["StepVillinBox/shards" w]
        if (("NeighborRebuild/workers1" in ns) && (("NeighborRebuild/workers" w) in ns) && ns["NeighborRebuild/workers" w] > 0)
            printf ",\n  \"rebuild_speedup_%dworkers\": %.3f", w, ns["NeighborRebuild/workers1"] / ns["NeighborRebuild/workers" w]
    }
    if (("NeighborRebuild/water870/grid" in ns) && ("NeighborRebuild/water870/sweep" in ns) && ns["NeighborRebuild/water870/sweep"] > 0)
        printf ",\n  \"water870_grid_over_sweep\": %.3f", ns["NeighborRebuild/water870/grid"] / ns["NeighborRebuild/water870/sweep"]
    if (("NeighborRebuild/smallbox/workers1" in ns) && ("NeighborRebuild/smallbox/workers2" in ns) && ns["NeighborRebuild/smallbox/workers2"] > 0)
        printf ",\n  \"small_box_rebuild_speedup_2workers\": %.3f", ns["NeighborRebuild/smallbox/workers1"] / ns["NeighborRebuild/smallbox/workers2"]
    printf "\n}\n"
}' "$TMP" > "$OUT"

echo "bench: wrote $OUT"
cat "$OUT"
