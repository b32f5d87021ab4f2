#!/bin/sh
# bench.sh — runs the MD kernel micro-benchmarks and records the numbers in
# BENCH_md.json.
#
# Usage: scripts/bench.sh [benchtime]
#   benchtime   go -benchtime value for the micro-benches (default 2s;
#               pass e.g. 1x for a smoke run)
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
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

echo "== kernel micro-benches (internal/md, -benchtime $BENCHTIME) =="
go test -run=NONE -bench='BenchmarkNonbondedKernel|BenchmarkNeighborRebuild|BenchmarkStepVillinBox' \
    -benchtime "$BENCHTIME" ./internal/md | tee "$TMP"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v nproc="$NPROC" -v single="$SINGLE_CORE" '
/^Benchmark/ {
    name = $1
    sub(/^Benchmark/, "", name)
    sub(/-[0-9]+$/, "", name)   # strip GOMAXPROCS suffix
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op") ns[name] = $i
    }
}
END {
    printf "{\n"
    printf "  \"generated\": \"%s\",\n", date
    printf "  \"nproc\": %d,\n", nproc
    if (single) printf "  \"single_core_host\": true,\n"
    printf "  \"ns_per_op\": {\n"
    n = 0
    for (k in ns) order[n++] = k
    for (i = 0; i < n; i++) {
        k = order[i]
        printf "    \"%s\": %s%s\n", k, ns[k], (i < n-1 ? "," : "")
    }
    printf "  }"
    for (w = 2; w <= 4; w += 2) {
        if (("StepVillinBox/serial" in ns) && (("StepVillinBox/shards" w) in ns) && ns["StepVillinBox/shards" w] > 0)
            printf ",\n  \"villin_speedup_%dshards\": %.3f", w, ns["StepVillinBox/serial"] / ns["StepVillinBox/shards" w]
        if (("NeighborRebuild/workers1" in ns) && (("NeighborRebuild/workers" w) in ns) && ns["NeighborRebuild/workers" w] > 0)
            printf ",\n  \"rebuild_speedup_%dworkers\": %.3f", w, ns["NeighborRebuild/workers1"] / ns["NeighborRebuild/workers" w]
    }
    printf "\n}\n"
}' "$TMP" > "$OUT"

echo "bench: wrote $OUT"
cat "$OUT"
