#!/bin/sh
# ci.sh — the checks a change must pass before merging, and the one place
# each check is spelled out: the Makefile's scenario targets (make race,
# make crash, ...) call the stanzas below by name.
#
# Usage: scripts/ci.sh            every stanza, in order
#        scripts/ci.sh quick      vet, build and the full test suite only
#        scripts/ci.sh STANZA...  the named stanzas (race, fuzz, chaos, ...)
set -eu
cd "$(dirname "$0")/.."
GO=${GO:-go}

basic() {
    echo "== go vet =="
    $GO vet ./...
    echo "== go build =="
    $GO build ./...
    echo "== go test =="
    $GO test ./...
}

# Race-enabled tests for the concurrency-heavy packages
# (./internal/store/... includes internal/store/replica).
race() {
    echo "== go test -race (wire, obs, server, worker, queue, overlay, retry, chaos, store, store/replica, md, des, repex, msm, controller) =="
    $GO test -race ./internal/wire/... ./internal/obs/... ./internal/server/... \
        ./internal/worker/... ./internal/queue/... ./internal/overlay/... \
        ./internal/retry/... ./internal/chaos/... ./internal/store/... \
        ./internal/store/replica/... ./internal/md/... ./internal/des/... \
        ./internal/repex/... ./internal/msm/... ./internal/controller/...
}

# benchmarks/ is a nested module: ./... does not reach it.
benchmod() {
    echo "== benchmarks module (vet, test) =="
    $GO vet -C benchmarks ./...
    $GO test -C benchmarks ./...
}

# The wire decoders and the WAL reader against arbitrary bytes, ten seconds
# per target: no panic, no allocation out of proportion to the input, and
# whatever decodes survives a round trip or, for the WAL, the intact prefix
# comes back (go test -fuzz takes one target per run).
fuzz() {
    echo "== wire and WAL fuzz (10 s per target) =="
    $GO test -run '^$' -fuzz=FuzzUnmarshalHot -fuzztime=10s ./internal/wire
    $GO test -run '^$' -fuzz=FuzzReadEnvelope -fuzztime=10s ./internal/wire
    $GO test -run '^$' -fuzz=FuzzReadWAL -fuzztime=10s ./internal/store
}

smoke() {
    echo "== bench smoke (md, wire, msm) =="
    $GO test -run=NONE -bench=. -benchtime=1x ./internal/md
    $GO test -run=NONE -bench=BenchmarkWireRoundTrip -benchtime=1x ./internal/wire
    $GO test -run=NONE -bench='BenchmarkKCenters|BenchmarkAssignAll' -benchtime=1x ./internal/msm
}

# Chaos soak: the MSM pipeline completing under seeded fault injection
# (25% dropped writes, partial frames, a forced full partition) — see
# docs/ROBUSTNESS.md.
chaos() {
    echo "== chaos soak (race) =="
    $GO test -race -run TestChaosSoak -timeout 300s ./internal/core/
}

# Kill-and-restart: the project server hard-killed mid-ensemble and rebuilt
# from its -state-dir, with and without WAL write faults (the faulted run
# five times over: it was the flake), an older build's crashed sync REMD
# ladder restarted on workers smaller than its epoch, two projects of each
# bundled kind from two tenants sharing the restarted server five times
# over, then the command
# lifecycle's transition table and the server-level recovery tests (the
# state directories older builds wrote among them) 20 times each — see
# docs/PERSISTENCE.md.
crash() {
    echo "== crash-restart recovery (race; lifecycle table x20, WAL faults x5, two of a kind x5) =="
    $GO test -race -run TestFabricCrashRestart -timeout 600s ./internal/core/
    $GO test -race -count=5 -run TestFabricCrashRestartWithWALFaults -timeout 900s ./internal/core/
    $GO test -race -count=5 -run TestFabricTwoProjectsOfAKindCrashRestart -timeout 900s ./internal/core/
    $GO test -race -count=20 -timeout 900s \
        -run 'TestLifecycle|TestRecovery|TestWorkerReportedFailure|TestAckImpliesDurable|TestRecoversParentWrittenStateDir' ./internal/server/
}

# Heartbeat-lease failover: the project server hard-killed (and fully
# partitioned) mid-ensemble, its warm standby promoting and finishing the
# campaign, the fenced ex-primary rejoining as standby — see
# docs/PERSISTENCE.md ("Replication & failover") — then the Host assembly
# cpcserver starts, driven directly: restart-after-fence with each side's
# original configuration, a standby started before its primary, and
# failover over real TLS, five times each.
failover() {
    echo "== standby failover (race; Host restart-after-fence, standby-first start and TLS failover x5) =="
    $GO test -race -run TestFailover -timeout 600s ./internal/core/
    $GO test -race -count=5 -timeout 900s \
        -run 'TestHost|TestStandbyStartsBeforeItsPrimary|TestFailoverOverTLS|TestTLSDeploymentEndToEnd' ./internal/core/
}

# Event-driven dispatch under stress: relay-homed workers picking up a
# campaign submitted after they parked, the park/wake/expire/supersede/close
# interleavings, a handler's commands reaching a match whole (and no match
# waiting on a handler), and the overlay's concurrent request handlers, 20
# times each — see docs/SCHEDULING.md ("Dispatch").
dispatch() {
    echo "== event-driven dispatch stress (race, x20) =="
    $GO test -race -count=20 -timeout 600s \
        -run 'TestFabricMSMDistributedAcrossRelays|TestIdleFleetPicksUpAtOnce|TestFabricCloseWithIdleWorkers' ./internal/core/
    $GO test -race -count=20 -timeout 600s \
        -run 'TestParked|TestWakeCostsOnePerPush|TestLateRelayedWorkloadHandedBack|TestRelayedAssignmentLostReplyRecovered|TestAnnounceNeverWaitsOnAHandler|TestHandlerBatchArrivesWhole|TestRefusedBatchQueuesNothing' ./internal/server/
    $GO test -race -count=20 -timeout 600s -run 'TestWorkerAbortsTerminatedCommand' ./internal/worker/
    $GO test -race -count=20 -timeout 600s \
        -run 'TestBlockedHandler|TestCloseWithBlockedHandler|TestLinkHandlerCap|TestFloodPasses' ./internal/overlay/
}

# The multi-tenant scheduling acceptance scenario: 2000 tenants with
# heavy-tailed traffic against the real fair-share queue, with a slow-fsync
# WAL fault window, and its seed determinism, on the DES fleet that
# dispatches like the server (parked announces woken by the queue's Ready
# hook, re-announced when the 2 s hold runs out), then that fleet's own
# tests three times over — see docs/SCHEDULING.md ("Scenario dispatch").
tenants() {
    echo "== multi-tenant scheduling scenario (race; fleet x3) =="
    $GO test -race -run 'TestMultiTenantScenario|TestTenantScenario' -timeout 300s ./internal/des/
    $GO test -race -count=3 -run TestFleet -timeout 300s ./internal/des/
}

# The replica-exchange scheduling scenario: the shipped RepexController's
# sync vs async ladders on the same DES fleet against the real fair-share
# queue, with a worker-churn fault window, and the fleet's tests three times
# over, then a sync ladder wider than any one worker on a real fabric five
# times over — see docs/SCHEDULING.md ("Replica-exchange dispatch").
repex() {
    echo "== replica-exchange scheduling scenario (race; fleet x3, wide sync ladder x5) =="
    $GO test -race -run TestRepexDES -timeout 300s ./internal/des/
    $GO test -race -count=3 -run TestFleet -timeout 300s ./internal/des/
    $GO test -race -count=5 -run TestRepexSyncLadderWiderThanWorker -timeout 300s ./internal/core/
}

# The streaming-analysis scenario: incremental mini-batch clustering vs full
# batch reclustering over a 20-round adaptive campaign, on the real
# internal/msm code — see docs/PERFORMANCE.md ("Streaming analysis").
stream() {
    echo "== streaming-analysis scenario (race) =="
    $GO test -race -run TestStreamAnalysisDES -timeout 300s ./internal/des/
}

case "${1:-all}" in
all) set -- basic race benchmod fuzz smoke chaos crash failover dispatch tenants repex stream ;;
quick) set -- basic ;;
esac
for stanza in "$@"; do
    case "$stanza" in
    basic | race | benchmod | fuzz | smoke | chaos | crash | failover | dispatch | tenants | repex | stream) "$stanza" ;;
    *)
        echo "ci: unknown stanza $stanza" >&2
        exit 2
        ;;
    esac
done
echo "ci: passed: $*"
