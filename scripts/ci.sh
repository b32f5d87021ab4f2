#!/bin/sh
# ci.sh — the checks a change must pass before merging, and the one place
# each check is spelled out: the Makefile's scenario targets (make race,
# make crash, ...) call the stanzas below by name.
#
# Usage: scripts/ci.sh            every stanza, in order
#        scripts/ci.sh quick      gofmt, vet, build and the full test suite only
#        scripts/ci.sh STANZA...  the named stanzas (race, fuzz, chaos, ...)
set -eu
cd "$(dirname "$0")/.."
GO=${GO:-go}

basic() {
    echo "== gofmt =="
    unformatted=$(gofmt -l ./cmd ./internal ./examples ./benchmarks *.go)
    if [ -n "$unformatted" ]; then
        echo "gofmt: these files need formatting (make fmt):" >&2
        echo "$unformatted" >&2
        exit 1
    fi
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
    echo "== go test -race (wire, obs, server, worker, queue, overlay, retry, chaos, store, store/replica, md, des, repex, msm, controller, engines) =="
    $GO test -race ./internal/wire/... ./internal/obs/... ./internal/server/... \
        ./internal/worker/... ./internal/queue/... ./internal/overlay/... \
        ./internal/retry/... ./internal/chaos/... ./internal/store/... \
        ./internal/store/replica/... ./internal/md/... ./internal/des/... \
        ./internal/repex/... ./internal/msm/... ./internal/controller/... \
        ./internal/engines/...
    # The neighbour-list rebuild fills per-slab and per-band buffers from
    # several goroutines at once, and the kernel reads the list it leaves:
    # run their tests three times over.
    echo "== go test -race -count=3 (md neighbour-list rebuild and kernel) =="
    $GO test -race -count=3 -run 'PairList|Neighbor|Rebuild|NonbondedKernel' ./internal/md/
    # The engine goldens drive the band fill, the slab fill and the sharded
    # force loop end to end through MDEngine.Run.
    echo "== go test -race -count=3 (md engine goldens) =="
    $GO test -race -count=3 -run 'Golden' ./internal/engines/
}

# benchmarks/ is a nested module: ./... does not reach it.
benchmod() {
    echo "== benchmarks module (vet, test) =="
    $GO vet -C benchmarks ./...
    $GO test -C benchmarks ./...
}

# The binary codec (every registered type, picked by the first input byte),
# the frame reader and the WAL and snapshot readers against arbitrary bytes,
# ten seconds per target: no panic, no allocation out of
# proportion to the input, and whatever decodes survives a round trip or, for
# the WAL, the intact prefix comes back (go test -fuzz takes one target per
# run). Minimizing a new interesting input gets 1 s, not the default 60 s: a
# worker's execs are only reported when its minimization ends, and with both
# workers minimizing a ten-second run used to sit at 0 execs/s for the rest
# of its time. A failing input is still reported, whole if not minimized.
fuzz() {
    echo "== codec, frame, WAL and snapshot fuzz (10 s per target) =="
    $GO test -run '^$' -fuzz='^FuzzUnmarshal$' -fuzztime=10s -fuzzminimizetime=1s ./internal/wire
    $GO test -run '^$' -fuzz=FuzzReadEnvelope -fuzztime=10s -fuzzminimizetime=1s ./internal/wire
    $GO test -run '^$' -fuzz=FuzzReadWAL -fuzztime=10s -fuzzminimizetime=1s ./internal/store
    $GO test -run '^$' -fuzz=FuzzDecodeSnapshot -fuzztime=10s -fuzzminimizetime=1s ./internal/store
}

smoke() {
    echo "== bench smoke (md, wire, msm, store, landscape) =="
    $GO test -run=NONE -bench=. -benchtime=1x ./internal/md
    $GO test -run=NONE -bench=BenchmarkWireRoundTrip -benchtime=1x ./internal/wire
    $GO test -run=NONE -bench='BenchmarkKCenters|BenchmarkAssignAll' -benchtime=1x ./internal/msm
    $GO test -run=NONE -bench=BenchmarkAppendParallel -benchtime=1x ./internal/store
    $GO test -run=NONE -bench='BenchmarkStep|BenchmarkGradient' -benchtime=1x ./internal/landscape
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
# state directories older builds wrote among them) 20 times each, and the
# lifecycle's explicit-state checker over every order of events to depth 8
# (tier-1 runs depth 6) — see docs/PERSISTENCE.md.
crash() {
    echo "== crash-restart recovery (race; lifecycle table x20, WAL faults x5, two of a kind x5; lifecycle checker to depth 8) =="
    $GO test -race -run TestFabricCrashRestart -timeout 600s ./internal/core/
    $GO test -race -count=5 -run TestFabricCrashRestartWithWALFaults -timeout 900s ./internal/core/
    $GO test -race -count=5 -run TestFabricTwoProjectsOfAKindCrashRestart -timeout 900s ./internal/core/
    $GO test -race -count=20 -timeout 900s \
        -run 'TestLifecycle|TestRecovery|TestWorkerReportedFailure|TestAckImpliesDurable|TestRecoversParentWrittenStateDir' ./internal/server/
    CPC_CHECK_DEPTH=8 $GO test -count=1 -timeout 900s -run 'TestChecker' ./internal/server/
}

# Heartbeat-lease failover: the project server hard-killed (and fully
# partitioned) mid-ensemble, its warm standby promoting and finishing the
# campaign, the fenced ex-primary rejoining as standby — see
# docs/PERSISTENCE.md ("Replication & failover") — then the Host assembly
# cpcserver starts, driven directly: restart-after-fence with each side's
# original configuration, a standby started before its primary, and
# failover over real TLS, five times each, and the partition drill with
# drop faults on the server links ten times. Then the replication protocol
# itself: the explicit-state checker over every interleaving to depth 16
# (tier-1 runs depth 12), and the real Peer under a flapping link and a
# failing Promote hook, 100 times.
failover() {
    echo "== standby failover (race; Host restart-after-fence, standby-first start and TLS failover x5; partition under drop faults x10) =="
    $GO test -race -run TestFailover -timeout 600s ./internal/core/
    $GO test -race -count=10 -timeout 1800s -run '^TestFailoverUnderPartitionChaos$' ./internal/core/
    $GO test -race -count=5 -timeout 900s \
        -run 'TestHost|TestStandbyStartsBeforeItsPrimary|TestFailoverOverTLS|TestTLSDeploymentEndToEnd' ./internal/core/
    echo "== replication protocol (checker to depth 16; flapping link and failed promotion, race x100) =="
    CPC_CHECK_DEPTH=16 $GO test -count=1 -run 'TestChecker' ./internal/store/replica/
    $GO test -race -count=100 -timeout 900s \
        -run 'TestLinkFlapping|TestFailedPromotionKeepsPrimaryServing|TestLeaseLapsePromotesStandby|TestStalePrimaryIsFencedAndDemotes' ./internal/store/replica/
}

# Event-driven dispatch under stress: relay-homed workers picking up a
# campaign submitted after they parked, the park/wake/expire/supersede/close
# interleavings, a handler's commands reaching a match whole (and no match
# waiting on a handler), a worker told to abort a command another worker's
# late result settled, a relay-homed worker's lost workload reply recovered
# and its command aborted from the origin that holds it, the transport-free
# core's own tests (no core file
# imports a transport, starts a goroutine or reads the wall clock; restored
# commands carry the restoring server's origin), the overlay's concurrent
# request handlers, the two single writers' reused send buffers (a link's
# frames, bytes and value bodies sent to two peers at once, and the WAL's
# records arrive whole and in order), and a body the codec refuses failing
# its own request but not the link, 20 times each; then the refill, 20 times
# each: a 2-core worker running 40 commands on three announces
# (TestRefillRunsAStreamOnFewAnnounces), a wider command never passed over
# (TestRefillNeverPassesOverAWiderCommand), an idle core claimed by the next
# refill (TestRefillClaimsIdleCores), refilled commands heartbeated and
# aborted (TestRefilledCommandsHeartbeatAndAbort), no refill asked when
# shutting down or spooled (TestNoRefillWhenShuttingDownOrSpooled), an old
# server's "ok" (TestOldServerAnswerMeansNoRefill), a result spooled for an
# unreachable origin redelivered while the other slot keeps refilling
# (TestSpooledResultRedeliveredWhileRefilling), a lost refill reply
# recovered by the result's retry (TestLostRefillReplyRequeuedByRetry), old
# and forwarded results answered as before
# (TestResultWithoutRefillRepliesAsBefore) and a refill's records replayed
# (TestReplayedRefillAssignsOnlyJournaled); then the worker's record as the
# one source of its aborts, 20 times each: a preemption's abort told to the
# evicted run alone, never to the run the command was handed to
# (TestPreemptionAbortsOnlyTheEvictedRun, and the monitor-driven
# TestCheckpointPreemptionForStarvedTenant), and a heartbeat answered from
# the record within 100 ms while a controller blocks in CommandFinished
# (TestHeartbeatAnsweredWhileControllerBlocks) — see docs/SCHEDULING.md
# ("Dispatch") and docs/PERFORMANCE.md ("Send-side frames").
dispatch() {
    echo "== event-driven dispatch stress (race, x20) =="
    $GO test -race -count=20 -timeout 600s \
        -run 'TestFabricMSMDistributedAcrossRelays|TestIdleFleetPicksUpAtOnce|TestFabricCloseWithIdleWorkers' ./internal/core/
    $GO test -race -count=20 -timeout 600s \
        -run 'TestParked|TestWakeCostsOnePerPush|TestLateRelayedWorkload|TestStaleRelayedAnnounceRequeuesNothing|TestRelayedAssignmentLostReplyRecovered|TestAnnounceNeverWaitsOnAHandler|TestHandlerBatchArrivesWhole|TestRefusedBatchQueuesNothing|TestHeartbeatAbortsSettledCommand|TestCore|TestLostRelayedReplyProjectFinishes|TestRelayedCommandAbortedAtOrigin' ./internal/server/
    $GO test -race -count=20 -timeout 600s -run 'TestWorkerAbortsTerminatedCommand' ./internal/worker/
    $GO test -race -count=20 -timeout 600s \
        -run 'TestBlockedHandler|TestCloseWithBlockedHandler|TestLinkHandlerCap|TestFloodPasses|TestLinkFramesSurviveBufferReuse|TestRefusedBodyFailsOneRequest|TestLinkDropsUnframableEnvelope' ./internal/overlay/
    $GO test -race -count=20 -timeout 600s -run 'TestRecordsSurviveFrameReuse' ./internal/store/
    echo "== refill per slot (race, x20) =="
    $GO test -race -count=20 -timeout 600s \
        -run 'TestRefillRunsAStreamOnFewAnnounces|TestRefillNeverPassesOverAWiderCommand|TestRefillClaimsIdleCores|TestRefilledCommandsHeartbeatAndAbort|TestNoRefillWhenShuttingDownOrSpooled|TestOldServerAnswerMeansNoRefill|TestSpooledResultRedeliveredWhileRefilling' ./internal/worker/
    $GO test -race -count=20 -timeout 600s \
        -run 'TestLostRefillReplyRequeuedByRetry|TestResultWithoutRefillRepliesAsBefore|TestReplayedRefillAssignsOnlyJournaled' ./internal/server/
    echo "== aborts from the worker's record (race, x20) =="
    $GO test -race -count=20 -timeout 600s \
        -run 'TestPreemptionAbortsOnlyTheEvictedRun|TestHeartbeatAnsweredWhileControllerBlocks|TestCheckpointPreemptionForStarvedTenant' ./internal/server/
}

# The DES fleet every queue scenario runs on, the server's core and the
# shipped worker core on a virtual clock (parked announces woken by the
# queue's Ready hook, re-announced when their hold runs out, busy workers
# refilled through their results): its own tests and
# TestDESRefillRidesTheResult (a refill starts the next command at the
# instant the first ends, with no announce) three times over, then the
# Figs 7–9 scaling sweep on it against the scores captured from the list
# scheduler it replaced — see docs/SCHEDULING.md ("Scenario dispatch").
fleet() {
    echo "== DES fleet (race; fleet and refill x3, scaling sweep golden) =="
    $GO test -race -count=3 -run 'TestFleet|TestDESRefillRidesTheResult' -timeout 300s ./internal/des/
    $GO test -race -run TestScalingSweepMatchesParentGolden -timeout 300s ./internal/des/
}

# The multi-tenant scheduling acceptance scenario: 2000 tenants with
# heavy-tailed traffic, each burst a project, against the real server core
# and fair-share queue on the DES fleet, with a slow-fsync WAL fault
# window, its seed determinism and its captured scorecards — see
# docs/SCHEDULING.md ("The multi-tenant scenario").
tenants() {
    echo "== multi-tenant scheduling scenario (race) =="
    $GO test -race -run 'TestMultiTenantScenario|TestTenantScenario' -timeout 300s ./internal/des/
}

# The replica-exchange scheduling scenario: the shipped RepexController's
# sync vs async ladders on the same DES fleet against the real fair-share
# queue, with a worker-churn fault window, then a sync ladder wider than
# any one worker on a real fabric five times over — see
# docs/SCHEDULING.md ("Replica-exchange dispatch").
repex() {
    echo "== replica-exchange scheduling scenario (race; wide sync ladder x5) =="
    $GO test -race -run TestRepexDES -timeout 300s ./internal/des/
    $GO test -race -count=5 -run TestRepexSyncLadderWiderThanWorker -timeout 300s ./internal/core/
}

# The streaming-analysis scenario: incremental mini-batch clustering vs full
# batch reclustering over a 20-round adaptive campaign, on the real
# internal/msm code, three times over: it asserts only on the deterministic
# unit accounting, so load cannot fail it — see docs/PERFORMANCE.md
# ("Streaming analysis").
stream() {
    echo "== streaming-analysis scenario (race, x3) =="
    $GO test -race -count=3 -run TestStreamAnalysisDES -timeout 300s ./internal/des/
}

case "${1:-all}" in
all) set -- basic race benchmod fuzz smoke chaos crash failover dispatch fleet tenants repex stream ;;
quick) set -- basic ;;
esac
for stanza in "$@"; do
    case "$stanza" in
    basic | race | benchmod | fuzz | smoke | chaos | crash | failover | dispatch | fleet | tenants | repex | stream) "$stanza" ;;
    *)
        echo "ci: unknown stanza $stanza" >&2
        exit 2
        ;;
    esac
done
echo "ci: passed: $*"
