#!/bin/sh
# ci.sh — the checks a change must pass before merging:
# vet, build, full test suite, and race-enabled tests for the
# concurrency-heavy packages. Usage: scripts/ci.sh [quick]
set -eu
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

if [ "${1:-}" = "quick" ]; then
    echo "ci: quick mode, skipping race tests"
    exit 0
fi

echo "== go test -race (wire, obs, server, worker, queue, overlay, retry, chaos, store, store/replica, md, des, repex, msm, controller) =="
go test -race ./internal/wire/... ./internal/obs/... ./internal/server/... \
    ./internal/worker/... ./internal/queue/... ./internal/overlay/... \
    ./internal/retry/... ./internal/chaos/... ./internal/store/... \
    ./internal/store/replica/... ./internal/md/... ./internal/des/... \
    ./internal/repex/... ./internal/msm/... ./internal/controller/...

echo "== benchmarks module (vet, test) =="
# benchmarks/ is a nested module: ./... above does not reach it.
go vet -C benchmarks ./...
go test -C benchmarks ./...

echo "== wire fuzz (10 s per target) =="
go test -run '^$' -fuzz=FuzzUnmarshalHot -fuzztime=10s ./internal/wire
go test -run '^$' -fuzz=FuzzReadEnvelope -fuzztime=10s ./internal/wire

echo "== bench smoke (md, wire, msm) =="
go test -run=NONE -bench=. -benchtime=1x ./internal/md
go test -run=NONE -bench=BenchmarkWireRoundTrip -benchtime=1x ./internal/wire
go test -run=NONE -bench='BenchmarkKCenters|BenchmarkAssignAll' -benchtime=1x ./internal/msm

echo "== chaos soak (race) =="
go test -race -run TestChaosSoak -timeout 300s ./internal/core/

echo "== crash-restart recovery (race; lifecycle table x20, WAL faults x5) =="
go test -race -run TestFabricCrashRestart -timeout 600s ./internal/core/
go test -race -count=5 -run TestFabricCrashRestartWithWALFaults -timeout 900s ./internal/core/
go test -race -count=20 -timeout 900s \
    -run 'TestLifecycle|TestRecovery|TestWorkerReportedFailure|TestAckImpliesDurable|TestRecoversParentWrittenStateDir' ./internal/server/

echo "== standby failover (race; Host restart-after-fence and TLS failover x5) =="
go test -race -run TestFailover -timeout 600s ./internal/core/
go test -race -count=5 -timeout 900s \
    -run 'TestHost|TestFailoverOverTLS|TestTLSDeploymentEndToEnd' ./internal/core/

echo "== event-driven dispatch stress (race, x20) =="
go test -race -count=20 -timeout 600s \
    -run 'TestFabricMSMDistributedAcrossRelays|TestIdleFleetPicksUpAtOnce|TestFabricCloseWithIdleWorkers' ./internal/core/
go test -race -count=20 -timeout 600s \
    -run 'TestParked|TestWakeCostsOnePerPush|TestLateRelayedWorkloadHandedBack|TestRelayedAssignmentLostReplyRecovered' ./internal/server/
go test -race -count=20 -timeout 600s \
    -run 'TestBlockedHandler|TestCloseWithBlockedHandler|TestLinkHandlerCap|TestFloodPasses' ./internal/overlay/

echo "== multi-tenant scheduling scenario (race) =="
go test -race -run TestMultiTenantScenario -timeout 300s ./internal/des/

echo "== replica-exchange scheduling scenario (race) =="
go test -race -run TestRepexDES -timeout 300s ./internal/des/

echo "== streaming-analysis scenario (race) =="
go test -race -run TestStreamAnalysisDES -timeout 300s ./internal/des/

echo "ci: all checks passed"
