# Convenience targets; scripts/ci.sh is the canonical gate.
GO ?= go

.PHONY: all build vet test race fuzz chaos crash failover dispatch tenants repex stream ci bench bench-e2e fmt

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-enabled tests for the concurrency-heavy packages
# (./internal/store/... includes internal/store/replica).
race:
	$(GO) test -race ./internal/wire/... ./internal/obs/... ./internal/server/... \
		./internal/worker/... ./internal/queue/... ./internal/overlay/... \
		./internal/store/... ./internal/store/replica/... ./internal/repex/... \
		./internal/msm/... ./internal/controller/...

# The wire decoders against arbitrary bytes, ten seconds per target: no
# panic, no allocation out of proportion to the input, and whatever decodes
# survives a round trip (go test -fuzz takes one target per run).
fuzz:
	$(GO) test -run '^$$' -fuzz=FuzzUnmarshalHot -fuzztime=10s ./internal/wire
	$(GO) test -run '^$$' -fuzz=FuzzReadEnvelope -fuzztime=10s ./internal/wire

# Chaos soak: the MSM pipeline completing under seeded fault injection
# (25% dropped writes, partial frames, a forced full partition) — see
# docs/ROBUSTNESS.md.
chaos:
	$(GO) test -race -run TestChaosSoak -v -timeout 300s ./internal/core/

# Kill-and-restart: the project server hard-killed mid-ensemble and
# rebuilt from its -state-dir, with and without WAL write faults (the
# faulted run five times over: it was the flake), then the command
# lifecycle's transition table and the server-level recovery tests 20 times
# each under the race detector — see docs/PERSISTENCE.md.
crash:
	$(GO) test -race -run TestFabricCrashRestart -v -timeout 600s ./internal/core/
	$(GO) test -race -count=5 -run TestFabricCrashRestartWithWALFaults -timeout 900s ./internal/core/
	$(GO) test -race -count=20 -timeout 900s \
		-run 'TestLifecycle|TestRecovery|TestWorkerReportedFailure|TestAckImpliesDurable|TestRecoversParentWrittenStateDir' ./internal/server/

# Heartbeat-lease failover: the project server hard-killed (and fully
# partitioned) mid-ensemble, its warm standby promoting and finishing the
# campaign, the fenced ex-primary rejoining as standby — see
# docs/PERSISTENCE.md ("Replication & failover") — then the same Host
# assembly cpcserver starts, driven directly: restart-after-fence with
# each side's original configuration, and failover over real TLS, five
# times each.
failover:
	$(GO) test -race -run TestFailover -v -timeout 600s ./internal/core/
	$(GO) test -race -count=5 -timeout 900s \
		-run 'TestHost|TestFailoverOverTLS|TestTLSDeploymentEndToEnd' ./internal/core/

# Event-driven dispatch under stress: relay-homed workers picking up a
# campaign submitted after they parked, the park/wake/expire/supersede/close
# interleavings, and the overlay's concurrent request handlers, 20 times
# each under the race detector — see docs/SCHEDULING.md ("Dispatch").
dispatch:
	$(GO) test -race -count=20 -timeout 600s \
		-run 'TestFabricMSMDistributedAcrossRelays|TestIdleFleetPicksUpAtOnce|TestFabricCloseWithIdleWorkers' ./internal/core/
	$(GO) test -race -count=20 -timeout 600s \
		-run 'TestParked|TestWakeCostsOnePerPush|TestLateRelayedWorkloadHandedBack|TestRelayedAssignmentLostReplyRecovered' ./internal/server/
	$(GO) test -race -count=20 -timeout 600s \
		-run 'TestBlockedHandler|TestCloseWithBlockedHandler|TestLinkHandlerCap|TestFloodPasses' ./internal/overlay/

# The multi-tenant scheduling acceptance scenario: 2000 tenants with
# heavy-tailed traffic against the real fair-share queue, with a
# slow-fsync WAL fault window — see docs/SCHEDULING.md.
tenants:
	$(GO) test -race -run 'TestMultiTenantScenario|TestTenantScenario' -v -timeout 300s ./internal/des/

# The replica-exchange scheduling scenario: sync vs async REMD ladders
# against the real gang-scheduling queue, with a worker-churn fault
# window — see docs/SCHEDULING.md ("Gang scheduling").
repex:
	$(GO) test -race -run TestRepexDES -v -timeout 300s ./internal/des/

# The streaming-analysis scenario: incremental mini-batch clustering vs
# full batch reclustering over a 20-round adaptive campaign, on the real
# internal/msm code — flat per-round analysis cost, ≥3× cheaper by round
# 20 — see docs/PERFORMANCE.md ("Streaming analysis").
stream:
	$(GO) test -race -run TestStreamAnalysisDES -v -timeout 300s ./internal/des/

ci:
	sh scripts/ci.sh

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# The end-to-end benchmark (BENCHMARK.json): all five cpcbench workloads
# against a real in-process fabric — see benchmarks/ and
# docs/PERFORMANCE.md.
bench-e2e:
	$(GO) run -C benchmarks ./cpcbench --workload all --seconds 15

fmt:
	gofmt -w ./cmd ./internal ./examples *.go
