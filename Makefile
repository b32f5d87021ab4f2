# Convenience targets; scripts/ci.sh is the canonical gate.
GO ?= go

.PHONY: all build vet test race fuzz chaos crash failover dispatch fleet tenants repex stream ci bench bench-e2e fmt

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Each scenario stanza (its packages, regex, -count and timeout) is spelled
# out once, in scripts/ci.sh; these targets run it by name.
race fuzz chaos crash failover dispatch fleet tenants repex stream:
	GO=$(GO) sh scripts/ci.sh $@

ci:
	GO=$(GO) sh scripts/ci.sh

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# The end-to-end benchmark (BENCHMARK.json): all five cpcbench workloads
# against a real in-process fabric — see benchmarks/ and
# docs/PERFORMANCE.md.
bench-e2e:
	$(GO) run -C benchmarks ./cpcbench --workload all --seconds 15

fmt:
	gofmt -w ./cmd ./internal ./examples ./benchmarks *.go
