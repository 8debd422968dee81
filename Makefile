# Tier-1 verification plus the race detector. `make verify` is what CI
# and pre-merge checks should run.

.PHONY: verify vet fmt-check build cross-arch test race bench-module fuzz-rng bench bench-compare cogbench-ab bench-batch metrics-smoke campaign-smoke loadgen-smoke

BENCH_DATE := $(shell date +%Y-%m-%d)
BENCH_JSON := BENCH_$(BENCH_DATE).json
# Newest committed artifact other than today's, used as the baseline.
BENCH_BASE := $(lastword $(sort $(filter-out $(BENCH_JSON),$(wildcard BENCH_*.json))))

verify: vet fmt-check build cross-arch race bench-module

vet:
	go vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	go build ./...

# Vets mathx for arm64 and builds everything for 386: the generator's
# vector seed is amd64 assembly, and these keep the pure-Go fallback
# it needs on every other architecture compiling.
cross-arch:
	GOARCH=arm64 go vet ./internal/mathx
	GOARCH=386 go build ./...

test:
	go test ./...

race:
	go test -race ./...

# Vets and tests the benchmark module (bench/, its own go.mod). Its
# workloads run kernels under their legacy names (coop.ber.batch,
# coop.ber.adaptive, multihop.ber.batch), which the registry keeps as
# aliases of the physics names.
bench-module:
	go -C bench vet ./...
	go -C bench test ./...

# Fuzzes the table-seeded generator source against math/rand's for
# 10 s: any seed whose Uint64/Int63 stream, derived variates or
# NormFloat64s/Bits fills (on the pure-Go and, where the host has it,
# the AVX2 path) differ from rand.NewSource's fails. The edge seeds are
# the seed corpus.
fuzz-rng:
	go test -run=NONE -fuzz=FuzzSourceMatchesStdlib -fuzztime=10s ./internal/mathx

# Runs the repo-root benchmark suite and records ns/op, B/op and
# allocs/op into BENCH_<date>.json via internal/tools/benchjson.
# Three repetitions per benchmark; benchjson keeps each benchmark's
# fastest repetition, which denoises the short benchmarks enough for
# bench-compare to gate on.
bench:
	go test -run=NONE -bench=. -benchmem -benchtime=100x -count=3 . | go run ./internal/tools/benchjson -o $(BENCH_JSON)

# Re-measures and fails when any benchmark regressed against the newest
# committed BENCH_*.json: ns/op grew by more than 20%, a 0-alloc
# benchmark allocated at all, or allocs/op grew by more than 20%.
# Benchmarks absent from the baseline are reported as "new", never as
# failures; with no baseline at all, today's artifact simply becomes
# the first one.
bench-compare: bench
	@if [ -z "$(BENCH_BASE)" ]; then \
		echo "bench-compare: no baseline BENCH_*.json; $(BENCH_JSON) is the first artifact"; \
	else \
		go run ./internal/tools/benchjson -compare $(BENCH_BASE) $(BENCH_JSON); \
	fi

# Paired A/B run of the repository benchmark: builds cogbench from
# revision BASE (extracted locally, no network) and from the working
# tree, runs both on WORKLOAD once per seed in alternating order, and
# prints cogbench -compare over the pairs. Host load drifts by tens of
# percent between back-to-back runs, so speed claims cite paired runs.
BASE ?= HEAD
WORKLOAD ?= tail-ber
SEEDS ?= 1 2 3
cogbench-ab:
	./cogbench-ab.sh "$(BASE)" "$(WORKLOAD)" "$(SEEDS)"

# Batched-vs-scalar gate of the cooperative trial engine: runs
# internal/coop's TestBatchEngineSpeedup, which alternates the batched
# engine with the per-block reference engine over the 1x1/2x2/4x4
# shapes and fails when the worst shape's speedup drops below 2x.
bench-batch:
	go test -count=1 -run '^TestBatchEngineSpeedup$$' -v ./internal/coop

# Boots a cogmimod daemon, scrapes /metrics/prom and checks the core
# metric names are exposed. A cheap end-to-end observability check.
metrics-smoke:
	go run ./internal/tools/metricssmoke

# Drives 50 tenants — one with a 10× burst submitted first — through
# the real HTTP stack and fails if the light tenants' p99 queue wait
# exceeds 2× the fair share or 1× the heavy tenant's p99. Also follows
# jobs over SSE and checks progress monotonicity. End-to-end fairness
# check of internal/tenant scheduling.
loadgen-smoke:
	go run ./internal/tools/loadgen/cmd

# Runs a checkpointing campaign in a child process, SIGKILLs it
# mid-experiment, resumes from the durable checkpoints and requires the
# resumed report to match an uninterrupted serial run byte-for-byte.
# End-to-end crash-safety check of internal/store + internal/campaign.
campaign-smoke:
	go run ./internal/tools/campaignsmoke
