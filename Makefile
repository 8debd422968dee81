# `make verify` is the tier-1 gate: go vet, gofmt, build, the cross-arch
# builds, the whole test suite under the race detector (its process
# tests boot the daemon, SIGKILL a campaign and drive the fairness load
# run), the short suite again with every AVX2 kernel off (purego) and
# the bench module's vet and tests. `./verify.sh` runs it plus
# `fuzz-rng`, `fuzz-lanes`, `fuzz-params`, `fuzz-shard` and
# `bench-compare`, the checks that take longer.

.PHONY: verify vet fmt-check build cross-arch test race purego bench-module fuzz-rng fuzz-lanes fuzz-params fuzz-shard bench bench-compare cogbench-ab bench-batch

BENCH_DATE := $(shell date +%Y-%m-%d)
BENCH_TODAY := BENCH_$(BENCH_DATE).json
# Where `make bench` records; bench-compare writes here only when it is
# given on the command line or in the environment.
BENCH_JSON ?= $(BENCH_TODAY)
# Newest committed artifact other than today's, used as the baseline.
BENCH_BASE := $(lastword $(sort $(filter-out $(BENCH_TODAY),$(wildcard BENCH_*.json))))

verify: vet fmt-check build cross-arch race purego bench-module

vet:
	go vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	go build ./...

# Vets the whole module for arm64 and builds it for 386: the
# generator's vector seed and fills, the coop hop's lane kernels and the
# erfc lanes are amd64 assembly, and these keep the pure-Go fallbacks
# they need on every other architecture compiling, wherever such a
# kernel is added. It then disassembles arm64 and amd64 builds of
# cmd/cogmimod and cmd/ebtable (the one that links the ēb solver) and
# fails on a fused multiply-add: on arm64 in mathx.Exp and mathx.Erfc,
# which must be present, whose bits are defined without fusion; on
# amd64 in any repro/ function, the assembly kernels included, since a
# VFMADD would round once where the Go loops round twice. go tool
# objdump does not decode VEX instructions, so the amd64 scan reads GNU
# objdump's listing and is skipped on hosts without it.
cross-arch:
	GOARCH=arm64 go vet ./...
	GOARCH=386 go build ./...
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	for arch in arm64 amd64; do for cmd in cogmimod ebtable; do \
		GOARCH=$$arch go build -o "$$dir/$$cmd-$$arch" ./cmd/$$cmd; \
	done; done; \
	n=$$(go tool objdump -s '^repro/internal/mathx\.(Exp|Erfc)$$' "$$dir/ebtable-arm64" | grep -c '^TEXT' || true); \
	if [ "$$n" != 2 ]; then echo "cross-arch: arm64 ebtable links $$n of mathx.Exp, mathx.Erfc"; exit 1; fi; \
	for cmd in cogmimod ebtable; do \
		if go tool objdump -s '^repro/internal/mathx\.(Exp|Erfc)$$' "$$dir/$$cmd-arm64" | grep -E 'FN?M(ADD|SUB)'; then \
			echo "cross-arch: fused multiply-add in arm64 mathx.Exp/Erfc ($$cmd)"; exit 1; fi; \
	done; \
	echo "cross-arch: no fused multiply-add in arm64 mathx.Exp/Erfc"; \
	if ! command -v objdump >/dev/null; then echo "cross-arch: no GNU objdump, amd64 scan skipped"; exit 0; fi; \
	for cmd in cogmimod ebtable; do \
		if objdump -d --no-show-raw-insn "$$dir/$$cmd-amd64" | awk '/^[0-9a-f]+ </ { f = ($$0 ~ /<repro\//) } f' | grep -iE 'vfn?m(add|sub)'; then \
			echo "cross-arch: VFMADD in an amd64 repro/ function ($$cmd)"; exit 1; fi; \
	done; \
	echo "cross-arch: no VFMADD in amd64 repro/ functions"

test:
	go test ./...

race:
	go test -race ./...

# Runs the short suite with AVX2 off: mathx.HasAVX2, the one switch
# every vector path keys on, honours the runtime's GODEBUG cpu options,
# so the generator's seed and fills, the erfc lanes and the coop hop's
# lane passes all take their pure-Go loops, as on a host without AVX2,
# and every golden must still hold. cpu.fma stays on: without it
# cellfree.se.mmse moves bits through math.Pow.
purego:
	GODEBUG=cpu.avx2=off go test -short ./...

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

# Fuzzes the AVX2 lane kernels for 10 s each, every one from its own
# package: stbc's transmit and decode and modulation's BPSK decision
# against their pure-Go loops on arbitrary float64 lanes (signed zeros,
# subnormals, NaN, infinities) of 0 to 13 blocks, coop's tape scatter
# likewise, and mathx's erfc lanes against scalar Erfc on 0 to 13
# arbitrary arguments and range edges. All skip where mathx.HasAVX2 is
# false.
fuzz-lanes:
	go test -run=NONE -fuzz='^FuzzLaneKernels$$' -fuzztime=10s ./internal/stbc
	go test -run=NONE -fuzz='^FuzzLaneKernels$$' -fuzztime=10s ./internal/modulation
	go test -run=NONE -fuzz='^FuzzLaneKernels$$' -fuzztime=10s ./internal/coop
	go test -run=NONE -fuzz=FuzzErfcLanes -fuzztime=10s ./internal/mathx

# Fuzzes the adaptive-budget params boundary for 10 s: for any
# target_ci/max_trials/min_trials values, service.BudgetFromParams must
# fail or return a budget that Validate accepts and that round-trips
# through service.BudgetParams unchanged.
fuzz-params:
	go test -run=NONE -fuzz=FuzzBudgetParams -fuzztime=10s ./internal/service

# Fuzzes the shard wire for 10 s: for any request body a worker may
# receive, json.Unmarshal plus ShardRequest.Validate must never panic,
# and an accepted request must name a chunk range inside its own plan
# and survive a re-encode unchanged.
fuzz-shard:
	go test -run=NONE -fuzz=FuzzShardRequest -fuzztime=10s ./internal/cluster

# Runs the repo-root benchmark suite and records ns/op, B/op and
# allocs/op into BENCH_<date>.json (or BENCH_JSON) via
# internal/tools/benchjson. Three repetitions per benchmark; benchjson
# keeps each benchmark's fastest repetition, which denoises the short
# benchmarks enough for bench-compare to gate on. A failing or
# panicking benchmark makes benchjson exit 2 without writing the
# artifact, which fails the target.
BENCH_RUN = go test -run=NONE -bench=. -benchmem -benchtime=100x -count=3 . | go run ./internal/tools/benchjson -o
bench:
	$(BENCH_RUN) $(BENCH_JSON)

# Re-measures and fails when any benchmark regressed against the newest
# committed BENCH_*.json: ns/op grew by more than 20%, a 0-alloc
# benchmark allocated at all, or allocs/op grew by more than 20%.
# Benchmarks absent from the baseline are reported as "new", never as
# failures. The fresh run goes to a temporary directory, removed
# afterwards, so the tree and its committed artifacts stay as they are;
# give BENCH_JSON to keep it at that path instead.
bench-compare:
	@set -e; \
	out='$(BENCH_JSON)'; \
	if [ '$(origin BENCH_JSON)' = file ]; then \
		dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; out="$$dir/$(BENCH_TODAY)"; \
	fi; \
	$(BENCH_RUN) "$$out"; \
	if [ -z "$(BENCH_BASE)" ]; then \
		echo "bench-compare: no baseline BENCH_*.json; record one with make bench"; \
	else \
		go run ./internal/tools/benchjson -compare $(BENCH_BASE) "$$out"; \
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
