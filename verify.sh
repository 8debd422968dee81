#!/bin/sh
# verify.sh — the full pre-merge gate: `make verify` (vet, gofmt, build,
# cross-arch, go test -race ./..., the purego pass, bench module), then
# the 10 s generator, lane-kernel, budget-params and shard-wire fuzzes
# and the benchmark regression gate. Every step is a Makefile target, defined there once.
# Usage: ./verify.sh
set -eu
make verify fuzz-rng fuzz-lanes fuzz-params fuzz-shard bench-compare
echo "verify: ok"
