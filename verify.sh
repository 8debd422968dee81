#!/bin/sh
# verify.sh — the repo's tier-1 gate plus formatting and the race detector.
# Usage: ./verify.sh  (or: make verify)
set -eu

echo ">> go vet ./..."
go vet ./...

echo ">> gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo ">> go build ./..."
go build ./...

echo ">> cross-arch: GOARCH=arm64 go vet ./internal/mathx && GOARCH=386 go build ./..."
GOARCH=arm64 go vet ./internal/mathx
GOARCH=386 go build ./...

echo ">> go test -race ./internal/obs ./internal/service ./internal/httpapi"
go test -race ./internal/obs ./internal/service ./internal/httpapi

echo ">> go test -race ./..."
go test -race ./...

echo ">> go -C bench vet ./... && go -C bench test ./..."
go -C bench vet ./...
go -C bench test ./...

echo ">> fuzz rng (table-seeded source vs math/rand, 10 s)"
make fuzz-rng

echo ">> bench smoke (1 iteration)"
go test -run=NONE -bench=. -benchtime=1x . >/dev/null

echo ">> bench compare (ns/op + allocs/op gate vs committed baseline)"
make bench-compare

echo ">> campaign smoke (SIGKILL mid-experiment, resume from checkpoints)"
go run ./internal/tools/campaignsmoke

echo ">> loadgen smoke (50 tenants, one 10x-heavier, fairness + SSE)"
go run ./internal/tools/loadgen/cmd

echo "verify: ok"
