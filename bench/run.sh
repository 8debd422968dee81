#!/usr/bin/env bash
# Builds cogbench from this checkout and runs one workload:
#
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build at the
# checkout root: the Go build cache, the binary and the trace files.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off

workload="" seed="" seconds="" trace=0
while [ $# -gt 0 ]; do
	case "$1" in
	--workload) workload="$2"; shift 2 ;;
	--seed) seed="$2"; shift 2 ;;
	--seconds) seconds="$2"; shift 2 ;;
	--trace) trace="$2"; shift 2 ;;
	*) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
	esac
done
if [ -z "$workload" ] || [ -z "$seed" ] || [ -z "$seconds" ]; then
	echo "run.sh: need --workload, --seed and --seconds" >&2
	exit 2
fi

cd "$root"
go -C bench build -o "$out/cogbench" ./cmd/cogbench >&2
args=(-workload "$workload" -seed "$seed" -seconds "$seconds")
if [ "$trace" = 1 ]; then
	args+=(-trace "$out/trace-$workload-$seed.json")
fi
# The launch stamp starts setup_s; it is taken after the build so the
# build is not counted.
COGBENCH_LAUNCH_NS="$(date +%s%N)" "$out/cogbench" "${args[@]}"
