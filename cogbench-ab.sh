#!/usr/bin/env bash
# Paired A/B run of the repository benchmark (cogbench, under bench/):
#
#   ./cogbench-ab.sh BASE WORKLOAD "SEEDS"
#   make cogbench-ab BASE=<rev> WORKLOAD=<name> SEEDS="1 2 3"
#
# Extracts revision BASE of this repository into a scratch directory
# (git archive: local, no network), builds cogbench from it and from the
# working tree, and runs both on WORKLOAD once per seed with -json. The
# order alternates per seed — base first on odd positions, the working
# tree first on even ones — so drift in host load lands on both sides.
# Each side runs in its own checkout, so it reads its own BENCHMARK.json.
# Every run lasts run_seconds of BENCHMARK.json. Ends with cogbench
# -compare over the paired runs. AB_DIR names the scratch directory
# (default: a fresh one under $TMPDIR, kept for inspection).
set -euo pipefail

if [ $# -ne 3 ]; then
	echo "usage: $0 BASE WORKLOAD \"SEEDS\"" >&2
	exit 2
fi
base="$1" workload="$2" seeds="$3"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
dir="${AB_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/cogbench-ab.XXXXXX")}"
rm -rf "$dir/base" "$dir/out"
mkdir -p "$dir/base" "$dir/out"
export GOTOOLCHAIN=local GOPROXY=off

git -C "$root" archive "$base" | tar -x -C "$dir/base"
go -C "$dir/base/bench" build -o "$dir/cogbench-base" ./cmd/cogbench
go -C "$root/bench" build -o "$dir/cogbench-new" ./cmd/cogbench
echo "cogbench-ab: base $(git -C "$root" rev-parse --short "$base") vs working tree, workload $workload, seeds $seeds, scratch $dir" >&2

# run SIDE SEED: one cogbench run from SIDE's checkout; prints its
# op_p50_s and digest lines.
run() {
	local side="$1" seed="$2" dir_side="$root"
	[ "$side" = base ] && dir_side="$dir/base"
	(cd "$dir_side" && COGBENCH_LAUNCH_NS="$(date +%s%N)" "$dir/cogbench-$side" \
		-workload "$workload" -seed "$seed" -json "$dir/out/$side-$seed.json" >"$dir/out/$side-$seed.txt")
	grep -E "^$workload (op_p50_s|digest) " "$dir/out/$side-$seed.txt" | sed "s/^/seed $seed $side: /"
}

bases=() news=() i=0
for seed in $seeds; do
	if [ $((i % 2)) -eq 0 ]; then
		run base "$seed"
		run new "$seed"
	else
		run new "$seed"
		run base "$seed"
	fi
	bases+=("$dir/out/base-$seed.json")
	news+=("$dir/out/new-$seed.json")
	i=$((i + 1))
done

join() { local IFS=,; echo "$*"; }
"$dir/cogbench-new" -benchmark "$root/BENCHMARK.json" -compare "$(join "${bases[@]}")" "$(join "${news[@]}")"
