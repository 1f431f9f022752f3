#!/usr/bin/env bash
# Paired performance gate over the repository benchmark (bench/). Run it
# from the repository root with the revision to compare against:
#
#   scripts/perfgate.sh BASE
#
# It checks BASE out as a git worktree under .bench_build/ and, for ten
# pairs, runs every workload BENCHMARK.json declares once on BASE and
# once on the checked-out tree, alternating which side goes first. Each
# side builds from its own tree into its own CARGO_TARGET_DIR, because
# run.sh always names its binary hipe-bench. Runs land in
# runs/{base,head}/NN; one traced run per workload of the checked-out
# tree lands in runs/trace. The gate fails when
#   - any run record is incorrect (bench exits 0 on wrong outputs; only
#     the record's "correct" and "failed" say so),
#   - `bench/run.sh --compare` reads any end-to-end metric as worse than
#     its BENCHMARK.json bound, or
#   - counter capture costs 5% or more of a workload's simulation time
#     (obs.capture_ms over machine.run_self_ms of the traced run).
set -euo pipefail

pairs=10
seconds=3
seed=42
budget_pct=5

if [ $# -ne 1 ]; then
	echo "usage: scripts/perfgate.sh BASE" >&2
	exit 2
fi
command -v jq >/dev/null || {
	echo "perfgate: jq is required" >&2
	exit 2
}
base=$(git rev-parse --verify "$1^{commit}")
root=$(pwd)
build="$root/.bench_build/perfgate"
tree="$build/tree"
runs="$root/runs"

rm -rf "$tree" "$runs/base" "$runs/head" "$runs/trace"
git worktree prune
git worktree add --detach "$tree" "$base" >/dev/null
trap 'git worktree remove --force "$tree"' EXIT

mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)

# bench SIDE OUT WORKLOAD TRACE runs one workload from SIDE's tree (base
# or head), writing its record and output under OUT.
bench() {
	local src=$root
	if [ "$1" = base ]; then src=$tree; fi
	mkdir -p "$2"
	(cd "$src" && CARGO_TARGET_DIR="$build/$1" bash bench/run.sh --workload "$3" \
		--seed "$seed" --seconds "$seconds" --trace "$4" --out "$2" >"$2/$3.$4.log")
}

# check RECORD fails the gate unless the run was correct; bench has
# already printed the failures.
check() {
	if ! jq -e '.correct == true and .failed == 0' "$1" >/dev/null; then
		echo "perfgate: incorrect run $1" >&2
		exit 1
	fi
}

echo "perfgate: base $base, head $(git describe --always --dirty)"
for ((i = 1; i <= pairs; i++)); do
	n=$(printf '%02d' "$i")
	first=base second=head
	if ((i % 2 == 0)); then first=head second=base; fi
	for w in "${workloads[@]}"; do
		for side in "$first" "$second"; do
			bench "$side" "$runs/$side/$n" "$w" 0
			check "$runs/$side/$n/$w.json"
		done
	done
	echo "perfgate: pair $n/$pairs done ($first first)"
done

status=0
CARGO_TARGET_DIR="$build/head" bash bench/run.sh --compare "$runs/base" "$runs/head" || status=1

echo "perfgate: counter budget, obs.capture_ms / machine.run_self_ms < $budget_pct%"
for w in "${workloads[@]}"; do
	bench head "$runs/trace" "$w" 1
	rec="$runs/trace/$w.layers.json"
	check "$rec"
	# plan-estimate builds no machine, so it reads 0 / 0 and is skipped.
	line=$(jq -r --arg w "$w" --argjson budget "$budget_pct" '
		def r2: . * 100 | round / 100;
		.metrics["obs.capture_ms"].value as $c | .metrics["machine.run_self_ms"].value as $r
		| if $r == 0 then "\($w): skipped, machine.run_self_ms is 0"
		  else (100 * $c / $r) as $p
		  | "\($w): \($c | r2) / \($r | r2) ms = \($p | r2)% \(if $p < $budget then "ok" else "over" end)"
		  end' "$rec")
	echo "$line"
	if [[ $line == *" over" ]]; then status=1; fi
done
exit "$status"
