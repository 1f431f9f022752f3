#!/usr/bin/env bash
# Byte-determinism gate: the repository's documented invariant is that
# every result artifact — figure tables, sweep CSV/JSON exports, serve
# reports — is byte-identical at any worker count. This script makes the
# claim an explicit pipeline gate: it renders each artifact at 1 worker
# and at all cores, and fails on the first byte of difference. The
# figure tables are also rendered panel by panel, one process each, and
# compared with the four panels of one process, whose later panels run
# on machines the earlier ones used. The sweep
# and serve runs include Q01 aggregation cells/requests so the grouped
# workload family is gated alongside the Q06 selection scan, and the
# auto-routing block gates the adaptive planner's routing decisions.
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
many=$(nproc)
if [ "$many" -lt 4 ]; then
  # Even on small machines, compare against a genuinely concurrent pool:
  # extra workers beyond the core count still interleave goroutines.
  many=4
fi

echo "== figure tables: GOMAXPROCS=1 vs GOMAXPROCS=$many =="
GOMAXPROCS=1 go run ./cmd/hipe-bench -timing=false -tuples 4096 >"$out/figs.1"
GOMAXPROCS="$many" go run ./cmd/hipe-bench -timing=false -tuples 4096 >"$out/figs.N"
cmp "$out/figs.1" "$out/figs.N"

echo "== figure tables: four panels in one process vs one process per panel =="
# One process's panels share its simulated machines through the
# process-wide machine pool; a panel in a process of its own builds them
# fresh. Without the header line and the blank lines the two must match.
panels() { grep -v -e '^HIPE reproduction' -e '^$'; }
panels <"$out/figs.1" >"$out/figs.warm"
for fig in 3a 3b 3c 3d; do
  go run ./cmd/hipe-bench -timing=false -tuples 4096 -fig "$fig" | panels
done >"$out/figs.cold"
cmp "$out/figs.warm" "$out/figs.cold"

echo "== sweep CSV/JSON: -workers 1 vs -workers $many =="
sweep() {
  go run ./cmd/hipe-sweep -workers "$1" \
    -archs x86,hmc,hive,hipe -opsizes 64,256 -unrolls 1,8 \
    -tuples 4096 -q1cuts 2436 -quiet \
    -csv "$out/sweep.$1.csv" -json "$out/sweep.$1.json" >/dev/null
}
sweep 1
sweep "$many"
cmp "$out/sweep.1.csv" "$out/sweep.$many.csv"
cmp "$out/sweep.1.json" "$out/sweep.$many.json"

echo "== serve report: -workers 1 vs -workers $many =="
serve() {
  go run ./cmd/hipe-serve -workers "$1" \
    -shards 4 -requests 24 -tuples 4096 -q1-every 3 -quiet \
    -csv "$out/serve.$1.csv" -json "$out/serve.$1.json" >/dev/null
}
serve 1
serve "$many"
cmp "$out/serve.1.csv" "$out/serve.$many.csv"
cmp "$out/serve.1.json" "$out/serve.$many.json"

echo "== auto routing (clustered serve report + auto-axis sweep): -workers 1 vs -workers $many =="
# -archs auto routing decisions — the backend picks and every
# candidate's estimate — must be byte-identical at any worker count; the
# full-file cmp covers the routing columns.
autoroute() {
  go run ./cmd/hipe-serve -workers "$1" \
    -shards 4 -requests 24 -tuples 4096 -archs auto -clustered \
    -q1-every 3 -quiet \
    -csv "$out/route.$1.csv" -json "$out/route.$1.json" >/dev/null
  go run ./cmd/hipe-sweep -workers "$1" \
    -archs auto,x86,hmc,hive,hipe -opsizes 64,256 -unrolls 8 \
    -tuples 4096 -q1cuts 800 -quiet \
    -csv "$out/autosweep.$1.csv" -json "$out/autosweep.$1.json" >/dev/null
}
autoroute 1
autoroute "$many"
cmp "$out/route.1.csv" "$out/route.$many.csv"
cmp "$out/route.1.json" "$out/route.$many.json"
cmp "$out/autosweep.1.csv" "$out/autosweep.$many.csv"
cmp "$out/autosweep.1.json" "$out/autosweep.$many.json"
awk -F, 'NR==1{for(i=1;i<=NF;i++) if($i=="routed") c=i; next} c && $c=="true"{found=1} END{exit !found}' \
  "$out/route.1.csv" || { echo "no routed request in the auto report" >&2; exit 1; }
grep -q ',auto,' "$out/autosweep.1.csv" || { echo "no auto cell in the sweep export" >&2; exit 1; }

echo "== fleet report (replicas + classes + shed): -workers 1 vs -workers $many =="
fleet() {
  go run ./cmd/hipe-serve -workers "$1" \
    -shards 4 -requests 24 -tuples 4096 -mode open -qps 250000 \
    -pools hipe,hipe,x86,hmc -archs auto -q1-every 3 \
    -classes "batch:400:100,rt:200:0" -shed -quiet \
    -csv "$out/fleet.$1.csv" -json "$out/fleet.$1.json" >/dev/null
}
fleet 1
fleet "$many"
cmp "$out/fleet.1.csv" "$out/fleet.$many.csv"
cmp "$out/fleet.1.json" "$out/fleet.$many.json"

echo "== fleet report (trace-driven arrivals): -workers 1 vs -workers $many =="
trace() {
  go run ./cmd/hipe-serve -workers "$1" \
    -shards 4 -requests 24 -tuples 4096 -mode open -qps 250000 \
    -pools hipe,x86 -archs auto \
    -trace -trace-period-us 40 -trace-amp 0.6 \
    -burst 4 -burst-on-us 5 -burst-off-us 15 \
    -classes "batch:300:60,rt:150:0" -shed -quiet \
    -csv "$out/trace.$1.csv" -json "$out/trace.$1.json" >/dev/null
}
trace 1
trace "$many"
cmp "$out/trace.1.csv" "$out/trace.$many.csv"
cmp "$out/trace.1.json" "$out/trace.$many.json"

echo "== observability exports (counters + virtual-time trace): -workers 1 vs -workers $many =="
obs() {
  go run ./cmd/hipe-serve -workers "$1" \
    -shards 4 -requests 24 -tuples 4096 -mode open -qps 250000 \
    -pools hipe,x86 -archs auto -counters \
    -trace-json "$out/obs.$1.trace.json" -spans-csv "$out/obs.$1.spans.csv" \
    -json "$out/obs.$1.json" -quiet >/dev/null
}
obs 1
obs "$many"
cmp "$out/obs.1.trace.json" "$out/obs.$many.trace.json"
cmp "$out/obs.1.spans.csv" "$out/obs.$many.spans.csv"
cmp "$out/obs.1.json" "$out/obs.$many.json"

echo "== faulted fleet (crashes + stragglers + stalls + recovery): -workers 1 vs -workers $many =="
faulted() {
  go run ./cmd/hipe-serve -workers "$1" \
    -shards 4 -requests 24 -tuples 4096 -mode open -qps 250000 \
    -pools hipe,hipe,x86 -archs auto -q1-every 3 \
    -classes "batch:400:100,rt:200:0" -shed \
    -crash 1:40:120 -crash-every-us 500 -crash-down-us 150 \
    -straggle-every-us 300 -straggle-for-us 100 -straggle-factor 3 \
    -stall-every-us 400 -stall-for-us 20 -stall-max-us 60 \
    -retries 2 -retry-backoff-us 5 -retry-backoff-cap-us 40 \
    -timeout-us 400 -hedge-us 150 -failover -fault-seed 7 \
    -counters -quiet \
    -trace-json "$out/faulted.$1.trace.json" -spans-csv "$out/faulted.$1.spans.csv" \
    -csv "$out/faulted.$1.csv" -json "$out/faulted.$1.json" >/dev/null
}
faulted 1
faulted "$many"
cmp "$out/faulted.1.csv" "$out/faulted.$many.csv"
cmp "$out/faulted.1.json" "$out/faulted.$many.json"
cmp "$out/faulted.1.trace.json" "$out/faulted.$many.trace.json"
cmp "$out/faulted.1.spans.csv" "$out/faulted.$many.spans.csv"

echo "== sweep counter columns: -workers 1 vs -workers $many =="
ctrsweep() {
  go run ./cmd/hipe-sweep -workers "$1" \
    -archs x86,hmc,hive,hipe -opsizes 64,256 -unrolls 8 \
    -tuples 4096 -q1cuts 2436 -counters -quiet \
    -csv "$out/ctr.$1.csv" >/dev/null
}
ctrsweep 1
ctrsweep "$many"
cmp "$out/ctr.1.csv" "$out/ctr.$many.csv"

echo "== estimate-mode sweep (cost-model fast path, auto axis): -workers 1 vs -workers $many =="
estsweep() {
  go run ./cmd/hipe-sweep -workers "$1" -exec estimate \
    -archs x86,hmc,hive,hipe,auto -opsizes 64,256 -unrolls 1,8 \
    -tuples 4096 -q1cuts 2436 -quiet \
    -csv "$out/est.$1.csv" -json "$out/est.$1.json" >/dev/null
}
estsweep 1
estsweep "$many"
cmp "$out/est.1.csv" "$out/est.$many.csv"
cmp "$out/est.1.json" "$out/est.$many.json"

echo "== parallel shard simulation (-cell-shards 4): -workers 1 vs -workers $many =="
shardsweep() {
  go run ./cmd/hipe-sweep -workers "$1" -cell-shards 4 \
    -archs x86,hipe,auto -opsizes 256 -unrolls 8,32 \
    -tuples 4096 -q1cuts 2436 -counters -quiet \
    -csv "$out/shard.$1.csv" -json "$out/shard.$1.json" >/dev/null
}
shardsweep 1
shardsweep "$many"
cmp "$out/shard.1.csv" "$out/shard.$many.csv"
cmp "$out/shard.1.json" "$out/shard.$many.json"

echo "== estimate-mode shard legs (-exec estimate -cell-shards 4): -workers 1 vs -workers $many =="
estshardsweep() {
  go run ./cmd/hipe-sweep -workers "$1" -exec estimate -cell-shards 4 \
    -archs x86,hmc,hive,hipe,auto -opsizes 64,256 -unrolls 8,32 \
    -tuples 4096 -q1cuts 2436 -clustered both -quiet \
    -csv "$out/estshard.$1.csv" -json "$out/estshard.$1.json" >/dev/null
}
estshardsweep 1
estshardsweep "$many"
cmp "$out/estshard.1.csv" "$out/estshard.$many.csv"
cmp "$out/estshard.1.json" "$out/estshard.$many.json"

echo "== adaptive fleet (feedback-driven routing): -workers 1 vs -workers $many =="
adaptive() {
  go run ./cmd/hipe-serve -workers "$1" \
    -shards 4 -requests 24 -tuples 4096 -mode open -qps 250000 \
    -pools hipe,x86 -archs auto -q1-every 3 \
    -adaptive -explore-pct 10 -obs-halflife 4 -adapt-seed 11 -quiet \
    -csv "$out/adaptive.$1.csv" -json "$out/adaptive.$1.json" >/dev/null
}
adaptive 1
adaptive "$many"
# The exploration draws and observation folds must replay identically at
# any worker count: the epsilon stream is keyed on (seed, request index)
# and observations fold in during the single-threaded replay.
cmp "$out/adaptive.1.csv" "$out/adaptive.$many.csv"
cmp "$out/adaptive.1.json" "$out/adaptive.$many.json"
grep -q 'route_mode' "$out/adaptive.1.csv" || {
  echo "adaptive CSV lacks the routing provenance columns" >&2; exit 1
}
grep -q ',adaptive,' "$out/adaptive.1.csv" || {
  echo "adaptive CSV never routed a request adaptively" >&2; exit 1
}

echo "== estimate-mode serve report: -workers 1 vs -workers $many =="
estserve() {
  go run ./cmd/hipe-serve -workers "$1" -exec estimate \
    -shards 4 -requests 24 -tuples 4096 -archs auto -q1-every 3 -quiet \
    -csv "$out/estserve.$1.csv" -json "$out/estserve.$1.json" >/dev/null
}
estserve 1
estserve "$many"
cmp "$out/estserve.1.csv" "$out/estserve.$many.csv"
cmp "$out/estserve.1.json" "$out/estserve.$many.json"

echo "determinism gate passed: all artifacts byte-identical at 1 and $many workers"
