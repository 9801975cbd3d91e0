#!/usr/bin/env bash
# Run the release gate benches and fold their metrics snapshots into one
# BENCH_9.json, so every release carries a comparable perf trajectory point.
#
# Gates (each exits non-zero on a regression; every gate runs even when an
# earlier one failed, each prints a PASS/FAIL line with its exit code, and
# the script exits non-zero when any gate failed):
#   abl_scheduler       contention-aware scheduling beats optimistic racing
#                       (plain, --durability=wal, and --chaos-burst variants)
#   abl_partition       partition-and-heal: lease expiry + catch-up
#   abl_recovery        durable recovery: log replay vs peer catch-up
#   micro_batching      batched quorum reads save read rounds
#   abl_shardscale      sharding: 1->8 group scale-out curve (>= 0.8x
#                       linear), cross-shard 2PC correctness, coordinator
#                       crash leaves no orphaned prepare in any group, and
#                       TPC-C through shard::Client (fast-path-pure scale
#                       curve + remote-warehouse mix state-equal to an
#                       unsharded reference)
#   shardscale_tpcc     the same binary at a heavier remote-warehouse mix
#                       (25% of order lines foreign) — stresses the 2PC
#                       path and escalation accounting harder
#   indoubt             cross-shard atomicity under 2PC phase-boundary
#                       chaos: coordinator crash, prepared-group
#                       isolation and phase-2 drop bursts must all end
#                       with zero breaches, zero torn transactions and
#                       nothing left in-doubt
#   queue               queue-oriented epoch executor: on 95%-skew Bank,
#                       --exec=queue commits at least as much as
#                       --exec=acn --sched=both with near-zero full
#                       aborts, --exec=hybrid ends state-equal to a pure
#                       ACN reference, and a mid-epoch crash leaves no
#                       orphaned prepares
#
# Usage: scripts/bench_snapshot.sh [build-dir] [output.json]
#   BUILD_DIR defaults to "build", output to "BENCH_9.json".
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_9.json}"
BENCH="$BUILD_DIR/bench"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# Pinned configuration: the scheduler gate compares two runs under an
# identical seed/regime, so the numbers are comparable release to release.
SCHED_ARGS=(--intervals=6 --clients=16 --latency-us=100 --seed=13)

declare -A GATES=(
  [scheduler]="$BENCH/abl_scheduler ${SCHED_ARGS[*]}"
  [scheduler_wal]="$BENCH/abl_scheduler ${SCHED_ARGS[*]} --durability=wal"
  [scheduler_chaos]="$BENCH/abl_scheduler ${SCHED_ARGS[*]} --chaos-burst"
  [partition]="$BENCH/abl_partition --clients=4 --interval-ms=120"
  [recovery]="$BENCH/abl_recovery --clients=4 --intervals=6 --interval-ms=150"
  [batching]="$BENCH/micro_batching --txs=500"
  [shardscale]="$BENCH/abl_shardscale --shards=8 --txs=200 --seed=13"
  [shardscale_tpcc]="$BENCH/abl_shardscale --shards=8 --txs=200 --seed=13 --remote-wh=0.25"
  [indoubt]="$BENCH/abl_indoubt --seed=13"
  [queue]="$BENCH/abl_queue ${SCHED_ARGS[*]}"
)
# Deterministic run order (associative arrays iterate arbitrarily).
ORDER=(scheduler scheduler_wal scheduler_chaos partition recovery batching
       shardscale shardscale_tpcc indoubt queue)

declare -A STATUS=()
for name in "${ORDER[@]}"; do
  echo "=== gate: $name ==="
  rc=0
  # shellcheck disable=SC2086  # intentional word splitting of the command
  ${GATES[$name]} --metrics-json "$WORK/$name.json" || rc=$?
  STATUS[$name]=$rc
done

echo "=== gate summary ==="
failed=0
for name in "${ORDER[@]}"; do
  if [ "${STATUS[$name]}" -eq 0 ]; then
    echo "PASS $name (exit 0)"
  else
    echo "FAIL $name (exit ${STATUS[$name]})"
    failed=1
  fi
done

python3 - "$OUT" "$WORK" "${ORDER[@]}" <<'EOF'
import json, os, subprocess, sys

out, work, names = sys.argv[1], sys.argv[2], sys.argv[3:]
rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                     capture_output=True, text=True).stdout.strip() or None
snapshot = {"git": rev, "gates": {}}
for name in names:
    path = f"{work}/{name}.json"
    if not os.path.exists(path):
        print(f"{name}: wrote no metrics JSON")
        continue
    with open(path) as f:
        snapshot["gates"][name] = json.load(f)
with open(out, "w") as f:
    json.dump(snapshot, f, indent=1, sort_keys=True)
print(f"wrote {out} ({len(snapshot['gates'])} of {len(names)} gates)")
EOF
exit "$failed"
