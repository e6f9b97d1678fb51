#!/usr/bin/env bash
# Local pre-push gate / CI entry point: configure + build + ctest + a
# scenario smoke + a malformed-input gate on the scenario CLI + one short
# run of every paper bench and example + the bench_ispn smoke + one
# sampled layer profile + one live-heap census.
# Usage: scripts/check.sh [build-dir]
#
# The bench and example runs only catch crashes and non-zero exits; the
# performance numbers of record come from bench_ispn (BENCHMARK.json).

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

echo "== configure =="
cmake -B "$BUILD_DIR" -S . >/dev/null

echo "== build =="
cmake --build "$BUILD_DIR" -j "$(nproc)"

echo "== ctest =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "== scenario smoke =="
# Small configs through the scenario CLI; scenario_run exits non-zero on a
# conservation violation, so CI trips on any packet-accounting bug.  (The
# golden-trace determinism suite test_scenario_golden already ran under
# ctest above.)
"$BUILD_DIR/scenario_run" --preset fan_in --scale smoke arrival_rate=0 target_flows=8 >/dev/null
"$BUILD_DIR/scenario_run" --preset parking_lot --scale smoke arrival_rate=0 target_flows=12 >/dev/null
"$BUILD_DIR/scenario_run" --preset churn --scale smoke run_seconds=2 >/dev/null
# Failure preset: explicit failures (so the 2-second smoke really takes
# links down) must reroute, rebalance the ledger (failed_link_drops
# bucket) and exit 0.
"$BUILD_DIR/scenario_run" --preset failure run_seconds=2 \
  link_failure_rate=0 \
  --fail-link 0:2@0.5,up@1.4 --fail-link 6:8@0.9 >/dev/null
# Sharded parallel core at 1, 3 and 4 workers: any worker count must
# produce the identical report (test_shard_diff proves byte-identity; this
# smoke catches CLI/runner wiring and threading crashes in a plain build;
# 3 workers split the domains unevenly).  Each JSON report must parse and
# match the 1-worker one byte for byte, bar the "spec" line that names the
# worker count.
for n in 1 3 4; do
  json="$BUILD_DIR/shards-$n.json"
  "$BUILD_DIR/scenario_run" --preset fan_in --scale smoke tree_depth=3 \
    arrival_rate=0 target_flows=8 --shards "$n" --json "$json" >/dev/null
  python3 -m json.tool "$json" >/dev/null
  diff <(grep -v '^  "spec":' "$BUILD_DIR/shards-1.json") \
       <(grep -v '^  "spec":' "$json")
done
# Responsive traffic: every CC stack (and the round-robin mix) through the
# CLI with DEC-TR-506 binary feedback on — conservation now covers the
# bidirectional data+ACK ledger, so exit 0 means the transport accounting
# balanced; the mix also runs sharded to smoke cross-domain ACK handoff.
for cc in reno bbr rack mix; do
  "$BUILD_DIR/scenario_run" --preset parking_lot --scale smoke --cc "$cc" \
    arrival_rate=0 target_flows=12 binary_feedback=1 >/dev/null
done
"$BUILD_DIR/scenario_run" --preset parking_lot --scale smoke --cc mix \
  arrival_rate=0 target_flows=12 binary_feedback=1 --shards 2 >/dev/null
# Chaos gate: every fault family at once (crashes, brown-outs, transient
# loss, flapping links) with the invariant monitor auditing continuously.
# scenario_run exits 1 on ANY structured violation, so a broken ledger or
# an incoherent scheduler fails the gate — classic and sharded cores both.
"$BUILD_DIR/scenario_run" --chaos run_seconds=10 >/dev/null
"$BUILD_DIR/scenario_run" --chaos run_seconds=10 --shards 2 >/dev/null

echo "== malformed input =="
# The config fuzz in test_scenario_config stops at validate(); this runs
# the CLI itself.  Each case (first word: what the diagnostic must name)
# must exit exactly 2 with that diagnostic: never 0, never a crash (134)
# after validation.  The address-space cap turns a fabric that validation
# lets through into a quick bad_alloc instead of a host-sized allocation.
# $args is split into words on purpose.
while read -r needle args; do
  rc=0
  err=$(ulimit -v 4000000; "$BUILD_DIR/scenario_run" $args 2>&1 >/dev/null) ||
    rc=$?
  if [ "$rc" -ne 2 ] || [[ "$err" != *"$needle"* ]]; then
    echo "scenario_run $args: exit $rc, want 2 naming '$needle': $err" >&2
    exit 1
  fi
done <<'CASES'
chain_switches --preset chain --scale smoke chain_switches=2000000000
tree_depth --preset fan_in --scale smoke tree_depth=20
mesh_rows --preset failure --scale smoke mesh_rows=65536 mesh_cols=65536
order_backend --preset fan_in --scale smoke order_backend=heap
event_backend --preset fan_in --scale smoke event_backend=wheel
/nonexistent/dir/report.json --preset fan_in --scale smoke --json /nonexistent/dir/report.json
CASES

echo "== bench + example smoke =="
# Every paper-reproduction bench with a 2-second simulated run, then every
# example, once each.  Loop over the sources, not the build directory: a
# reused build directory keeps binaries of programs that no longer exist.
for src in bench/bench_*.cc; do
  ISPN_BENCH_SECONDS=2 "$BUILD_DIR/$(basename "$src" .cc)" >/dev/null
done
for src in examples/*.cpp; do
  "$BUILD_DIR/example_$(basename "$src" .cpp)" >/dev/null
done

echo "== bench_ispn smoke =="
# The repeatable benchmark's own smoke: every workload at 1/20 of its
# horizon with every correctness check on (conservation, invariants,
# Parekh-Gallager bound, sim_digest across repeats and worker counts).
# It builds into .bench_build/ and writes no result files.
bench_ispn/smoke.sh >/dev/null

echo "== profile smoke =="
# The sampled per-layer profile on a short fan-in run: the sampler must
# build, take samples and attribute some of them to the event core.
profile=$(scripts/profile.sh fanin-cbr --scale 0.05)
if ! grep -q '^sim ' <<<"$profile"; then
  echo "$profile" >&2
  echo "scripts/profile.sh: no sim row" >&2
  exit 1
fi

echo "== heap census smoke =="
# The live-heap census on a short parking-lot run: the operator new
# interposer must build, see the run's blocks and name their call sites.
heap=$(scripts/heap.sh parking-mix --scale 0.05 2>/dev/null)
if ! grep -q 'ScenarioRunner' <<<"$heap"; then
  echo "$heap" >&2
  echo "scripts/heap.sh: no scenario call site" >&2
  exit 1
fi

echo "OK"
