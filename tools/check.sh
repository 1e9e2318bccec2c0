#!/usr/bin/env bash
# Full pre-merge check:
#   1. tier 1  — full test suite on the normal build (includes the unit,
#                fuzz, and bench-smoke labels)
#   2. bench   — explicit bench smoke tier: every bench binary's --smoke
#                run must emit a schema-valid BENCH_*.json
#   3. sanitizers — AddressSanitizer and ThreadSanitizer builds run the
#                fixed-seed differential fuzz tier, the golden-trace,
#                telemetry, and serving-layer tests, and a 60-second
#                difftest soak
#
#   tools/check.sh            # everything (three builds; several minutes)
#   tools/check.sh --fast     # tiers 1-2 only, no sanitizer builds
#   tools/check.sh --asan     # AddressSanitizer tier only (CI matrix leg)
#   tools/check.sh --tsan     # ThreadSanitizer tier only (CI matrix leg)
#
# Build trees: build/ (plain), build-asan/, build-tsan/. Each sanitizer
# tree is configured on first use and reused afterwards. Every command
# below runs under `set -e` with its exit status intact: a failing ctest
# or difftest phase fails the script even when a build tree already
# existed and only needed an incremental rebuild.
set -euo pipefail

cd "$(dirname "$0")/.."
jobs=$(nproc 2>/dev/null || echo 4)
mode="${1:-all}"
case "$mode" in
  all|--fast|--asan|--tsan) ;;
  *)
    echo "check.sh: unknown flag '$mode' (use --fast, --asan, or --tsan)" >&2
    exit 2
    ;;
esac

# Sanitizer tier for one sanitizer ("address" or "thread"). Targets are
# built explicitly so an out-of-date tree is rebuilt before anything runs;
# the ctest/difftest invocations are plain statements whose exit codes
# propagate through set -e.
run_sanitizer_tier() {
  local san="$1"
  local tree="build-$([[ "$san" == address ]] && echo asan || echo tsan)"
  echo "== sanitizer tier: LAKEORG_SANITIZE=$san ($tree) =="
  cmake -B "$tree" -S . -DLAKEORG_SANITIZE="$san" >/dev/null
  cmake --build "$tree" -j "$jobs" \
    --target difftest crashtest difftest_property_test common_test \
             core_test obs_test lake_test discovery_test net_test
  # Fixed-seed differential fuzz corpus (includes the repair-delta,
  # serving, state-recycling, crash-recovery durability, and closed-loop
  # adaptive corpora: difftest --repair / --serving / --recycle /
  # --durability / --adaptive — the adaptive corpus runs both serial and
  # 4-threaded, the acceptance shape for the serve->observe->repair loop
  # — plus the crashtest matrix).
  (cd "$tree" && ctest --output-on-failure -j "$jobs" -L fuzz)
  # Optimizer golden trace + telemetry (incl. the 8-thread counter
  # exactness test — the TSan run is the lock-freedom proof), the
  # incremental evaluator's caches and transition-row memo
  # (IncrementalEval, and its parameterized property test, whose names
  # start with the ExactAndApprox/ instantiation prefix), the bit
  # identity of a proposal's leaf reach with its committed closure
  # (DecisionCommitSplit), leaf-restricted exact scoring
  # (AncestorScoring), and the optimizer's only concurrency: the shard
  # pool that optimizes sharded and multi-dimensional parts in parallel
  # under the memory gate (ShardedSearch, MultiDim) and the pool itself
  # (ThreadPool). Then the live-evolution surface: snapshot publish/pin
  # (the RCU concurrency test is the TSan target), repair splicing, delta
  # recording, the live lake service — the serving layer: NavService
  # session lifecycle with concurrent walks + publishes, the
  # NavigationSession walk every served session runs under its session
  # mutex, the sharded LRU row cache, and the adaptive loop (click sink
  # bounds, policy ticks racing walkers and TTL sweeps — the TSan leg is
  # the audit for the close-vs-descend race) — the durability layer: WAL
  # framing/corruption matrix, mutation replay, and crash recovery of the
  # live service — and the network front end: wire framing/codec, the
  # socket corruption matrix, NavServer lifecycle + backpressure (the
  # TSan leg races the loop thread against Stop and the counter reads),
  # and loadgen-vs-oracle equivalence.
  (cd "$tree" && ctest --output-on-failure -j "$jobs" -LE slow \
    -R '^(GoldenTrace|IncrementalEval|ExactAndApprox/IncrementalEval|DecisionCommitSplit|AncestorScoring|ShardedSearch|MultiDim|ThreadPool|MetricsTest|BenchReport|Json|OrgSnapshot|Repair|LakeDelta|LiveLake|NavService|Navigation|LruCache|WalFormat|DurableLog|LakeMutation|WalRecord|Durability|NetFrame|NetProtocol|NavServer|NetLoadgen|Adaptive|ClickLog|ClickEvent|BuildRepairPlan|BehaviorLog)')
  # 60 seconds of fixed-seed fuzz: the difftest driver stops at the time
  # budget, so the seed range it covers grows with machine speed but
  # every run starts from the same seeds.
  "./$tree/tools/difftest" --seed 1000 --trials 100000 --max-seconds 60
}

if [[ "$mode" == "--asan" ]]; then
  run_sanitizer_tier address
  echo "check.sh: asan tier ok"
  exit 0
fi
if [[ "$mode" == "--tsan" ]]; then
  run_sanitizer_tier thread
  echo "check.sh: tsan tier ok"
  exit 0
fi

echo "== tier 1: build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j "$jobs"
(cd build && ctest --output-on-failure -j "$jobs")

echo "== bench smoke tier (ctest -L bench) =="
(cd build && ctest --output-on-failure -j "$jobs" -L bench)

if [[ "$mode" == "--fast" ]]; then
  echo "check.sh: tier-1 + bench ok (sanitizer tiers skipped with --fast)"
  exit 0
fi

run_sanitizer_tier address
run_sanitizer_tier thread

echo "check.sh: all tiers ok"
