#!/usr/bin/env bash
# Regenerates the committed benchmark baselines at the repo root:
#
#   BENCH_fig2a_tagcloud.json   — the paper's headline artifact (E1)
#   BENCH_micro_core.json       — hot-kernel microbenchmarks (M1)
#   BENCH_micro_evaluator.json  — proposal-evaluation engine (M2)
#   BENCH_nav_serving.json      — concurrent serving layer, cached vs
#                                 uncached (E8)
#   BENCH_scalability.json      — TagCloud sweep + sharded Socrata
#                                 sweep with the epsilon gate (S1);
#                                 the slowest baseline by far
#   BENCH_adaptive_serving.json — closed adaptive loop vs frozen org
#                                 (E11, docs/ADAPTIVE.md)
#
# Serving over sockets and WAL durability are measured by perfbench's
# navigate and evolve workloads (perfbench/README.md), not by a baseline.
#
# Run on a quiet machine, then commit the refreshed files. Gate future
# changes with:
#
#   build/tools/bench_compare BENCH_micro_evaluator.json \
#       <fresh run>.json --threshold 0.10
#
# The reports embed the LAKEORG_* environment; run this script with the
# same (unset) environment the baselines were made with, or bench_compare
# will refuse the diff.
set -euo pipefail

cd "$(dirname "$0")/.."
jobs=$(nproc 2>/dev/null || echo 4)

# A baseline is only meaningful if its embedded git_sha names the exact
# tree that produced the numbers. Refuse to run with uncommitted changes
# — a baseline stamped with a SHA that doesn't include the code it
# measured would poison every future regression diff.
if [[ -n "$(git status --porcelain)" ]]; then
  echo "bench_baseline.sh: working tree is dirty; commit or stash first" >&2
  echo "  (baselines must be reproducible from the stamped git_sha)" >&2
  git status --short >&2
  exit 1
fi
sha=$(git rev-parse --short HEAD)
echo "bench_baseline.sh: baselining clean tree at $sha"

cmake -B build -S . >/dev/null
cmake --build build -j "$jobs" \
  --target fig2a_tagcloud micro_core micro_evaluator nav_serving \
           scalability adaptive_serving bench_compare

./build/bench/fig2a_tagcloud --json=BENCH_fig2a_tagcloud.json
./build/bench/micro_core --json=BENCH_micro_core.json
./build/bench/micro_evaluator --json=BENCH_micro_evaluator.json
./build/bench/nav_serving --json=BENCH_nav_serving.json
# The default sweep (multipliers 1,10 plus the multiplier-1 unsharded
# epsilon gate) runs for many minutes; the reports embed the LAKEORG_*
# environment, so keep it unset here as for every other baseline.
./build/bench/scalability --json=BENCH_scalability.json
./build/bench/adaptive_serving --json=BENCH_adaptive_serving.json

for report in BENCH_fig2a_tagcloud.json BENCH_micro_core.json \
              BENCH_micro_evaluator.json BENCH_nav_serving.json \
              BENCH_scalability.json BENCH_adaptive_serving.json; do
  ./build/tools/bench_compare --check "$report"
  # Belt-and-braces: the report must carry the SHA we just resolved. The
  # harness bakes the SHA in at configure time; the reconfigure above
  # refreshes it, so a mismatch means a stale build tree.
  if ! grep -q "\"git_sha\": \"$sha\"" "$report"; then
    echo "bench_baseline.sh: $report is not stamped with HEAD ($sha)" >&2
    exit 1
  fi
done
echo "bench_baseline.sh: baselines refreshed at $sha"
