#!/usr/bin/env bash
# Regenerates the perf baselines at the repo root:
#   BENCH_kernel.json    — kernel micro/e2e benches (pqs.bench_kernel/1)
#   BENCH_scale.json     — n=100k live-churn scale bench (pqs.bench_scale/1)
#   BENCH_byzantine.json — b-masking failure-rate sweep vs the closed-form
#                          bound + the end-to-end adversary scenario
#                          (pqs.bench_byzantine/1)
#   BENCH_frontier.json  — workload-aware quorum sizing vs the symmetric
#                          default: analytic Lemma 5.6 frontier + measured
#                          KV service traffic (pqs.bench_frontier/1)
#   BENCH_energy.json    — duty-cycle/lease Monte-Carlo vs the closed-form
#                          timed-quorum bound + end-to-end energy sweep
#                          (joules/lookup, network lifetime)
#                          (pqs.bench_energy/1)
# Run it on the machine whose numbers you want to record, then commit the
# refreshed files together with a README "Performance" note that names
# the host, when the numbers move materially. Every bench runs one
# thread. BENCH_kernel.json was last regenerated on a shared 4-vCPU Xeon
# VM (nproc = 4); the other baselines date from an earlier single-core
# container.
#
#   scripts/bench.sh          # full workloads (bench_scale at n=100k)
#   scripts/bench.sh smoke    # shrunk workloads (same as the ctest gates)
#
# The emitted JSON is schema-checked here and again by scripts/check.sh;
# all `counters` fields are deterministic (fixed seeds), so two runs on
# any machine must differ only in wall/rate/RSS fields.
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT=$PWD
JOBS=$(nproc 2>/dev/null || echo 2)
MODE="${1:-full}"

cmake -B build -S "$ROOT" >/dev/null
cmake --build build -j "$JOBS" --target bench_kernel --target bench_scale \
  --target bench_byzantine --target bench_frontier --target bench_energy

case "$MODE" in
  full)
    ./build/bench/bench_kernel --out BENCH_kernel.json
    ./build/bench/bench_scale --out BENCH_scale.json
    ./build/bench/bench_byzantine --out BENCH_byzantine.json
    ./build/bench/bench_frontier --out BENCH_frontier.json
    ./build/bench/bench_energy --out BENCH_energy.json
    ;;
  smoke)
    ./build/bench/bench_kernel --smoke --out BENCH_kernel.json
    ./build/bench/bench_scale --smoke --out BENCH_scale.json
    ./build/bench/bench_byzantine --smoke --out BENCH_byzantine.json
    ./build/bench/bench_frontier --smoke --out BENCH_frontier.json
    ./build/bench/bench_energy --smoke --out BENCH_energy.json
    ;;
  *) echo "usage: scripts/bench.sh [full|smoke]" >&2; exit 2 ;;
esac

python3 scripts/check_bench_json.py BENCH_kernel.json BENCH_scale.json \
  BENCH_byzantine.json BENCH_frontier.json BENCH_energy.json
