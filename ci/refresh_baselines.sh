#!/usr/bin/env bash
# Regenerates the checked-in perf baselines
# (ci/bench_baseline_fig{11,12,16,17,18,20}.json) from a fresh local
# run.
#
# Run this ONLY after an intentional performance change, on a quiet
# machine comparable to the CI runners, and commit the result together
# with the change that justifies it. The gated key set of each baseline
# is preserved exactly (see `bench_gate --rebase`); new informational
# keys must be promoted by hand before they are gated.
#
# Usage:
#   ci/refresh_baselines.sh            # every figure, quick profile, 50% headroom
#   ci/refresh_baselines.sh 17         # only the figures named (a change that moved one record)
#   HEADROOM=0.6 ci/refresh_baselines.sh
set -euo pipefail
cd "$(dirname "$0")/.."

HEADROOM="${HEADROOM:-0.5}"

declare -A BIN=(
  [12]=fig12_training_time
  [11]=fig11_online_time
  [18]=fig18_open_loop
  [16]=fig16_kernels
  [17]=fig17_scale_serving
  [20]=fig20_document_linking
)
FIGS=("$@")
if [ "${#FIGS[@]}" -eq 0 ]; then
  FIGS=(12 11 18 16 17 20)
fi

cargo build --release -p ncl-bench

# Each binary drops its flat BENCH_fig*.json at the repo root — the same
# records the CI bench-smoke job feeds to the gate.
PAIRS=()
for fig in "${FIGS[@]}"; do
  cargo run --release -p ncl-bench --bin "${BIN[$fig]:?no figure $fig}" -- --quick
  PAIRS+=("BENCH_fig$fig.json" "ci/bench_baseline_fig$fig.json")
done

cargo run --release -p ncl-bench --bin bench_gate -- \
  "${PAIRS[@]}" --rebase --headroom "$HEADROOM"

# Sanity: a gate run against the fresh baselines must pass by a wide
# margin (we just set them below the measurement).
cargo run --release -p ncl-bench --bin bench_gate -- \
  "${PAIRS[@]}" --tolerance 0.20

echo "refresh_baselines: done — review and commit ci/bench_baseline_fig*.json"
