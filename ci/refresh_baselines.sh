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
# CI gates the `--quick` profile; the records the repo carries
# (BENCH_fig*.json, results/) are full runs, which are slower on
# absolute rates. So re-record those first, then run this: it measures
# the quick profile, rebases every gated key from the LOWER of the quick
# and the committed value, checks that both clear the new gate, and puts
# the committed records back the way it found them.
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
# records the CI bench-smoke job feeds to the gate — over the committed
# full-run record, which is therefore set aside first and restored on
# the way out (results/ likewise).
KEEP="$(mktemp -d)"
mkdir "$KEEP/quick"
cp -a results "$KEEP/results"
for fig in "${FIGS[@]}"; do
  cp "BENCH_fig$fig.json" "$KEEP/"
done
restore() {
  cp "$KEEP"/BENCH_fig*.json .
  cp -a "$KEEP/results/." results/
  rm -rf "$KEEP"
}
trap restore EXIT

SETS=()
for fig in "${FIGS[@]}"; do
  cargo run --release -p ncl-bench --bin "${BIN[$fig]:?no figure $fig}" -- --quick
  mv "BENCH_fig$fig.json" "$KEEP/quick/"
  SETS+=("$KEEP/quick/BENCH_fig$fig.json" "$KEEP/BENCH_fig$fig.json" "ci/bench_baseline_fig$fig.json")
done

cargo run --release -p ncl-bench --bin bench_gate -- \
  "${SETS[@]}" --rebase --headroom "$HEADROOM"

# Sanity: both records must pass the fresh baselines by a wide margin
# (we just set them below the lower of the two).
for ((i = 0; i < ${#SETS[@]}; i += 3)); do
  cargo run --release -p ncl-bench --bin bench_gate -- \
    "${SETS[i]}" "${SETS[i + 2]}" "${SETS[i + 1]}" "${SETS[i + 2]}" --tolerance 0.20
done

echo "refresh_baselines: done — review and commit ci/bench_baseline_fig*.json"
