#!/usr/bin/env bash
# Regenerates every paper artifact (tables, figures, ablations, validation)
# into results/, at the scale selected by DANTE_FULL / DANTE_TRIALS / etc.
#
# Usage:
#   scripts/reproduce_all.sh                # fast profile (about a minute)
#   DANTE_FULL=1 scripts/reproduce_all.sh   # paper-fidelity Monte-Carlo
set -euo pipefail
cd "$(dirname "$0")/.."

export DANTE_RESULTS="${DANTE_RESULTS:-$PWD/results}"
mkdir -p "$DANTE_RESULTS"

cargo build --release -p dante-bench --bins

artifacts=(
  table1 table2 table3
  fig04 fig06 fig07 fig08 fig09 fig12
  fig01 fig02 fig13 fig14 fig15
  headlines
  ablation_ecc ablation_levels ablation_dataflow validation
)
for a in "${artifacts[@]}"; do
  echo "=== $a ==="
  "target/release/$a" | tee "$DANTE_RESULTS/$a.txt"
done
echo "All artifacts written to $DANTE_RESULTS"
