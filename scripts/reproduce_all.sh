#!/usr/bin/env bash
# Regenerates every row of dante_bench::figures::ARTIFACTS (tables, figures,
# ablations, validation, and the golden records without a paper figure) into
# results/ as <id>.json and <id>.txt, at the scale selected by DANTE_FULL /
# DANTE_TRIALS / etc. The golden records ignore those knobs: `cargo test
# --test golden_snapshots` compares them with results/ byte for byte.
#
# Usage:
#   scripts/reproduce_all.sh                # fast profile (about a minute)
#   DANTE_FULL=1 scripts/reproduce_all.sh   # paper-fidelity Monte-Carlo
set -euo pipefail
cd "$(dirname "$0")/.."

export DANTE_RESULTS="${DANTE_RESULTS:-$PWD/results}"
cargo run --release -p dante-bench --bin reproduce
echo "All artifacts written to $DANTE_RESULTS"
