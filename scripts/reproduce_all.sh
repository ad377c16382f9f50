#!/usr/bin/env bash
# Regenerate every table/figure of the paper plus the ablation studies into
# reproduction-output/ (one <name>.txt per experiment; `repro list` names
# them). Export ABFT_THREADS=N to bound the campaign workers (results
# are bit-identical at any worker count). Usage: scripts/reproduce_all.sh
set -euo pipefail
cd "$(dirname "$0")/.."
cargo run -q --release -p abft-bench --bin repro -- all --out reproduction-output
