#!/usr/bin/env bash
# Is the benchmark steady enough to judge a change with?
#
# Runs every workload twice back to back, in alternating order (A: first to
# last, B: last to first, so neither side always runs on a warmer or busier
# box), prints both values of every end-to-end metric with their relative
# difference, and fails if any differs by more than half its bound in
# BENCHMARK.json. The exact outputs (sim.digest, failure counts, store_mib,
# sampled_err_pct, paper_dev_pp) must be identical, and every run correct.
#
#   benchmarks/stability.sh [seed] [seconds]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-0}"
seconds="${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
target="${CARGO_TARGET_DIR:-benchmarks/target}"
CARGO_TARGET_DIR="$target" cargo build --release --quiet --manifest-path benchmarks/Cargo.toml
bench="$target/release/perfbench"
out="benchmarks/out"
mkdir -p "$out"

workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
reversed=$(echo "$workloads" | tr ' ' '\n' | tac | tr '\n' ' ')
for side in A B; do
    if [ "$side" = A ]; then order="$workloads"; else order="$reversed"; fi
    for w in $order; do
        echo "run $side $w" >&2
        # A failed check is reported in the table below, not by set -e.
        "$bench" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 > "$out/stability-$side-$w.txt" || true
    done
done

python3 - "$out" <<'EOF'
import json, sys
out = sys.argv[1]
bench = json.load(open("BENCHMARK.json"))
bad = 0
print(f'{"workload":18} {"metric":24} {"A":>12} {"B":>12} {"B vs A":>8} {"limit":>7}')
for w in (w["name"] for w in bench["workloads"]):
    a, b = (open(f"{out}/stability-{s}-{w}.txt").read().splitlines() for s in "AB")
    try:
        ja, jb = json.loads(a[-1]), json.loads(b[-1])
    except (IndexError, ValueError):
        print(f"{w}: a run printed no result")
        bad += 1
        continue
    names = ("sim.digest", "cells_", "store_mib", "sampled_err_pct", "paper_dev_pp")
    exact = lambda lines: [" ".join(l.split()) for l in lines if l.startswith(names)]
    if not (ja["correct"] and jb["correct"]):
        print(f"{w}: a check FAILED: " + "; ".join(l for l in a + b if l.startswith("FAILED")))
        bad += 1
    if exact(a) != exact(b):
        print(f"{w}: exact outputs DIFFER: {exact(a)} vs {exact(b)}")
        bad += 1
    else:
        print(f"{w}: identical in both: " + ", ".join(exact(a)))
    for m in bench["end_to_end"]:
        va, vb = (j["metrics"][m["name"]]["value"] for j in (ja, jb))
        diff, limit = (vb - va) / va, m["bound"] / 2
        flag = "" if abs(diff) <= limit else "  UNSTEADY"
        bad += bool(flag)
        print(f'{w:18} {m["name"]:24} {va:12.4f} {vb:12.4f} {diff:+8.2%} {limit:7.1%}{flag}')
sys.exit(1 if bad else 0)
EOF
