#!/usr/bin/env bash
# The full CI gate: formatting, the repolint static-analysis pass, release
# build, the test suite (plain and with the memsim `validate` invariant
# audits), and a warning-free clippy pass. Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== cargo fmt --check ==="
cargo fmt --check

echo "=== repolint (per-file lints + workspace semantic analysis) ==="
# The JSON report is written even when findings fail the gate, so CI can
# upload REPOLINT.json (git-ignored) as an artifact either way; any
# finding not in the ratcheting baseline fails the stage, and --ratchet
# fails it if any rule's pre-baseline total regresses above the committed
# repolint.ratchet (a missing or empty reference is itself an error). The
# reference holds only the report's rule_totals, so a green run leaves
# the tree clean; to ratchet down after a cleanup:
#   sed -n 's/.*\("rule_totals":{[^}]*}\).*/{\1}/p' REPOLINT.json > repolint.ratchet
if cargo repolint --json --ratchet repolint.ratchet > REPOLINT.json; then
    sed -n 's/.*"analysis_ms":\([0-9]*\).*/repolint clean — analysis took \1 ms, report at REPOLINT.json/p' REPOLINT.json
else
    echo "repolint found non-baseline findings or a per-rule ratchet regression (REPOLINT.json):"
    cargo repolint || true
    exit 1
fi

echo "=== cargo build --release --workspace ==="
# --workspace matters: the root manifest is both a package and a workspace,
# so a bare `cargo build` only covers the root package and never produces
# the bench binaries the stages below execute.
cargo build --release --workspace

echo "=== benchmarks/ (perfbench) builds and passes its tests against these crates ==="
# perfbench is a package of its own outside the workspace, so nothing above
# compiles it: a changed signature in memsim or core would otherwise break
# the benchmark the PR pipeline runs without any stage here noticing.
cargo build --release --offline --manifest-path benchmarks/Cargo.toml
cargo test -q --offline --manifest-path benchmarks/Cargo.toml

echo "=== trace-pipeline smoke bench (writes BENCH_trace.json) ==="
./target/release/bench_trace

echo "=== two-phase simulation smoke bench (writes BENCH_sim.json) ==="
# Besides the bit-identity and SimPoint-error gates, this enforces the
# per-kernel ns_per_event_ceilings committed in BENCH_sim.json: filtered
# replay costing more ns per miss event than its ceiling fails the stage
# (the ratchet that keeps per-request work from creeping back into the
# replay loop, whatever the kernel's cache hit rate).
./target/release/bench_sim

echo "=== artifact-store gate (fig07 grid, cold then warm disk, separate processes) ==="
# Two fresh processes over one store directory: the first populates it,
# the second must complete with zero regenerations, >=90% artifact hits,
# and byte-identical cell output (bit-identical SimStats across
# processes).
STORE_GATE_DIR="$(mktemp -d)"
trap 'rm -rf "$STORE_GATE_DIR"' EXIT
./target/release/store_gate "$STORE_GATE_DIR/store" "$STORE_GATE_DIR/cold.txt"
./target/release/store_gate "$STORE_GATE_DIR/store" "$STORE_GATE_DIR/warm.txt" \
    --expect "$STORE_GATE_DIR/cold.txt"

echo "=== cargo test -q --workspace ==="
cargo test -q --workspace

echo "=== cargo test -q --features validate (memsim invariant audits on) ==="
cargo test -q -p abft-memsim --features validate
cargo test -q --features validate --test campaign_determinism --test streaming_equivalence \
    --test filtered_equivalence --test simpoint_equivalence

echo "=== cargo clippy --workspace -- -D warnings ==="
cargo clippy --workspace -- -D warnings

echo "CI gate passed."
