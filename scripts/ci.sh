#!/usr/bin/env bash
# The full CI gate: formatting, a warning-free clippy pass (the determinism,
# panic and print lints), release build, the reproduction-output drift gate,
# the artifact-store gate, the examples, the test suite (one run,
# every invariant check on, the replay allocation budget and the dead pub
# item check among it) and the pinned referees by name, warning-free
# rustdoc, and a clean working tree at the end.
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== cargo fmt --check ==="
cargo fmt --check

echo "=== cargo clippy --all-targets -- -D warnings ==="
# The determinism, panic and print gates: clippy.toml bans the wall clock
# and the hash containers everywhere, the root manifest's [workspace.lints]
# denies unwrap / expect / panic in every package outside test code, abft
# denies exact float compares, and memsim, ecc, dgms and faultsim deny
# printing. A site that must stay carries a reasoned `#[expect]`; one
# that no longer fires is an error here. --all-targets: tests, examples
# and the `repro` binary are linted too, in every crate (the root
# manifest's `default-members` takes them all in). First after fmt, so a
# banned call fails in about a minute.
cargo clippy --all-targets -- -D warnings

echo "=== cargo build --release ==="
# The root manifest's `default-members` takes in every crate, so this
# builds the `repro` and `store_gate` binaries the stages below execute.
cargo build --release

echo "=== benchmarks/ (perfbench) builds, passes its tests and runs a cold grid, a sampled paper-scale run and a warm-store one against these crates ==="
# perfbench is a package of its own outside the workspace, so nothing above
# compiles it: a changed signature in memsim or core would otherwise break
# the benchmark the PR pipeline runs without any stage here noticing.
cargo build --release --offline --manifest-path benchmarks/Cargo.toml
cargo test -q --offline --manifest-path benchmarks/Cargo.toml
# And runs: a cold rep pins what it must do (`cache_builds == 4`,
# `filter_builds == 4`, `store_writes == 8`) and checks every cell, so a
# change that trips a pin fails here and not first in the PR pipeline. Five
# reps, about ten seconds; the timings are not read.
cargo run --release -q --offline --manifest-path benchmarks/Cargo.toml -- \
    --workload grid_cold --seconds 1 >/dev/null
# And the workload perf claims are made on: about 15 s, most of it the
# set-up's six exact replays of paper-scale FT-CG. Every rep checks each
# sampled cell within 2% of exact replay and that the selection covers the
# stream, so a scan or stall-step change that moves bits fails here.
cargo run --release -q --offline --manifest-path benchmarks/Cargo.toml -- \
    --workload paper_sampled --seconds 1 >/dev/null
# And the one workload that reads a `.simpoint` blob back: a fresh process
# over a store its set-up populated must load the selection and its sample
# with no build and no miss, so a change to the blob formats — a record's
# gap, a cursor's track — that the writer and the reader disagree on fails
# here. About 3 s.
cargo run --release -q --offline --manifest-path benchmarks/Cargo.toml -- \
    --workload paper_warm_store --seconds 1 >/dev/null

echo "=== drift gate (repro all vs the committed reproduction-output/) ==="
# One process regenerates every experiment `repro list` names; each must
# match the committed <name>.txt byte for byte. To accept a deliberate
# change: scripts/reproduce_all.sh, then commit the files.
CI_TMP="$(mktemp -d)"
trap 'rm -rf "$CI_TMP"' EXIT
# check_drift DIR NAME...: reproduction-output/NAME.txt equals DIR/NAME.txt.
check_drift() {
    local dir="$1" name drifted=()
    shift
    for name in "$@"; do
        if ! cmp -s "reproduction-output/$name.txt" "$dir/$name.txt"; then
            drifted+=("reproduction-output/$name.txt")
        fi
    done
    if [ "${#drifted[@]}" -ne 0 ]; then
        echo "committed outputs differ from what the code prints ($dir):"
        printf '  %s\n' "${drifted[@]}"
        exit 1
    fi
}
# check_once ERR: no two `[campaign N/M]` progress lines of the run whose
# stderr is ERR name the same kernel / strategy / config tag. `repro`
# simulates each grid once per process and the experiments share the
# basic grid, so a later experiment that simulates a grid again fails here
# by name.
check_once() {
    local repeats
    repeats="$(sed -n 's/^\[campaign [0-9]*\/[0-9]*\] \(.*\) ([0-9.]*s;.*/\1/p' "$1" | sort | uniq -d)"
    if [ -n "$repeats" ]; then
        echo "cells simulated more than once in one process ($1):"
        printf '  %s\n' "$repeats"
        exit 1
    fi
}
./target/release/repro all --out "$CI_TMP/repro" 2>"$CI_TMP/repro.err" ||
    { cat "$CI_TMP/repro.err"; exit 1; }
check_drift "$CI_TMP/repro" $(./target/release/repro list | awk '{ print $1 }')
check_once "$CI_TMP/repro.err"

echo "=== drift gate, one worker (the campaign experiments as whole-row tasks) ==="
# A campaign task replays ceil(strategies / workers) strategies of a row
# side by side (campaign::run_grid), so the run above cut the rows by this
# machine's core count. On one worker a task is a whole row — six lanes for
# the basic grid — and the ten experiments that read campaigns must print
# the same committed bytes, as must `claims`, which judges the numbers they
# recorded: a lane split that moves a digit of a figure fails here by name.
campaigns=(
    tab04_access_classification fig05_memory_energy fig06_system_energy fig07_performance
    fig08_weak_scaling fig09_strong_scaling fig10_dgms_comparison
    ablation_row_policy ablation_mlp ablation_device_width claims
)
ABFT_THREADS=1 ./target/release/repro "${campaigns[@]}" --out "$CI_TMP/repro-1-worker" \
    2>"$CI_TMP/repro-1-worker.err" || { cat "$CI_TMP/repro-1-worker.err"; exit 1; }
check_drift "$CI_TMP/repro-1-worker" "${campaigns[@]}"
check_once "$CI_TMP/repro-1-worker.err"

echo "=== artifact-store gate (fig07 grid, cold then warm disk, separate processes) ==="
# Fresh processes over one store directory: the first populates it with
# the blobs scripts/store_blobs.sha256 names, the
# second must complete with zero regenerations, no store miss, >=90%
# artifact hits, and byte-identical cell output (bit-identical SimStats
# across processes). The grid is phase-sampled, and a sampled cell reads
# its `.simpoint` blob and nothing else: the third run, after the traces
# and miss streams are deleted, must pass the same checks.
./target/release/store_gate "$CI_TMP/store" "$CI_TMP/cold.txt"
# The cold run's twelve blobs, byte for byte: a change to what a blob holds
# or to how it is framed and written fails here by name, even where every
# load would still succeed. To accept a deliberate format change (with its
# FORMAT_VERSION bump), commit the sums this line prints in the diff.
(cd "$CI_TMP/store" && sha256sum -- * | LC_ALL=C sort -k2) | diff - scripts/store_blobs.sha256
./target/release/store_gate "$CI_TMP/store" "$CI_TMP/warm.txt" --expect "$CI_TMP/cold.txt"
rm "$CI_TMP/store"/*.miss "$CI_TMP/store"/*.trace
./target/release/store_gate "$CI_TMP/store" "$CI_TMP/sample.txt" --expect "$CI_TMP/cold.txt"

echo "=== the four examples run ==="
# They are compiled and linted above, and tests/dead_pub.rs counts them as
# reachers (`Injector::plan`, `scheme_of`): a reacher that can panic unseen
# is not a gate.
for example in quickstart fault_drill resilient_solver datacenter_policy; do
    cargo run --release -q --offline --example "$example" >/dev/null
done

echo "=== cargo test -q (every crate's tests, every invariant check on) ==="
# One run, one build configuration: the test profile (opt-level 1, debug
# assertions on) asserts each artifact's `check` where the artifact is
# built and the DRAM / controller audits where their state moves
# (DESIGN.md §3.12); perfbench's `cargo test` above (dev profile at
# opt-level 3, debug assertions on) runs them too.
cargo test -q

echo "=== the pinned referees are still there, by name ==="
# Some tests are the independent references a fast or shared path is
# pinned to. In memsim: the reference machine, tests/reference_machine.rs,
# which models the node again from the public API alone —
# `the_machine_is_the_reference_machine_bit_for_bit` referees the cache
# walk, the thread clock, the miss-record decoder, the range registers,
# the replay step, the sampled fold and every lane of a row, through every
# input form; `the_device_serves_each_request_as_the_reference_device`
# referees the DRAM device request by request, arrivals running backwards
# and landing on refresh edges among them. The machine's parts
# (tests/reference/mod.rs) are included by memsim's unit tests too, where
# `walk_reference::` judges the walker on four source forms and
# `Cache::access` outcome for outcome, `byte_records_decode_as_the_two_word_records`
# the miss-record decoder and a resume at every event, and
# `every_lane_is_reference_replay_bit_for_bit` each lane of a row on exact
# and sampled input. Then the refresh-free
# window swept cycle by cycle, and `validate` refusing DRAM timings that
# are not whole core cycles, `reference_scan` (the SimPoint fingerprint by
# its definition, event by event), a resume at every record of three
# reset intervals, the round trip of every miss-record header code on both sides of a
# reset point, the store's refusal of malformed headers and of damaged
# payloads, and its eviction of version-6 blobs written byte for byte as
# version 6 wrote them, the proptest that pins every lane of a
# row replay to the simulation it would be alone and the one that holds the
# packed builder's sweep-level emission to line-by-line emission. In ecc,
# the census that pins x4 chipkill's decode of 2-, 3- and 4-chip errors; in
# abft, the FT-Cholesky run held to plain `cholesky_blocked`, and the
# detection rule's judges: tests/abft_detection.rs (single-bit flips at
# any scale, a NaN in every kernel, FT-HPL's reports acted on) and
# crates/abft/tests/clean_runs.rs (clean runs from n = 96 to 768). The only
# allocation gate: tests/alloc_budget.rs's six tests, three of which hold
# every replay path to the same allocation count at N and 2N events, and
# three the filter (store-less and store-attached) and a blob write to the
# memory they may hold. The DRAM model's arithmetic judges: the nine
# closed-form micro-traces of tests/dram_closed_form.rs, and
# tests/metamorphic.rs's three relations (no stall, no difference in
# cycles; no ABFT, no relaxation; doubled burst and activation energy,
# doubled dynamic energy and nothing else). FT-HPL's multiplier check
# against its broadcast archive. The dead pub item gate,
# tests/dead_pub.rs's `no_dead_pub_items`, the claims ledger's judge,
# crates/bench/tests/claims.rs's `every_claim_holds_or_misses_as_the_ledger_says`
# (it runs `repro claims`), and
# tests/lint_scope.rs's guard that the test build keeps debug assertions
# on, and tests/doc_paths.rs's check that every `.rs` file the docs name
# exists. They ran in the stage above and are listed here by name, so that a
# rename cannot silently drop them.
listed="$(cargo test -q -- --list 2>/dev/null)"
for pinned in the_machine_is_the_reference_machine_bit_for_bit \
    the_device_serves_each_request_as_the_reference_device \
    walk_reference::walker_matches_the_stamp_lru_carry_bump_reference \
    walk_reference::recency_ordered_sets_match_stamp_lru_outcome_for_outcome \
    miss_reference::byte_records_decode_as_the_two_word_records \
    every_lane_is_reference_replay_bit_for_bit \
    every_lane_is_the_simulation_it_would_be_alone \
    sweep_emission_packs_the_words_line_emission_packs reference_scan \
    a_resume_at_every_record_of_three_reset_intervals_decodes_the_tail \
    every_header_code_round_trips_on_both_sides_of_a_reset_point \
    a_well_checksummed_but_inconsistent_miss_stream_is_evicted \
    payload_damage_under_a_matching_checksum_never_panics \
    a_version_6_miss_blob_under_a_current_name_is_evicted_and_rebuilt \
    a_version_6_simpoint_blob_under_a_current_name_is_evicted_and_rebuilt \
    chipkill::tests::multi_chip_census_is_pinned \
    cholesky::tests::injected_error_in_trailing_matrix_is_corrected \
    miss_stream_replay_allocates_flat source_replay_allocates_flat sampled_replay_allocates_flat \
    a_filter_pass_that_generates_holds_no_more_than_a_walk_of_a_built_trace \
    a_filter_pass_with_a_store_holds_no_trace \
    a_blob_is_written_through_a_fixed_buffer no_dead_pub_items \
    every_claim_holds_or_misses_as_the_ledger_says \
    most_single_bit_flips_are_detected_at_any_scale a_nan_fails_the_encoded_checksums \
    a_nan_in_ft_dgemm_is_restored_where_row_and_column_meet_or_a_report_names_it \
    a_nan_in_ft_cholesky_is_restored_from_a_report_and_flagged_otherwise \
    a_nan_in_ft_cg_is_restored_from_a_report_and_flagged_otherwise a_nan_in_ft_hpl_is_flagged \
    clean_runs_up_to_n_192_trip_no_check clean_runs_at_n_384_trip_no_check \
    clean_runs_at_n_768_trip_no_check \
    refresh_free_window_never_hides_a_stall dram_timings_off_the_core_clock_are_refused \
    reads_of_one_open_row_activate_once_and_hit_after a_chipkill_read_holds_its_partner_channel \
    two_rows_ping_ponging_in_one_bank_pay_a_conflict_every_access \
    the_closed_page_policy_never_hits \
    a_stream_over_four_refresh_intervals_meets_exactly_their_blackouts \
    idle_ranks_draw_power_down_and_ecc_chips_stay_down_without_ecc \
    a_fine_grained_secded_read_busies_a_quarter_rank_for_a_quarter_burst \
    a_queued_read_keeps_its_rank_busy_for_its_service_not_its_wait \
    one_demand_miss_stalls_the_core_for_its_latency_times_the_stall_factor \
    without_stalls_every_strategy_runs_the_same_cycles \
    without_abft_a_partial_strategy_is_its_whole_baseline \
    a_flipped_ft_hpl_multiplier_is_restored_from_the_broadcast_archive \
    a_reported_ft_hpl_error_is_restored_where_the_report_names_it \
    doubled_burst_and_activation_energy_doubles_dynamic_energy_and_nothing_else \
    the_test_build_keeps_debug_assertions_on every_rust_file_the_docs_name_exists; do
    grep -Fq -- "$pinned" <<<"$listed" || { echo "no test is named $pinned"; exit 1; }
done

echo "=== cargo doc --no-deps, warnings denied ==="
# A doc comment that links to a deleted, renamed or private item is a
# rustdoc warning and nothing else: no build, test or clippy stage sees it.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline

echo "=== the run left the tree clean ==="
# Every stage above writes only to ignored paths or a temp dir; a tracked
# file rewritten by a green run would be committed by the next `git add -A`.
if [ -n "$(git status --porcelain)" ]; then
    echo "ci.sh left the working tree dirty (or started from uncommitted changes):"
    git status --porcelain
    exit 1
fi

echo "CI gate passed."
