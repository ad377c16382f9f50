#!/usr/bin/env bash
# The mutant scoreboard: apply each model mutant of scripts/mutants.tsv to a
# copy of this tree, run tier-1's tests on it, and say what killed it.
#
# Usage: scripts/mutants.sh WORKDIR [ID...]
#
# WORKDIR gets the copy (tree/, the tracked and untracked-but-not-ignored
# files as they are on disk), its build (target/), one log per run (logs/)
# and the scoreboard (scoreboard.tsv: id, verdict, seconds, the tests that
# failed). This repository is never edited. With no ID every mutant runs.
#
# Each run is `cargo test --no-fail-fast` over every crate, so every judge a
# mutant trips is recorded, not only the first. The unmutated copy runs
# first and must pass. A mutant's verdict:
#   judge     a test outside the pins failed
#   pin       only pins failed: the tests that compare against committed
#             bytes (the grid-free experiments' committed output and the
#             store checksum's pinned value) rather than judge the model
#   survived  every test passed
#   unbuilt   the mutant does not compile
# The drift gate and the store_gate sums are ci.sh stages, not tests, and
# are not run. A tier-1 run takes one to two minutes on 2 vCPUs, so this is
# a tool for a change to the model, not a CI stage.
set -euo pipefail
repo="$(cd "$(dirname "$0")/.." && pwd)"
work="${1:?usage: scripts/mutants.sh WORKDIR [ID...]}"
shift
mkdir -p "$work/logs"
work="$(cd "$work" && pwd)"
tree="$work/tree"
pins=(grid_free_experiments_reproduce_their_committed_output the_checksum_is_pinned_to_the_format_version)

if [ ! -d "$tree" ]; then
    mkdir "$tree"
    (cd "$repo" && git ls-files -z --cached --others --exclude-standard |
        while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
        tar --null -T - -cf -) | tar -xf - -C "$tree"
fi

# run NAME: tier-1's tests on the copy as it stands; prints the failed tests
# as `binary::test`, one a line, to logs/NAME.failed.
run() {
    local log="$work/logs/$1.log"
    (cd "$tree" && CARGO_TARGET_DIR="$work/target" timeout 1800 \
        cargo test --offline --no-fail-fast 2>&1) >"$log" || true
    awk '/^ *Running /    { bin = $NF; sub(/^\(.*\//, "", bin); sub(/-[0-9a-f]+\)$/, "", bin) }
         /^ *Doc-tests /  { bin = "doc:" $2 }
         /^test .* \.\.\. FAILED$/ { print bin "::" $2 }' "$log" >"$work/logs/$1.failed"
}

verdict() {
    local name="$1" judges
    if grep -q '^error: could not compile' "$work/logs/$name.log"; then
        echo unbuilt
        return
    fi
    judges="$(grep -vF "${pins[@]/#/-e}" "$work/logs/$name.failed" || true)"
    if [ -n "$judges" ]; then
        echo judge
    elif [ -s "$work/logs/$name.failed" ]; then
        echo pin
    else
        echo survived
    fi
}

echo "=== baseline (no mutant) ==="
run baseline
if [ "$(verdict baseline)" != survived ]; then
    echo "the unmutated copy fails tier-1 (logs/baseline.log):"
    cat "$work/logs/baseline.failed"
    exit 1
fi

board="$work/scoreboard.tsv"
: >"$board"
while IFS=$'\t' read -r id file expr what; do
    case "$id" in '' | '#'*) continue ;; esac
    if [ "$#" -gt 0 ] && ! printf '%s\n' "$@" | grep -qx -- "$id"; then
        continue
    fi
    echo "=== $id: $what ==="
    cp "$tree/$file" "$work/pristine"
    perl -0pi -e "$expr" "$tree/$file"
    if cmp -s "$tree/$file" "$work/pristine"; then
        echo "$id does not apply to $file"
        exit 1
    fi
    start=$SECONDS
    run "$id"
    cp "$work/pristine" "$tree/$file"
    v="$(verdict "$id")"
    killers="$(paste -sd' ' "$work/logs/$id.failed")"
    printf '%s\t%s\t%s\t%s\n' "$id" "$v" "$((SECONDS - start))" "$killers" | tee -a "$board"
done <"$repo/scripts/mutants.tsv"
