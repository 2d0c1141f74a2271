#!/usr/bin/env bash
# Repository verification: the tier-1 gate plus formatting.
#
# Everything builds offline — rand/proptest/criterion are vendored
# API-compatible subsets under vendor/ (see DESIGN.md §2) — so this
# script needs no network access.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q =="
cargo test -q

echo "== cargo test -q --workspace =="
cargo test -q --workspace

echo "== property tests: each registered once =="
# `proptest!` forwards the `#[test]` written on each property and adds
# none of its own, so a property registered twice would run twice. List
# every test target that holds a property suite and fail if it lists no
# test or lists a name more than once.
prop_targets="proptest:--lib"
for f in $(grep -l 'proptest!' crates/*/tests/*.rs); do
    pkg=$(sed -n 's/^name *= *"\(.*\)"/\1/p' "${f%%/tests/*}/Cargo.toml" | head -n 1)
    prop_targets="$prop_targets $pkg:--test=$(basename "$f" .rs)"
done
for t in $prop_targets; do
    names=$(cargo test -q --offline -p "${t%%:*}" "${t#*:}" -- --list | sed -n 's/: test$//p')
    dups=$(printf '%s\n' "$names" | sort | uniq -d)
    if [ -z "$names" ] || [ -n "$dups" ]; then
        echo "verify: FAIL — ${t%%:*} ${t#*:} lists no test or repeats:" $dups >&2
        exit 1
    fi
done
echo "each property test is listed once in:" $prop_targets

echo "== examples =="
# `cargo test` compiles the examples but never runs them. Run every
# `[[example]]` target named in Cargo.toml and fail on a non-zero exit.
for ex in $(awk '/^\[\[example\]\]/ { ex = 1; next }
                 ex && /^name *=/ { gsub(/"/, "", $3); print $3; ex = 0 }' Cargo.toml); do
    echo "-- example $ex"
    if ! cargo run --release -q --offline --example "$ex" > /dev/null; then
        echo "verify: FAIL — example $ex exited non-zero" >&2
        exit 1
    fi
done

echo "== moped-lint --deny warnings (budget: ${LINT_BUDGET_S:=10}s) =="
# The lint gate must stay cheap enough to run on every PR: fail the
# verify run outright if the workspace sweep (token rules + structural
# passes) blows the wall-time budget. The binary is prebuilt first so
# the budget measures analysis, not compilation.
cargo build -q -p moped-lint
lint_start=$(date +%s%N)
cargo run -q -p moped-lint -- --deny warnings
lint_end=$(date +%s%N)
lint_ms=$(( (lint_end - lint_start) / 1000000 ))
echo "lint wall time: ${lint_ms} ms"
if [ "$lint_ms" -gt $(( LINT_BUDGET_S * 1000 )) ]; then
    echo "verify: FAIL — workspace lint took ${lint_ms} ms (> ${LINT_BUDGET_S}s budget)" >&2
    exit 1
fi

echo "== cargo test -q -p moped-lint =="
cargo test -q -p moped-lint

echo "== corpus_bench --smoke (autotuning gate) =="
# The binary enforces the smoke acceptance gate: the auto-tuned column
# (per-class calibrated profiles, probe budget 160) must solve at least
# as many smoke scenarios as the static MOPED RRT* stack.
cargo run --release -q -p moped-bench --bin corpus_bench -- \
    --smoke --out target/corpus_smoke.json

echo "== corpus_bench full run (corpus-artifact freshness gate) =="
# Every corpus cell and the calibrated `auto` profile block are a pure
# function of the seeds; only the wall-clock fields vary between runs.
# A rerun must therefore match the committed BENCH_corpus.json once
# `wall_ms` and `probe_wall_ms` are stripped from both (about 3 s).
cargo run --release -q -p moped-bench --bin corpus_bench -- \
    --samples 900 --out target/corpus_full.json > /dev/null
strip_wall() { sed -E 's/"(probe_)?wall_ms":[0-9.e+-]+//g' "$1"; }
if ! diff -q <(strip_wall BENCH_corpus.json) <(strip_wall target/corpus_full.json) > /dev/null; then
    echo "verify: FAIL — BENCH_corpus.json is stale. To re-pin after an intended" \
        "change, copy target/corpus_full.json over BENCH_corpus.json (or rerun" \
        "scripts/bench.sh) and record the moved numbers in EXPERIMENTS.md." >&2
    exit 1
fi

echo "== service_bench --smoke (scaling gate) =="
# Tiny open-loop run; the binary itself enforces the gate (4-worker
# throughput >= 1.5x 1-worker on >=4-cpu machines, a no-collapse floor
# on smaller ones) and exits non-zero on failure.
cargo run --release -q -p moped-bench --bin service_bench -- \
    --smoke --out target/service_smoke.json

echo "== nn_replay --smoke (neighbor-index replay gate) =="
# Records one drone-sparse plan's neighbor-index call stream and replays
# it alone into SI-MBR V4, exact SI-MBR, kd-tree and linear indexes,
# printing ns per call and per node visit. Every backend's nearest is
# exact, so the binary exits non-zero if any replayed nearest distance
# differs from the recorded one by a single bit, or if an SI-MBR backend
# returns a different nearest id (the planner's tree depends on it).
cargo run --release -q -p moped-bench --bin nn_replay -- --smoke

echo "== motion_replay --smoke (motion-check replay gate) =="
# Records one drone-sparse plan's and one xarm7 plan's motion-check
# streams and replays each through TwoStageChecker::motion_free and
# through a per-pose config_free reference, in alternating passes,
# printing ns per motion and the fraction the swept R-tree pass resolves.
# The binary exits non-zero if any motion's verdict or collision ledger
# differs from the reference's.
cargo run --release -q -p moped-bench --bin motion_replay -- --smoke

echo "== figures smoke (modelled-figure gate) =="
# Every modelled figure (op ledgers, the hardware model, success counts,
# path costs) is a pure function of its seeds, so the small-scale run must
# reproduce scripts/figures_smoke.txt byte for byte. The Fig 16 (bottom)
# table is host wall-clock time, so it is stripped before the diff. To
# re-pin after an intended change, rerun the two commands below and copy
# target/figures_smoke.txt over scripts/figures_smoke.txt.
cargo run --release -q -p moped-bench --bin figures -- all --tasks 2 --samples 500 \
    | sed '/^=== Fig 16 (bottom)/,/^$/d' > target/figures_smoke.txt
if ! diff -u scripts/figures_smoke.txt target/figures_smoke.txt; then
    echo "verify: FAIL — modelled figures differ from scripts/figures_smoke.txt" >&2
    exit 1
fi

echo "== wallbench: unit tests =="
cargo test -q --offline --manifest-path wallbench/Cargo.toml

echo "== wallbench: traced arm-clutter and drone-sparse smokes (kernel-replay gate) =="
# The traced run replays every recorded pose check through the kernels
# and requires the replayed R-tree and SAT counts to equal the live
# ledgers; it also checks each returned path against the oracle. Its
# last stdout line is a JSON object whose "correct" and "failed" fields
# carry those verdicts. drone-sparse is the workload whose motions the
# swept R-tree pass settles without per-pose checks.
for wb_workload in arm-clutter drone-sparse; do
    wb_last=$(cargo run --release -q --offline --manifest-path wallbench/Cargo.toml -- \
        --workload "$wb_workload" --seed 1 --seconds 5 --trace 1 | tail -n 1)
    case "$wb_last" in
        *'"correct":true'*'"failed":0,'*) echo "wallbench $wb_workload smoke: correct, no failures" ;;
        *)
            echo "verify: FAIL — wallbench $wb_workload smoke reported: ${wb_last:0:200}" >&2
            exit 1
            ;;
    esac
done

echo "== wallbench: frozen lock file =="
# wallbench/ is the frozen benchmark: building it must not rewrite its
# lock file. A dependency edit in any workspace crate it builds (a new,
# moved or dropped [dependencies] entry) changes the lock and fails here.
if ! git diff --quiet -- wallbench/Cargo.lock; then
    echo "verify: FAIL — building wallbench rewrote wallbench/Cargo.lock; a" \
        "dependency edit in a crate wallbench builds changed its lock, and" \
        "nothing under wallbench/ may change. Revert the dependency edit." >&2
    git diff --stat -- wallbench/Cargo.lock >&2
    exit 1
fi

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo doc (rustdoc warnings are errors) =="
# Dangling intra-doc links to renamed or deleted items fail here. The
# vendored stand-ins for third-party crates are excluded: their docs are
# not this project's API.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --exclude proptest --exclude rand \
    --exclude criterion --no-deps --offline

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "verify: OK"
