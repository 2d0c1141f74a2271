#!/usr/bin/env bash
# Regenerates every committed benchmark and figure artifact:
#
#   corpus_bench  — engine × scenario-family × robot regression matrix
#                   over the seeded 30-scenario corpus → BENCH_corpus.json
#   figures       — every modelled paper figure at the scale EXPERIMENTS.md
#                   records (`all --tasks 5 --samples 3000`)
#                   → figures_output.txt
#
# Record headline numbers in EXPERIMENTS.md when they move. Both run
# their recorded configurations and take no flags. Wall time per
# workload and per layer, the serving layer included, comes from the
# separate `wallbench/` benchmark.
#
# Usage: scripts/bench.sh

set -euo pipefail
cd "$(dirname "$0")/.."

cargo run --release -q -p moped-bench --bin corpus_bench -- \
    --samples 900 --out BENCH_corpus.json

cargo run --release -q -p moped-bench --bin figures -- all --tasks 5 --samples 3000 \
    > figures_output.txt

echo "bench: OK (BENCH_corpus.json, figures_output.txt)"
