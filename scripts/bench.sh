#!/usr/bin/env bash
# Regenerates every committed benchmark and figure artifact:
#
#   corpus_bench  — engine × scenario-family × robot regression matrix
#                   over the seeded 30-scenario corpus → BENCH_corpus.json
#   service_bench — open-loop Poisson-arrival load generator: worker-pool
#                   throughput and latency/queue-wait percentiles at
#                   1/4/8/16/32 workers → BENCH_service.json
#   figures       — every modelled paper figure at the scale EXPERIMENTS.md
#                   records (`all --tasks 5 --samples 3000`)
#                   → figures_output.txt
#
# Record headline numbers in EXPERIMENTS.md when they move. Extra flags
# are passed to service_bench only; corpus_bench and figures run their
# recorded configurations. Wall time per workload and per layer comes
# from the separate `wallbench/` benchmark.
#
# Usage: scripts/bench.sh [--requests N] [--samples N] [--rate R] [--seed N]

set -euo pipefail
cd "$(dirname "$0")/.."

cargo run --release -q -p moped-bench --bin corpus_bench -- \
    --samples 900 --out BENCH_corpus.json

cargo run --release -q -p moped-bench --bin service_bench -- \
    --out BENCH_service.json "$@"

cargo run --release -q -p moped-bench --bin figures -- all --tasks 5 --samples 3000 \
    > figures_output.txt

echo "bench: OK (BENCH_corpus.json, BENCH_service.json, figures_output.txt)"
