#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it. See README.md.
#
#   benchmark/run.sh [--seed N]            every workload, both passes (~60 s)
#   benchmark/run.sh --agree [--seed N]    the above twice, then compare
#   benchmark/run.sh compare A.json B.json two result files against the bounds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one pass of one workload
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# The build is timed and reported on its own: it is not part of the
# benchmark's time budget.
start_ns=$(date +%s%N)
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
elapsed_ms=$(( ($(date +%s%N) - start_ns) / 1000000 ))
printf 'build: %d.%03d s\n' $((elapsed_ms / 1000)) $((elapsed_ms % 1000)) >&2

exec "${CARGO_TARGET_DIR:-benchmark/target}/release/bench" "$@"
