#!/usr/bin/env bash
# The one command: every workload (7 timed passes + 1 traced pass), the layer
# probes, every check; prints every metric by name with its unit and writes
# benchmark/out/results.json and one span file per workload.
#
#   benchmark/run.sh [--seed N] [--quick]
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- all "$@"
