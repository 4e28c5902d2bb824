#!/usr/bin/env bash
# The benchmark's one entry point: build the real `pastis` binary and the
# harness from source (offline), then hand every argument to the harness.
#
#   benchmark/run.sh                      all workloads, every metric
#   benchmark/run.sh --workload xd_exact  one workload
#   benchmark/run.sh --seed 11            another dataset
#   benchmark/run.sh --check-repeat       the suite twice, compared
#
# The driver's form, one run with the result object as the last line:
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."

if [ ! -f Cargo.toml ] || [ ! -d crates/pastis ]; then
    echo "benchmark/run.sh: no pastis source tree at $(pwd); nothing to measure" >&2
    exit 1
fi

# Cargo's own chatter goes to stderr; stdout stays the harness's.
cargo build --release --offline --quiet -p pastis --bin pastis
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

exec "${CARGO_TARGET_DIR:-benchmark/target}/release/pastis-benchmark" \
    --pastis-bin "${CARGO_TARGET_DIR:-target}/release/pastis" "$@"
