#!/usr/bin/env bash
# Run-to-run spread of one workload: runs the benchmark several times and
# prints each end-to-end metric's median, quartiles and quartile spread
# (as a share of the median) over the runs.
#
#   bash benchmark/spread.sh <workload> <runs> [seed] [seconds]
#
# With a seed, every run uses it; without one, run i uses seed i.
# `seconds` defaults to BENCHMARK.json's run_seconds.
set -euo pipefail
cd "$(dirname "$0")/.."

workload=${1:?usage: spread.sh <workload> <runs> [seed] [seconds]}
runs=${2:?usage: spread.sh <workload> <runs> [seed] [seconds]}
seed=${3:-}
seconds=${4:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}

cargo build --quiet --release --offline --locked --manifest-path benchmark/Cargo.toml
bin=${CARGO_TARGET_DIR:-benchmark/target}/release/svt-benchmark

for i in $(seq 1 "$runs"); do
    "$bin" --workload "$workload" --seed "${seed:-$i}" --seconds "$seconds" | tail -n 1
done | tee /dev/stderr | "$bin" summarize
