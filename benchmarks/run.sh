#!/bin/sh
# The one command: builds coopbench offline and runs all five workloads,
# untraced and traced, plus the per-layer table. Arguments are passed on,
# e.g. `./run.sh --seed 7`, `./run.sh --sets 2`, `./run.sh --smoke`.
set -eu
cd "$(dirname "$0")"
exec cargo run --release --offline --quiet -- "$@"
