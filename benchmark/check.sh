#!/bin/sh
# Repeatability self-check: runs the untraced pass twice and fails
# unless every end-to-end metric of every workload agrees within its
# bound, and model_cost_per_op, fail_ratio and the digest over every
# exact count agree exactly. About five minutes at the default ten
# seconds per workload. Run it from anywhere; pass `--seconds N` or
# `--seed N` to override the defaults.
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- repeat "$@"
