#!/usr/bin/env bash
# The benchmark's one command: builds the package offline, then runs it.
#
#   benchmark/run.sh --workload <offline_build|serve_hot|serve_live|stream_mixed|all> \
#       [--seed N] [--graph-seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
#
# Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
# (default: benchmark/target); a run writes only beneath that directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

# Reported with every result; a checkout that is not a git repository has no
# commit to name.
BENCHMARK_RUSTC="$(rustc --version)"
BENCHMARK_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCHMARK_RUSTC BENCHMARK_COMMIT

exec "${CARGO_TARGET_DIR:-$here/target}/release/simrankpp-benchmark" "$@"
