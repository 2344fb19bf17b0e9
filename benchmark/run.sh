#!/usr/bin/env bash
# The repo's benchmark, one command:
#
#   benchmark/run.sh [--seed S] [--reps N] [--only WORKLOAD] [--aa]
#       every workload: end-to-end + per-layer metrics by name with units
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       the driver's contract (BENCHMARK.json): one workload, one JSON
#       object as the last line of stdout
#   benchmark/run.sh --list
#       the workload and metric tables
#
# Builds `pcgraph` from the root workspace and the harness from this
# package (offline, release), then hands over to the harness. Inputs,
# traces and reports live under benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# The driver sets CARGO_TARGET_DIR (relative to its checkout); alone, the
# program builds where `cargo build --release` puts it and the harness
# under target/benchmark.
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    case "$CARGO_TARGET_DIR" in
        /*) target="$CARGO_TARGET_DIR" ;;
        *) target="$PWD/$CARGO_TARGET_DIR" ;;
    esac
else
    target="$root/target"
fi
unset CARGO_TARGET_DIR

# Build chatter goes to stderr: stdout carries results only.
cargo build --release --offline --manifest-path "$root/Cargo.toml" \
    --bin pcgraph --target-dir "$target" 1>&2
cargo build --release --offline --manifest-path "$here/Cargo.toml" \
    --target-dir "$target/benchmark" 1>&2

export BENCH_RUSTC="$(rustc --version)"
export BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"

exec "$target/benchmark/release/pc-benchmark" \
    --pcgraph "$target/release/pcgraph" \
    --out "$here/out" \
    --manifest "$root/BENCHMARK.json" \
    "$@"
