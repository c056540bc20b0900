#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json `command`): builds the
# benchmark package from source, then runs the timed binary (--trace 0,
# end-to-end metrics) or the traced one (--trace 1, per-layer metrics)
# with the arguments it was given. Run it from anywhere; it works from the
# root of the checkout that contains it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
# Build chatter goes to stderr: stdout ends with the result line.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
bin=ofc-benchmark
prev=
for arg in "$@"; do
    if [[ $prev == --trace && $arg == 1 ]]; then
        bin=ofc-benchmark-traced
    fi
    prev=$arg
done
exec "$CARGO_TARGET_DIR/release/$bin" "$@"
