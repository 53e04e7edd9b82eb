#!/usr/bin/env bash
# The benchmark's one command (see ../BENCHMARK.json):
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Builds the harness from source (offline; a no-op once built) and runs the
# untraced binary for `--trace 0` (end-to-end metrics) or the traced binary
# for `--trace 1` (per-layer metrics). The last line of standard output is
# the JSON result. Exits non-zero without a result when the build fails,
# as it does in a directory that lacks the program's crates.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

bin=nbody-benchmark
prev=
for arg in "$@"; do
    if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then
        bin=nbody-benchmark-traced
    fi
    prev="$arg"
done

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins >&2

# Cargo resolves a relative CARGO_TARGET_DIR against the working directory.
target="${CARGO_TARGET_DIR:-$here/target}"
exec "$target/release/$bin" --out "$here/out" "$@"
