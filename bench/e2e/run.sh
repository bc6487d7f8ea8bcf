#!/usr/bin/env bash
# Build e2e_bench from this checkout (Release, the repository's default
# options) and run it with the given arguments. Run from the repository
# root; build output goes to stderr so the bench's last stdout line stays
# its JSON result. The build directory is $CARGO_TARGET_DIR/e2e when that
# variable names one, else .bench_build/e2e.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}/e2e"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S bench/e2e -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
jobs=$(nproc)
cmake --build "$build" --target e2e_bench -j "$(( jobs < 4 ? jobs : 4 ))" >&2
exec "$build/e2e_bench" "$@"
