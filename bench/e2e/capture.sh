#!/usr/bin/env bash
# Regenerate the committed capture bench/e2e/BENCH_e2e.json (per workload:
# five untraced runs at seeds 1-5 and one traced run at the default seed)
# and bench/e2e/expected_digests.txt. Run from the repository root on an
# otherwise idle host; it takes about ten minutes.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}/e2e"
out="$build/capture"
rm -rf "$out"
mkdir -p "$out"
for w in hopper_async arcade_impact_par hopper_faulty serve_steady; do
  for seed in 1 2 3 4 5; do
    bash bench/e2e/run.sh --workload "$w" --seed "$seed" \
      --json "$out/$w-$seed.json" >> "$out/stdout.txt"
  done
  bash bench/e2e/run.sh --workload "$w" --trace --json "$out/$w-trace.json" \
    >> "$out/stdout.txt"
done

# Every result file holds the schema, header and "runs" opener on lines
# 1-3 and, for a single-workload run, its one run object on line 4.
files=("$out"/*.json)
{
  head -n 3 "${files[0]}"
  for f in "${files[@]}"; do sed -n 4p "$f"; done | sed '$!s/$/,/'
  echo ']}'
} > bench/e2e/BENCH_e2e.json

{
  echo "# <workload> <seed> <digest of the repetition at that seed>;"
  echo "# written by capture.sh. A mismatch is reported, never failed."
  awk '/^digest /{sub("seed=", "", $3); sub("digest=", "", $4); print $2, $3, $4}' \
    "$out/stdout.txt" | sort -u
} > bench/e2e/expected_digests.txt
