#!/usr/bin/env bash
# A/A check: two sets of five `run --all` of one build, alternating
# A, B, A, B, ... (A on seed 1, B on seed 2), then `compare` A against B.
# Both sides are the same code, so every row must read "within bound" (or
# "better", when the B runs happened to be faster by more than the spread);
# the printed table is the one pasted into README.md. Takes about 15 min.
#
#   benchmark/aa.sh [OUT_DIR]        (default benchmark/out/aa)
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path benchmark/Cargo.toml
exe="${CARGO_TARGET_DIR:-benchmark/target}/release/dd-benchmark"
out="${1:-benchmark/out/aa}"
for i in 1 2 3 4 5; do
    "$exe" run --all --seed 1 --out "$out/a$i"
    "$exe" run --all --seed 2 --out "$out/b$i"
done
"$exe" compare "$out"/a?/run.json --vs "$out"/b?/run.json
