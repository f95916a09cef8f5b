#!/usr/bin/env bash
# Output check for a change to the `paper` entries (ROADMAP 6(d)).
#
#   crates/bench/paper_diff.sh OLD NEW ENTRY...
#   crates/bench/paper_diff.sh --recorded NEW ENTRY...
#
# OLD and NEW are each a git revision of this repository (exported with
# `git archive` into a work directory and built there) or the path of a
# checkout (built in place, into its own `target/`). Each side runs
# each entry with one `DD_BENCH_OUT` (the same path on both sides; each
# side's files are moved to `out-old/` or `out-new/` afterwards), and the
# paths an entry prints are rewritten to `bench_results/`, the
# `DD_BENCH_OUT` of the committed recordings. With `--recorded` the old
# side is not run: it is NEW's committed recording of each entry,
# `bench_results/ENTRY.txt`. The two outputs are masked with the documented
# `sed` (decimals → X, runs of `#` → #, percentages → P%, runs of spaces →
# one, since a column's padding follows the width of the masked number) and
# diffed, entry by entry. The work directory is a fresh `mktemp -d`,
# printed at the end; it keeps both raw outputs for a closer look.
# Exit status: 0 when every masked diff is empty, 1 otherwise.
set -euo pipefail

if [ "$#" -lt 3 ]; then
    echo "usage: $0 OLD NEW ENTRY... | $0 --recorded NEW ENTRY..." >&2
    exit 2
fi
old=$1
new=$2
shift 2
sides="old new"
[ "$old" = --recorded ] && sides=new
repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
work=$(mktemp -d)

# The source tree of one side: the given checkout, or the revision exported.
tree_of() {
    local side=$1 spec=$2
    if [ -d "$spec" ]; then
        (cd "$spec" && pwd)
    else
        local dir=$work/src-$side
        rm -rf "$dir"
        mkdir -p "$dir"
        git -C "$repo" archive "$spec" | tar -x -C "$dir"
        echo "$dir"
    fi
}

mask() {
    sed -E 's/-?[0-9]+\.[0-9]+(e-?[0-9]+)?/X/g; s/#+/#/g; s/[0-9]+%/P%/g; s/ +/ /g'
}

status=0
for side in $sides; do
    spec=$old
    [ "$side" = new ] && spec=$new
    tree=$(tree_of "$side" "$spec")
    echo "== $side: $spec ($tree)" >&2
    (cd "$tree" && CARGO_TARGET_DIR=$tree/target \
        cargo build --release --offline -q -p dd-bench --bin paper)
    for entry in "$@"; do
        out=$work/out/$entry
        rm -rf "$out"
        mkdir -p "$out" "$work/out-$side"
        (cd "$tree" && DD_BENCH_OUT=$out "$tree/target/release/paper" "$entry") |
            sed "s#$out/#bench_results/#g" > "$work/$side-$entry.txt"
        rm -rf "$work/out-$side/$entry"
        mv "$out" "$work/out-$side/$entry"
        if [ "$sides" = new ]; then
            cp "$tree/bench_results/$entry.txt" "$work/old-$entry.txt"
        fi
    done
done
for entry in "$@"; do
    if diff -u <(mask < "$work/old-$entry.txt") <(mask < "$work/new-$entry.txt") \
        > "$work/$entry.diff"; then
        echo "$entry: same under the mask"
    else
        echo "$entry: DIFFERS under the mask ($work/$entry.diff)"
        status=1
    fi
done
echo "outputs: $work"
exit $status
