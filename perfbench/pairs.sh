#!/usr/bin/env bash
# Paired benchmark runs of two checkouts for `compare`: for each workload,
# ten pairs at seeds 1..10, alternating which side runs first, each side
# appending to its own result set. Every run lasts the change's
# BENCHMARK.json `run_seconds`. Then prints the comparison.
#
# usage: perfbench/pairs.sh PARENT_DIR CHANGE_DIR
set -euo pipefail
if [ $# -ne 2 ]; then
    echo "usage: $0 PARENT_DIR CHANGE_DIR" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
secs=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$change/BENCHMARK.json")
if [ -z "$secs" ]; then
    echo "$change/BENCHMARK.json has no run_seconds" >&2
    exit 2
fi
out="$(pwd)/.perfbench_out"
mkdir -p "$out"
: > "$out/parent.tsv"
: > "$out/change.tsv"

bench() { # DIR ARGS...
    local dir=$1
    shift
    (cd "$dir" && CARGO_TARGET_DIR="$dir/.bench_build" cargo run --release --offline --quiet \
        --manifest-path perfbench/Cargo.toml -- "$@")
}

run() { # DIR SIDE WORKLOAD SEED
    # A failed run still appends its record (with its failure count), so
    # carry on and let the comparison report it.
    bench "$1" --workload "$3" --seed "$4" --seconds "$secs" --trace 0 \
        --record "$out/$2.tsv" > /dev/null || echo "$2 $3 seed $4 failed" >&2
}

for w in tpcd_q1 tpcc httplite; do
    for i in $(seq 1 10); do
        if (( i % 2 )); then
            run "$parent" parent "$w" "$i"
            run "$change" change "$w" "$i"
        else
            run "$change" change "$w" "$i"
            run "$parent" parent "$w" "$i"
        fi
    done
done
bench "$change" compare "$out/parent.tsv" "$out/change.tsv"
