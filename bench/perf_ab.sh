#!/bin/sh
# Host-speed A/B of this checkout against another checkout of the
# repository (in CI, the pull request's merge-base):
#
#     bench/perf_ab.sh BASE_CHECKOUT
#
# Runs each of perfbench's three workloads at seed 1 for 5 s, 10 pairs
# of runs per workload, alternating which side runs first, then reads
# the medians with perfbench/compare.py. Ten pairs, not five: with five,
# one of three A/A runs (both sides the same commit) on a 4-vCPU VM
# flagged detect_functional's setup_s and host_us_per_request 27 %
# worse, beyond their 25 % bound. Each side builds its own
# .bench_build/ on first use. Exits 1 when compare.py flags an
# end-to-end metric WORSE beyond its bound in BENCHMARK.json, or when a
# run fails. The digest lines are printed for information only: the
# perfbench CI job pins the digests, and a change that moves a
# simulated number updates them there.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: bench/perf_ab.sh BASE_CHECKOUT" >&2
    exit 2
fi
base=$(cd "$1" && pwd)
new=$(cd "$(dirname "$0")/.." && pwd)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
pairs=10

for workload in spec_detailed detect_functional server_multicore; do
    for pair in $(seq "$pairs"); do
        order="base new"
        [ $((pair % 2)) -eq 1 ] || order="new base"
        for side in $order; do
            if [ "$side" = base ]; then root=$base; else root=$new; fi
            run="$out/$side-$workload-$pair"
            echo "perf_ab: $workload pair $pair $side"
            if ! python3 "$root/perfbench/run.py" --workload "$workload" \
                    --seed 1 --seconds 5 --trace 0 --out "$run.json" \
                    > "$run.log" 2>&1; then
                tail -n 40 "$run.log"
                echo "perf_ab: $side run of $workload failed" >&2
                exit 1
            fi
        done
    done
done

# compare.py also exits 1 on a changed digest; only the bound decides.
python3 "$new/perfbench/compare.py" --base "$out"/base-*.json \
    --new "$out"/new-*.json > "$out/compare.txt" || true
cat "$out/compare.txt"
summary=" (trace 0): $pairs base, $pairs new runs\$"
if [ "$(grep -c "$summary" "$out/compare.txt")" -ne 3 ]; then
    echo "perf_ab: compare.py did not report all three workloads" >&2
    exit 1
fi
if grep -q 'WORSE beyond bound' "$out/compare.txt"; then
    echo "perf_ab: an end-to-end metric got worse beyond its bound" >&2
    exit 1
fi
echo "perf_ab: ok"
