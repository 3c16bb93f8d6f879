#!/usr/bin/env bash
# Same-machine A/B of the pinned workloads: REF (side A) against HEAD
# (side B).
#
#   bench/ab.sh REF [PAIRS]
#
# Extracts REF's tree with HEAD's bench/ and BENCHMARK.json copied in, and
# HEAD's tree, with `git archive` under bench/out/ab/ (uncommitted changes
# are not measured). Each side builds once. Then, for PAIRS pairs
# (default 10) and every workload, it runs both sides the way
# BENCHMARK.json does (-seconds run_seconds -trace 0, the pair number as seed),
# alternating which side goes first. It ends with bench -compare: each
# side's median and quartiles per metric, how many pairs B won, and a
# verdict. Set WORKLOADS="a b" to run a subset.
set -euo pipefail

ref=${1:?usage: bench/ab.sh REF [PAIRS]}
pairs=${2:-10}
root=$(git rev-parse --show-toplevel)
cd "$root"
secs=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
workloads=${WORKLOADS:-$(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' BENCHMARK.json)}

# Each side builds into its own .bench_build.
unset CARGO_TARGET_DIR
work=$root/bench/out/ab
rm -rf "$work"
mkdir -p "$work/a" "$work/b" "$work/runs/a" "$work/runs/b"
git archive "$ref" | tar -x -C "$work/a"
rm -rf "$work/a/bench"
git archive HEAD bench BENCHMARK.json | tar -x -C "$work/a"
git archive HEAD | tar -x -C "$work/b"
echo "A = $ref $(git rev-parse --short=12 "$ref"), B = HEAD $(git rev-parse --short=12 HEAD); $pairs pairs of ${secs}s runs"

for i in $(seq 1 "$pairs"); do
	for w in $workloads; do
		order="a b"
		if ((i % 2 == 0)); then
			order="b a"
		fi
		for side in $order; do
			if ! (cd "$work/$side" && bash bench/run.sh -workload "$w" -seed "$i" -seconds "$secs" -trace 0) \
				>"$work/runs/$side/$w.$i.out"; then
				echo "side $side, $w, pair $i: run failed; see $work/runs/$side/$w.$i.out" >&2
			fi
		done
	done
done

cd "$work/b"
.bench_build/bench -compare "$work/runs/a" "$work/runs/b"
