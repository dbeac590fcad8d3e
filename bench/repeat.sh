#!/usr/bin/env bash
# Runs two full sets of the benchmark on the same code and compares them
# with the benchmark's own bounds: every end-to-end row should read "ok", a
# load metric "ok" or "unresolved" (exit code 1 otherwise).
# Each set is RUNS runs of every workload, run i of both sets with seed 100+i.
#
#   bench/repeat.sh [RUNS]      (default 10; about 100 s per run of all four)
set -euo pipefail
cd "$(dirname "$0")"
runs=${1:-10}
mkdir -p out
go build -o out/bench .
for set in A B; do
	rm -f "out/set-$set.json"
	for ((i = 0; i < runs; i++)); do
		for w in serve-warm analytics-cold retrieval-heavy ingest-beside-reads; do
			echo "set $set run $i: $w" >&2
			out/bench -workload "$w" -seed $((100 + i)) -out "out/set-$set.json" >/dev/null
		done
	done
done
out/bench -compare out/set-A.json out/set-B.json
