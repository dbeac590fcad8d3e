#!/usr/bin/env bash
# Examples gate, run by `make examples` and `make ci`: every program under
# examples/ builds and runs to a zero exit within a time limit, so an API
# change that leaves one broken at run time (go vet only type-checks them)
# fails here by name. Each program reads nothing from stdin; its output is
# shown only when it fails.
#
# Usage: examples.sh [seconds per example, default 120]
set -uo pipefail

cd "$(dirname "$0")/.."
limit=${1:-120}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

status=0
for dir in examples/*/; do
	name=$(basename "$dir")
	if ! go build -o "$work/$name" "./$dir"; then
		echo "FAIL $name: does not build"
		status=1
		continue
	fi
	start=$(date +%s)
	"$work/$name" </dev/null >"$work/$name.log" 2>&1 &
	pid=$!
	# Portable timeout: macOS has no timeout(1).
	timed_out=0
	while kill -0 "$pid" 2>/dev/null; do
		if [ $(($(date +%s) - start)) -ge "$limit" ]; then
			kill "$pid" 2>/dev/null
			timed_out=1
			break
		fi
		sleep 0.2
	done
	wait "$pid"
	code=$?
	took=$(($(date +%s) - start))
	if [ "$timed_out" -eq 1 ]; then
		echo "FAIL $name: still running after ${limit}s"
		status=1
	elif [ "$code" -ne 0 ]; then
		echo "FAIL $name: exit $code after ${took}s; its output:"
		sed 's/^/    /' "$work/$name.log"
		status=1
	else
		echo "ok   $name (${took}s)"
	fi
done
exit "$status"
