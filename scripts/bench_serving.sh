#!/usr/bin/env bash
# Serving-load benchmark driver, run by `make bench-serving` and the CI
# bench-serving job: build arynd + arynload, boot arynd with a synthetic
# corpus, drive the standard scenario mixes at a target rate, and
# write/merge the per-mix latency/shed/cache report into
# BENCH_serving.json (methodology: docs/benchmarks.md; SLO targets:
# docs/serving-slos.md).
#
# Knobs (environment):
#   ARYNLOAD_ADDR      host:port to serve on   (default 127.0.0.1:8246)
#   BENCH_SERVING_DOCS       corpus size       (default 48)
#   BENCH_SERVING_QPS        per-mix rate      (default 25)
#   BENCH_SERVING_DURATION   per-mix duration  (default 8s)
#   BENCH_SERVING_MIXES      mix selection     (default all)
#   BENCH_SERVING_OUT        output JSON       (default BENCH_serving.json)
#   BENCH_SERVING_LABEL      results label     (default after)
#   BENCH_SERVING_SLO        enforce SLOs      (default true)
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR="${ARYNLOAD_ADDR:-127.0.0.1:8246}"
DOCS="${BENCH_SERVING_DOCS:-48}"
QPS="${BENCH_SERVING_QPS:-25}"
DURATION="${BENCH_SERVING_DURATION:-8s}"
MIXES="${BENCH_SERVING_MIXES:-all}"
OUT="${BENCH_SERVING_OUT:-BENCH_serving.json}"
LABEL="${BENCH_SERVING_LABEL:-after}"
SLO="${BENCH_SERVING_SLO:-true}"

TAG=bench-serving
. scripts/arynd_boot.sh
go build -o "$BINDIR/arynload" ./cmd/arynload
arynd_boot -docs "$DOCS"

echo "bench-serving: driving mixes '$MIXES' at $QPS qps for $DURATION each..."
"$BINDIR/arynload" -addr "$BASE" -mixes "$MIXES" \
  -qps "$QPS" -duration "$DURATION" \
  -out "$OUT" -label "$LABEL" -slo="$SLO"

echo "bench-serving: report written to $OUT (label \"$LABEL\")"
