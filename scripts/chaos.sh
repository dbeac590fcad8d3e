#!/usr/bin/env bash
# Chaos gate, run by `make chaos` and the CI chaos job: build arynd +
# arynload, boot arynd with the /v1/faults chaos endpoint enabled, and drive
# the opt-in chaos mix — scripted LLM outages, flaky backends, cache
# kills, and ingest saturation — against it. The mix's SLO encodes the
# degradation contract (zero failed requests: degraded 200s, never 500s),
# so an SLO violation fails the run. Methodology: docs/fault-injection.md.
#
# Knobs (environment):
#   ARYNLOAD_ADDR    host:port to serve on   (default 127.0.0.1:8247)
#   CHAOS_DOCS       corpus size             (default 48)
#   CHAOS_QPS        launch rate             (default 15)
#   CHAOS_DURATION   load duration           (default 8s)
#   CHAOS_OUT        output JSON             (default BENCH_chaos.json)
#   CHAOS_LABEL      results label           (default after)
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR="${ARYNLOAD_ADDR:-127.0.0.1:8247}"
DOCS="${CHAOS_DOCS:-48}"
QPS="${CHAOS_QPS:-15}"
DURATION="${CHAOS_DURATION:-8s}"
OUT="${CHAOS_OUT:-BENCH_chaos.json}"
LABEL="${CHAOS_LABEL:-after}"

TAG=chaos
. scripts/arynd_boot.sh
go build -o "$BINDIR/arynload" ./cmd/arynload
arynd_boot -docs "$DOCS" -fault-endpoint

echo "chaos: driving the chaos mix at $QPS qps for $DURATION..."
"$BINDIR/arynload" -addr "$BASE" -mixes chaos \
  -qps "$QPS" -duration "$DURATION" \
  -out "$OUT" -label "$LABEL" -slo=true

echo "chaos: degradation contract held; report written to $OUT (label \"$LABEL\")"
