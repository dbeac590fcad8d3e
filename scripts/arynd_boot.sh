# Sourced (not run) by smoke.sh, chaos.sh and bench_serving.sh: the one
# build → boot arynd → wait for /v1/healthz → clean up on exit block.
#
# The caller runs from the repo root under `set -euo pipefail`, sets
#   TAG   log prefix ("smoke", "chaos", ...)
#   ADDR  host:port to serve on
# and calls
#   arynd_boot [arynd flags...]      builds ./cmd/arynd into $BINDIR, starts
#                                    it, returns once it is healthy
# It gets back BASE (http://$ADDR), BINDIR (build anything else the script
# needs there), ARYND_PID, and an EXIT trap that stops arynd, prints its log
# when the script failed, and removes both.

BASE="http://$ADDR"
BINDIR="$(mktemp -d)"
ARYND_LOG="$(mktemp)"

arynd_cleanup() {
  status=$?
  if [ -n "${ARYND_PID:-}" ] && kill -0 "$ARYND_PID" 2>/dev/null; then
    kill "$ARYND_PID" 2>/dev/null || true
    wait "$ARYND_PID" 2>/dev/null || true
  fi
  if [ "$status" -ne 0 ]; then
    echo "--- arynd log ---" >&2
    cat "$ARYND_LOG" >&2 || true
  fi
  rm -f "$ARYND_LOG"
  rm -rf "$BINDIR"
  exit "$status"
}
trap arynd_cleanup EXIT

arynd_boot() {
  echo "$TAG: building arynd..."
  go build -o "$BINDIR/arynd" ./cmd/arynd

  echo "$TAG: starting arynd on $ADDR ($*)..."
  "$BINDIR/arynd" -addr "$ADDR" "$@" >"$ARYND_LOG" 2>&1 &
  ARYND_PID=$!

  # Up to ~15s: a -docs corpus is ingested before the listener opens.
  for _ in $(seq 1 150); do
    if curl -fsS "$BASE/v1/healthz" >/dev/null 2>&1; then
      return 0
    fi
    if ! kill -0 "$ARYND_PID" 2>/dev/null; then
      echo "$TAG: arynd died during startup" >&2
      exit 1
    fi
    sleep 0.1
  done
  echo "$TAG: arynd not healthy after 15s" >&2
  exit 1
}
