#!/usr/bin/env bash
# Server smoke test: boot arynd against the simulated LLM, run a health
# check plus ingest→query→chat and plan→edit→re-execute round-trips
# (§6.2 inspect→edit→re-run over HTTP), and fail on any non-200 — plus a
# regression that invalid plans come back as 400 with a structured
# {"error": {"code", "message", "details"}} envelope, an SSE
# streamed-query round-trip, a 404 envelope for an unprefixed path
# (docs/streaming-api.md), and the one request that shows a real
# `arynd -fault-endpoint` serves /v1/faults (docs/fault-injection.md).
# Ingest goes through the job API: submitted, then polled to done. CI
# runs this on every push
# (make smoke); it is the end-to-end proof that the serving layer,
# admission gate, plan API, and session plumbing hold together outside
# the Go test harness.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR="${ARYND_ADDR:-127.0.0.1:8199}"
BASE="http://$ADDR"
BIN="$(mktemp -d)/arynd"
LOG="$(mktemp)"

cleanup() {
  status=$?
  if [ -n "${ARYND_PID:-}" ] && kill -0 "$ARYND_PID" 2>/dev/null; then
    kill "$ARYND_PID" 2>/dev/null || true
    wait "$ARYND_PID" 2>/dev/null || true
  fi
  if [ "$status" -ne 0 ]; then
    echo "--- arynd log ---" >&2
    cat "$LOG" >&2 || true
  fi
  rm -f "$LOG"
  rm -rf "$(dirname "$BIN")"
  exit "$status"
}
trap cleanup EXIT

echo "smoke: building arynd..."
go build -o "$BIN" ./cmd/arynd

echo "smoke: starting arynd on $ADDR (empty index, fault endpoint on)..."
"$BIN" -addr "$ADDR" -docs 0 -fault-endpoint >"$LOG" 2>&1 &
ARYND_PID=$!

# Wait for the health endpoint (up to ~15s).
for _ in $(seq 1 150); do
  if curl -fsS "$BASE/v1/healthz" >/dev/null 2>&1; then
    break
  fi
  if ! kill -0 "$ARYND_PID" 2>/dev/null; then
    echo "smoke: arynd died during startup" >&2
    exit 1
  fi
  sleep 0.1
done
curl -fsS "$BASE/v1/healthz" | grep -q '"status": "ok"' || {
  echo "smoke: healthz did not report ok" >&2; exit 1; }
echo "smoke: healthz ok"

# ingest_job BODY: submit BODY to the job API and poll the job to done;
# leaves the terminal snapshot in SNAP.
ingest_job() {
  JOBSTATUS=$(curl -sS -o /tmp/smoke_job.$$ -w '%{http_code}' -X POST "$BASE/v1/ingest" -d "$1")
  JOB=$(cat /tmp/smoke_job.$$; rm -f /tmp/smoke_job.$$)
  [ "$JOBSTATUS" = "202" ] || {
    echo "smoke: POST /v1/ingest should answer 202, got $JOBSTATUS: $JOB" >&2; exit 1; }
  LOCATION=$(echo "$JOB" | sed -n 's/.*"location": "\([^"]*\)".*/\1/p')
  [ -n "$LOCATION" ] || { echo "smoke: 202 returned no job location: $JOB" >&2; exit 1; }
  JOBSTATE=""
  for _ in $(seq 1 300); do
    SNAP=$(curl -fsS "$BASE$LOCATION")
    JOBSTATE=$(echo "$SNAP" | sed -n 's/.*"state": "\([^"]*\)".*/\1/p')
    [ "$JOBSTATE" = "done" ] && return 0
    [ "$JOBSTATE" = "failed" ] && { echo "smoke: ingest job failed: $SNAP" >&2; exit 1; }
    sleep 0.1
  done
  echo "smoke: ingest job still $JOBSTATE after 30s" >&2; exit 1
}

echo "smoke: ingesting 16 synthetic documents (job submitted, polled to done)..."
ingest_job '{"docs":16,"seed":42}'
grep -q '"documents": 16' <<<"$SNAP" || {
  echo "smoke: ingest did not index 16 documents: $SNAP" >&2; exit 1; }

echo "smoke: one-shot query..."
QUERY=$(curl -fsS -X POST "$BASE/v1/query" -d '{"question":"How many incidents were there?"}')
echo "$QUERY" | grep -q '"answer": "16"' || {
  echo "smoke: query answer should be 16: $QUERY" >&2; exit 1; }

echo "smoke: plan without executing..."
PLAN=$(curl -fsS -X POST "$BASE/v1/plan" -d '{"question":"How many incidents were there?"}')
echo "$PLAN" | grep -q '"nodes"' || {
  echo "smoke: /v1/plan should return DAG plan JSON: $PLAN" >&2; exit 1; }
echo "$PLAN" | grep -q '"compiled"' || {
  echo "smoke: /v1/plan should return the compiled pipeline: $PLAN" >&2; exit 1; }

echo "smoke: execute an edited plan..."
# A hand-edited DAG: two scan roots self-joined on accident number, then
# counted — the join keeps each of the 16 documents exactly once.
EDITED='{"nodes":[
  {"id":"n1","op":"queryDatabase"},
  {"id":"n2","op":"queryDatabase"},
  {"id":"n3","op":"join","inputs":["n1","n2"],"left_key":"accidentNumber","right_key":"accidentNumber","join_kind":"semi"},
  {"id":"n4","op":"count","inputs":["n3"]}],"output":"n4"}'
REPLAY=$(curl -fsS -X POST "$BASE/v1/query" -d "{\"plan\":$EDITED}")
echo "$REPLAY" | grep -q '"answer": "16"' || {
  echo "smoke: edited join plan should count 16: $REPLAY" >&2; exit 1; }

echo "smoke: explain analyze..."
ANALYZE=$(curl -fsS -X POST "$BASE/v1/plan" -d "{\"plan\":$EDITED,\"analyze\":true}")
echo "$ANALYZE" | grep -q '"executed"' || {
  echo "smoke: analyze should return the executed plan: $ANALYZE" >&2; exit 1; }
echo "$ANALYZE" | grep -q '"runtime"' || {
  echo "smoke: executed plan should carry per-node runtime: $ANALYZE" >&2; exit 1; }
echo "$ANALYZE" | grep -q '"answer"' && {
  echo "smoke: analyze must not return an answer payload: $ANALYZE" >&2; exit 1; }

echo "smoke: include_plan returns executed runtime..."
ANALYZED_QUERY=$(curl -fsS -X POST "$BASE/v1/query" -d '{"question":"How many incidents were there?","include_plan":true}')
echo "$ANALYZED_QUERY" | grep -q '"executed"' || {
  echo "smoke: include_plan should carry the executed plan: $ANALYZED_QUERY" >&2; exit 1; }

echo "smoke: invalid plan returns 400 with structured errors..."
BADPLAN='{"plan":{"nodes":[{"id":"n1","op":"queryDatabase","filters":[{"field":"hallucinated","kind":"fuzzy","value":1}]},{"id":"n2","op":"llmFilter","inputs":["n1"]},{"id":"n3","op":"count","inputs":["n2"]}],"output":"n3"}}'
BADSTATUS=$(curl -sS -o /tmp/smoke_bad_plan.$$ -w '%{http_code}' -X POST "$BASE/v1/query" -d "$BADPLAN")
BAD=$(cat /tmp/smoke_bad_plan.$$; rm -f /tmp/smoke_bad_plan.$$)
[ "$BADSTATUS" = "400" ] || {
  echo "smoke: invalid plan should be 400, got $BADSTATUS: $BAD" >&2; exit 1; }
echo "$BAD" | grep -q '"code": "invalid_plan"' || {
  echo "smoke: 400 should carry the error envelope with code invalid_plan: $BAD" >&2; exit 1; }
echo "$BAD" | grep -q '"details"' || {
  echo "smoke: 400 envelope should carry a structured details array: $BAD" >&2; exit 1; }
echo "$BAD" | grep -q 'hallucinated' && echo "$BAD" | grep -q 'llmFilter requires a question' || {
  echo "smoke: details array should list every node failure: $BAD" >&2; exit 1; }

echo "smoke: chat session round-trip..."
CHAT1=$(curl -fsS -X POST "$BASE/v1/chat" -d '{"question":"How many incidents involved substantial damage?"}')
SESSION=$(echo "$CHAT1" | sed -n 's/.*"session_id": "\([^"]*\)".*/\1/p')
[ -n "$SESSION" ] || { echo "smoke: chat returned no session_id: $CHAT1" >&2; exit 1; }
CHAT2=$(curl -fsS -X POST "$BASE/v1/chat" -d "{\"session_id\":\"$SESSION\",\"question\":\"what about destroyed aircraft?\"}")
echo "$CHAT2" | grep -q '"turn": 2' || {
  echo "smoke: follow-up should be turn 2: $CHAT2" >&2; exit 1; }

echo "smoke: unprefixed path is a 404 envelope..."
LEGACYSTATUS=$(curl -sS -o /tmp/smoke_legacy.$$ -w '%{http_code}' "$BASE/healthz")
LEGACY=$(cat /tmp/smoke_legacy.$$; rm -f /tmp/smoke_legacy.$$)
[ "$LEGACYSTATUS" = "404" ] && grep -q '"code": "not_found"' <<<"$LEGACY" || {
  echo "smoke: /healthz should be 404 not_found (the API is /v1 only), got $LEGACYSTATUS: $LEGACY" >&2; exit 1; }

echo "smoke: streamed query over SSE..."
STREAM=$(curl -fsSN -X POST "$BASE/v1/query" -H 'Accept: text/event-stream' \
  -d '{"question":"How many incidents were there?"}')
# here-strings, not pipes: grep -q quitting early would SIGPIPE echo
# under pipefail even on a match.
grep -q '^event: progress' <<<"$STREAM" || {
  echo "smoke: stream should carry a progress event: $STREAM" >&2; exit 1; }
grep -q '^event: result' <<<"$STREAM" || {
  echo "smoke: stream should end in a result event: $STREAM" >&2; exit 1; }
grep -q '"answer":"16"' <<<"$(tail -4 <<<"$STREAM")" || {
  echo "smoke: streamed terminal result should answer 16: $STREAM" >&2; exit 1; }

echo "smoke: second ingest job beside a loaded store..."
ingest_job '{"docs":8,"seed":99}'
# result.documents is the store total after the prepare swap; synthetic
# corpora share positional accident numbers, so the job's 8 docs
# overwrite 8 of the 16 already ingested and the total stays 16.
grep -q '"documents": 16' <<<"$SNAP" || {
  echo "smoke: done job should report the 16-doc store total: $SNAP" >&2; exit 1; }
QUERY2=$(curl -fsS -X POST "$BASE/v1/query" -d '{"question":"How many incidents were there?"}')
echo "$QUERY2" | grep -q '"answer": "16"' || {
  echo "smoke: post-job corpus should still count 16: $QUERY2" >&2; exit 1; }

echo "smoke: fault endpoint is live and inert..."
FAULTS=$(curl -fsS "$BASE/v1/faults")
grep -q '"active": false' <<<"$FAULTS" || {
  echo "smoke: -fault-endpoint should serve /v1/faults with no spec active: $FAULTS" >&2; exit 1; }

echo "smoke: stats snapshot..."
STATS=$(curl -fsS "$BASE/v1/stats")
echo "$STATS" | grep -q '"ready": true' || {
  echo "smoke: stats should report ready: $STATS" >&2; exit 1; }
echo "$STATS" | grep -q '"admitted"' || {
  echo "smoke: stats should expose admission counters: $STATS" >&2; exit 1; }

echo "smoke: graceful shutdown..."
kill "$ARYND_PID"
wait "$ARYND_PID" 2>/dev/null || true
unset ARYND_PID

echo "smoke: OK"
