#!/bin/sh
# serve-smoke: end-to-end pass through cmd/socbufd — build, start, hit
# /v1/solve, /v1/sweep/budget and /v1/stats, repeat a solve and a sweep
# verbatim (both must be result-tier hits), then SIGTERM and assert a clean
# (exit 0) graceful shutdown. CI runs this on every push next to scenario-smoke; `make
# serve-smoke` runs it locally.
set -eu

GO=${GO:-go}
ADDR=${SOCBUFD_ADDR:-127.0.0.1:18344}
BIN=$(mktemp -d)/socbufd
LOG=$(mktemp)

"$GO" build -o "$BIN" ./cmd/socbufd

"$BIN" -addr "$ADDR" >"$LOG" 2>&1 &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT

# Wait for the listener (the stats endpoint answers as soon as serving).
i=0
until curl -sf "http://$ADDR/v1/stats" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -gt 50 ]; then
    echo "serve-smoke: socbufd did not come up" >&2
    cat "$LOG" >&2
    exit 1
  fi
  sleep 0.2
done

# post PATH BODY: POST BODY to PATH, keep the response in OUT and copy it to
# stderr. The copy is printed, not teed: tee would reopen /dev/stderr and,
# when stderr is a file, truncate everything logged before it.
post() {
  OUT=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$2" "http://$ADDR$1")
  printf '%s\n' "$OUT" >&2
}

# One solve per solver backend: the method field must reach the backend
# (echoed in the response) and the per-backend stats must count each run.
METHODS=${SOCBUFD_METHODS:-exact analytic hybrid robust}
RUNS=0
for METHOD in $METHODS; do
  RUNS=$((RUNS + 1))
  echo "serve-smoke: POST /v1/solve (method $METHOD)"
  post /v1/solve '{"scenario":"twobus","iterations":1,"seeds":[1],"horizon":400,"warmUp":50,"method":"'"$METHOD"'"}'
  printf '%s\n' "$OUT" | grep -q '"method": "'"$METHOD"'"'
done

echo "serve-smoke: POST /v1/sweep/budget"
SOLVE='{"scenario":"twobus","iterations":1,"seeds":[1],"horizon":400,"warmUp":50,"method":"exact"}'
SWEEP='{"arch":"twobus","budgets":[24,30],"iterations":1,"seeds":[1],"horizon":400,"warmUp":50}'
post /v1/sweep/budget "$SWEEP"
printf '%s\n' "$OUT" | tail -1 | grep -q '"summary"'

# A verbatim repeat of a finished request is answered by the cache's result
# tier: flagged cached, two result hits, no new solve or sweep run.
echo "serve-smoke: verbatim repeats → result-tier hits"
runs() { echo "$1" | grep -o '"s[a-z]*Runs": [0-9]*' | tr '\n' ' '; }
BEFORE=$(curl -sf "http://$ADDR/v1/stats")
post /v1/solve "$SOLVE"
printf '%s\n' "$OUT" | grep -q '"cached": true' || {
  echo "serve-smoke: repeated solve not flagged cached" >&2
  exit 1
}
post /v1/sweep/budget "$SWEEP"
printf '%s\n' "$OUT" | tail -1 | grep -q '"cached":true' || {
  echo "serve-smoke: repeated sweep not flagged cached" >&2
  exit 1
}
AFTER=$(curl -sf "http://$ADDR/v1/stats")
echo "$AFTER" | grep -q '"ResultHits": 2,' || {
  echo "serve-smoke: /v1/stats does not show two result-tier hits" >&2
  echo "$AFTER" >&2
  exit 1
}
[ "$(runs "$BEFORE")" = "$(runs "$AFTER")" ] || {
  echo "serve-smoke: repeats ran again: $(runs "$BEFORE")→ $(runs "$AFTER")" >&2
  exit 1
}

echo "serve-smoke: POST /v1/solve (robust report fields)"
RUNS=$((RUNS + 1))
post /v1/solve '{"scenario":"twobus","iterations":1,"seeds":[1],"horizon":400,"warmUp":50,"method":"robust","uncertainty":{"samples":16,"seed":3}}'
printf '%s\n' "$OUT" | grep -q '"yield":'

echo "serve-smoke: unknown method → 400 with the uniform message"
CODE=$(curl -s -o "$LOG.err" -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
  -d '{"scenario":"twobus","method":"bogus"}' "http://$ADDR/v1/solve")
[ "$CODE" = "400" ] || { echo "serve-smoke: unknown method gave HTTP $CODE, want 400" >&2; exit 1; }
# The quotes arrive JSON-escaped (\"bogus\"), so match the two halves of
# the uniform message separately.
grep -q 'unknown method' "$LOG.err" && grep -q 'valid methods: analytic | exact | hybrid | robust' "$LOG.err" || {
  echo "serve-smoke: unknown-method message not uniform:" >&2
  cat "$LOG.err" >&2
  exit 1
}

echo "serve-smoke: GET /v1/stats"
STATS=$(curl -sf "http://$ADDR/v1/stats")
echo "$STATS" >&2
echo "$STATS" | grep -q '"solveRuns": '"$RUNS"
for METHOD in $METHODS; do
  echo "$STATS" | grep -q '"'"$METHOD"'"' || {
    echo "serve-smoke: /v1/stats missing backend counters for $METHOD" >&2
    exit 1
  }
done

echo "serve-smoke: SIGTERM → graceful shutdown"
kill -TERM "$PID"
STATUS=0
wait "$PID" || STATUS=$?
trap - EXIT
if [ "$STATUS" -ne 0 ]; then
  echo "serve-smoke: socbufd exited $STATUS (want clean shutdown)" >&2
  cat "$LOG" >&2
  exit 1
fi
grep -q 'shutdown complete' "$LOG" || {
  echo "serve-smoke: no shutdown-complete marker in the log" >&2
  cat "$LOG" >&2
  exit 1
}
echo "serve-smoke: OK"
