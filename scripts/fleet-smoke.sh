#!/bin/sh
# fleet-smoke: end-to-end pass through the fleet path (DESIGN.md §10) —
# build socbufd + socbufrouter, start a router fronting two shards that share
# the router's remote cache tier, and assert:
#   1. solves routed through the router succeed,
#   2. the shards adopt each other's robust sizings via the shared store
#      (a cross-shard remote-cache hit shows up in the fleet stats),
#   3. a SIGTERMed shard drains: readiness flips, the ring routes around it,
#      and requests keep succeeding on the survivor,
#   4. every process exits 0 on SIGTERM.
# CI runs this on every push next to serve-smoke; `make fleet-smoke` runs it
# locally.
set -eu

GO=${GO:-go}
ROUTER_ADDR=${FLEET_ROUTER_ADDR:-127.0.0.1:18360}
SHARD1_ADDR=${FLEET_SHARD1_ADDR:-127.0.0.1:18361}
SHARD2_ADDR=${FLEET_SHARD2_ADDR:-127.0.0.1:18362}
DIR=$(mktemp -d)

"$GO" build -o "$DIR/socbufd" ./cmd/socbufd
"$GO" build -o "$DIR/socbufrouter" ./cmd/socbufrouter

"$DIR/socbufrouter" -addr "$ROUTER_ADDR" \
  -backends "http://$SHARD1_ADDR,http://$SHARD2_ADDR" \
  -health-interval 300ms >"$DIR/router.log" 2>&1 &
ROUTER_PID=$!
"$DIR/socbufd" -addr "$SHARD1_ADDR" \
  -remote-cache "http://$ROUTER_ADDR/v1/cache" >"$DIR/shard1.log" 2>&1 &
SHARD1_PID=$!
"$DIR/socbufd" -addr "$SHARD2_ADDR" \
  -remote-cache "http://$ROUTER_ADDR/v1/cache" >"$DIR/shard2.log" 2>&1 &
SHARD2_PID=$!
trap 'kill "$ROUTER_PID" "$SHARD1_PID" "$SHARD2_PID" 2>/dev/null || true' EXIT

wait_ready() { # url what
  i=0
  until curl -sf "$1" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
      echo "fleet-smoke: $2 did not come up" >&2
      cat "$DIR"/*.log >&2
      exit 1
    fi
    sleep 0.2
  done
}
wait_ready "http://$SHARD1_ADDR/v1/readyz" "shard 1"
wait_ready "http://$SHARD2_ADDR/v1/readyz" "shard 2"
wait_ready "http://$ROUTER_ADDR/v1/readyz" "router"

echo "fleet-smoke: routed robust solves across seed variants"
# Twelve seed variants spread across the two shards (the ring maps each
# fingerprint deterministically; with 12 keys both shards get traffic), so
# the later seeds exercise remote adoption of the earlier seeds' robust
# sizing — the robust cache key ignores simulation seeds, so every variant
# shares one robust-tier fingerprint.
ROBUST='"arch":"twobus","budget":24,"method":"robust","uncertainty":{"samples":16,"seed":3},"iterations":1,"horizon":400,"warmUp":50'
for SEED in 1 2 3 4 5 6 7 8 9 10 11 12; do
  curl -sf -X POST -H 'Content-Type: application/json' \
    -d '{'"$ROBUST"',"seeds":['"$SEED"']}' \
    "http://$ROUTER_ADDR/v1/solve" | grep -q '"improvement"' || {
    echo "fleet-smoke: routed solve (seed $SEED) failed" >&2
    cat "$DIR"/*.log >&2
    exit 1
  }
done

echo "fleet-smoke: fleet stats show both shards and a cross-shard remote-cache hit"
STATS=$(curl -sf "http://$ROUTER_ADDR/v1/stats")
echo "$STATS" | grep -q '"backends": 2' || {
  echo "fleet-smoke: fleet stats missing the two shards" >&2
  echo "$STATS" >&2
  exit 1
}
# The write-behind put queue is asynchronous; give a slow box a few tries.
i=0
until echo "$STATS" | grep -q '"RemoteHits": [1-9]'; do
  i=$((i + 1))
  if [ "$i" -gt 20 ]; then
    echo "fleet-smoke: no cross-shard remote-cache hit in fleet stats" >&2
    echo "$STATS" >&2
    exit 1
  fi
  sleep 0.2
  curl -sf -X POST -H 'Content-Type: application/json' \
    -d '{'"$ROBUST"',"seeds":['"$((100 + i))"']}' \
    "http://$ROUTER_ADDR/v1/solve" >/dev/null
  STATS=$(curl -sf "http://$ROUTER_ADDR/v1/stats")
done

echo "fleet-smoke: SIGTERM shard 1 → drain-aware failover"
kill -TERM "$SHARD1_PID"
# The drain flips readiness before the listener closes; the router's 300ms
# health poll then takes the shard out of the ring.
sleep 1
for SEED in 21 22 23 24; do
  curl -sf -X POST -H 'Content-Type: application/json' \
    -d '{"scenario":"twobus","iterations":1,"seeds":['"$SEED"'],"horizon":400,"warmUp":50}' \
    "http://$ROUTER_ADDR/v1/solve" >/dev/null || {
    echo "fleet-smoke: solve failed after shard 1 drained" >&2
    cat "$DIR"/*.log >&2
    exit 1
  }
done
curl -sf "http://$ROUTER_ADDR/v1/readyz" >/dev/null || {
  echo "fleet-smoke: fleet unready with one live shard" >&2
  exit 1
}
STATUS=0
wait "$SHARD1_PID" || STATUS=$?
if [ "$STATUS" -ne 0 ]; then
  echo "fleet-smoke: shard 1 exited $STATUS (want clean drain)" >&2
  cat "$DIR/shard1.log" >&2
  exit 1
fi

echo "fleet-smoke: SIGTERM survivors → clean shutdown"
kill -TERM "$SHARD2_PID" "$ROUTER_PID"
for P in "$SHARD2_PID" "$ROUTER_PID"; do
  STATUS=0
  wait "$P" || STATUS=$?
  if [ "$STATUS" -ne 0 ]; then
    echo "fleet-smoke: pid $P exited $STATUS (want clean shutdown)" >&2
    cat "$DIR"/*.log >&2
    exit 1
  fi
done
trap - EXIT
grep -q 'shutdown complete' "$DIR/shard2.log" && grep -q 'shutdown complete' "$DIR/router.log" || {
  echo "fleet-smoke: missing shutdown-complete markers" >&2
  cat "$DIR"/*.log >&2
  exit 1
}
echo "fleet-smoke: OK"
