#!/usr/bin/env bash
# Overload smoke test (run by CI, and runnable locally): launches a
# 3-replica fleet behind a front-end with adaptive admission control,
# calibrates its capacity with the open-loop harness, then drives 2×
# that capacity for ~20s and asserts the overload contract:
#   (a) the server sheds (429 + Retry-After on the wire; the stats
#       counters prove the admission controller did it, not a proxy),
#   (b) p99 of ADMITTED requests stays bounded near the queue deadline
#       — overload makes answers scarce, not slow,
#   (c) on-deadline goodput keeps a floor relative to measured capacity
#       (the server keeps doing useful work while shedding the excess).
# It then restarts the fleet WITHOUT admission control, calibrates that
# topology's own capacity, and asserts that driving 2× violates the
# latency SLO — the control group that shows the controller is what
# buys the bounded tail.
set -euo pipefail
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
SERVE="$WORK/friendserve"
LOAD="$WORK/loadtest"
go build -o "$SERVE" ./cmd/friendserve
go build -o "$LOAD" ./cmd/loadtest

FRONT_PORT=18080
REPLICA_PORTS=(18081 18082 18083)
BASE="http://127.0.0.1:$FRONT_PORT"
SLO=100ms
PIDS=()

cleanup() {
  kill "${PIDS[@]}" >/dev/null 2>&1 || true
  rm -rf "$WORK"
}
trap cleanup EXIT

wait_ready() {
  for _ in $(seq 1 50); do
    if curl -fsS --max-time 10 "http://127.0.0.1:$1/readyz" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "FAIL: port $1 never became ready" >&2
  exit 1
}

start_fleet() { # $1 = extra flags for every process ("" for none)
  local extra=$1
  for p in "${REPLICA_PORTS[@]}"; do
    # shellcheck disable=SC2086
    "$SERVE" -replica -addr "127.0.0.1:$p" $extra >"$WORK/replica-$p.log" 2>&1 &
    PIDS+=("$!")
  done
  # shellcheck disable=SC2086
  "$SERVE" -replicas "http://127.0.0.1:${REPLICA_PORTS[0]},http://127.0.0.1:${REPLICA_PORTS[1]},http://127.0.0.1:${REPLICA_PORTS[2]}" \
    -addr "127.0.0.1:$FRONT_PORT" -health-interval 250ms -fail-after 3 -bcast-window 20ms \
    -replog-dir "$WORK/replog-control" $extra >"$WORK/frontend.log" 2>&1 &
  PIDS+=("$!")
  for p in "${REPLICA_PORTS[@]}" "$FRONT_PORT"; do wait_ready "$p"; done
}

stop_fleet() {
  kill "${PIDS[@]}" >/dev/null 2>&1 || true
  wait "${PIDS[@]}" 2>/dev/null || true
  PIDS=()
}

echo "== fleet up (admission on: tight front-end window so the generator can saturate it)"
# Replicas run package-default adaptive admission; the front-end gets a
# deliberately tight cap (window 2, queue 8, 50ms queue budget) so that
# a same-machine generator can actually saturate it — the contract
# under test is the control loop, not the hardware's absolute capacity.
for p in "${REPLICA_PORTS[@]}"; do
  "$SERVE" -replica -addr "127.0.0.1:$p" -admit >"$WORK/replica-$p.log" 2>&1 &
  PIDS+=("$!")
done
"$SERVE" -replicas "http://127.0.0.1:${REPLICA_PORTS[0]},http://127.0.0.1:${REPLICA_PORTS[1]},http://127.0.0.1:${REPLICA_PORTS[2]}" \
  -addr "127.0.0.1:$FRONT_PORT" -health-interval 250ms -fail-after 3 -bcast-window 20ms \
  -replog-dir "$WORK/replog-admit" \
  -admit -admit-max-window 2 -admit-queue 8 -admit-queue-deadline 50ms \
  >"$WORK/frontend.log" 2>&1 &
PIDS+=("$!")
for p in "${REPLICA_PORTS[@]}" "$FRONT_PORT"; do wait_ready "$p"; done

echo "== calibrating capacity (×2 ramp, 2s steps)"
CAP=$("$LOAD" -url "$BASE" -calibrate -qps 200 -duration 2s -slo "$SLO" -out "$WORK/calibration.json")
echo "   capacity-at-SLO: $CAP qps"

DRIVE=$(awk "BEGIN{printf \"%d\", $CAP * 2}")
# Goodput floor: 70% of one replica's share (a third) of the measured
# fleet capacity, over the 18s drive, counted by the server itself
# (OKOnDeadline) so harness-side CPU contention cannot fail the run.
MINOK=$(awk "BEGIN{printf \"%d\", $CAP / 3 * 0.7 * 18}")

echo "== driving 2× capacity ($DRIVE qps) for 18s against the admitting fleet"
"$LOAD" -url "$BASE" -qps "$DRIVE" -duration 18s -slo "$SLO" \
  -min-stat-shed 1 -max-admitted-p99 400ms -min-stat-ok "$MINOK" \
  -out "$WORK/overload.json"
grep -E '"(shed|ok|late|timeout)"' "$WORK/overload.json" | sed 's/^/   /'

echo "== sheds must be visible in /v1/stats"
STATS=$(curl -fsS --max-time 10 "$BASE/v1/stats")
echo "$STATS" >"$WORK/stats-overload.json"
if ! echo "$STATS" | grep -Eq '"Shed(QueueFull|Budget|Deadline)":[1-9]'; then
  echo "FAIL: overload run produced no admission sheds: $STATS" >&2
  exit 1
fi

echo "== a shed must answer 429 with Retry-After while saturated"
# Saturate briefly in the background and probe for a 429.
"$LOAD" -url "$BASE" -qps "$DRIVE" -duration 4s -slo "$SLO" >/dev/null 2>&1 &
BGLOAD=$!
GOT429=no
for _ in $(seq 1 100); do
  HDRS=$(curl -s --max-time 2 -o /dev/null -D - "$BASE/v1/search?seeker=u0001&tags=tag01&k=5" || true)
  if echo "$HDRS" | head -1 | grep -q 429; then
    if ! echo "$HDRS" | grep -qi '^retry-after:'; then
      echo "FAIL: 429 without a Retry-After header:" >&2
      echo "$HDRS" >&2
      exit 1
    fi
    GOT429=yes
    break
  fi
done
wait "$BGLOAD" 2>/dev/null || true
if [ "$GOT429" != "yes" ]; then
  echo "FAIL: never observed a 429 while driving 2x capacity" >&2
  exit 1
fi

echo "== control group: same fleet WITHOUT admission control"
stop_fleet
start_fleet ""
CAP2=$("$LOAD" -url "$BASE" -calibrate -qps 200 -duration 2s -slo "$SLO" -out "$WORK/calibration-off.json")
DRIVE2=$(awk "BEGIN{printf \"%d\", $CAP2 * 2}")
echo "   admission-off capacity: $CAP2 qps; driving $DRIVE2 for 10s"
# The calibration above already declared the corpus on this fleet, and
# without admission control its last (unhealthy) step leaves a backlog
# that can time a re-declaration's first write out.
"$LOAD" -url "$BASE" -qps "$DRIVE2" -duration 10s -slo "$SLO" -seed-corpus=false \
  -expect-p99-over "$SLO" -out "$WORK/overload-off.json"
grep -E '"(p99_ns|timeout|late)"' "$WORK/overload-off.json" | sed 's/^/   /'

echo "overload smoke test passed"
