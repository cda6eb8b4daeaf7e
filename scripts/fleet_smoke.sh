#!/usr/bin/env bash
# Fleet smoke test (run by CI, and runnable locally): launches three
# friendserve -replica processes and one -replicas front-end (with a
# WAL-backed replication log), drives mixed search/Befriend traffic
# through the front-end, kills one replica, and asserts that
#   (a) answers after the kill are byte-identical to before it
#       (failover re-routes the dead replica's seekers to survivors
#       holding the same data),
#   (b) mixed traffic keeps succeeding while a replica is down, and
#   (c) /v1/stats on the front-end reports the ejection.
# It then SIGSTOPs another replica, pushes mutations it must miss,
# SIGCONTs it, and asserts
#   (d) the divergence and the catch-up that repaired it are
#       stats-visible (the stopped replica's ReplogLag while it is
#       stopped, then Catchups and zero ReplogLag), and
#   (e) post-rejoin answers — now routed to the readmitted replica —
#       are byte-identical to the answers the survivors gave while it
#       was stopped (the stale-after-readmission regression).
# It drains the front-end with SIGTERM and restarts it over the same
# -replog-dir, asserting that its one-member log
#   (e1) leads at once: the first write after /readyz succeeds with no
#        election wait, and /healthz carries no quorum headers,
#   (e2) issues the old head + 1 as that write's LSN (via /v2/replog),
#        and
#   (e3) answers stay byte-identical.
# A resize phase then stands up a fresh 3-replica fleet and grows it
# to 5 via -join self-registration, shrinking back to 3 over
# POST /v2/fleet/resize, asserting
#   (f) answers stay byte-identical before, DURING and after each
#       splice (the joiner is gated on snapshot + catch-up),
#   (g) the joiners were pre-warmed with their inherited ring slice
#       (bounded cache-miss dip on the post-grow query sweep), and
#   (h) the fleet accepts mutations at both sizes.
# Finally, an HA phase stands up a fresh fleet with THREE quorum
# front-ends (-frontend-id/-peers), SIGKILLs the leader mid-write-storm
# and asserts
#   (i) a follower wins the election and keeps accepting writes,
#   (j) the surviving front-ends serve byte-identical answers,
#   (k) no quorum-acked mutation is lost: every acked write is
#       queryable and the survivors' committed replication logs are
#       identical (LSN audit via /v2/replog), and
#   (l) a traced mutation's flight record covers the whole write path
#       (admission through the quorum commit), including a follower's
#       replicated-append span.
set -euo pipefail
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
BIN="$WORK/friendserve"
OBSCHECK="$WORK/obscheck"
go build -o "$BIN" ./cmd/friendserve
go build -o "$OBSCHECK" ./cmd/obscheck

FRONT_PORT=18080
REPLICA_PORTS=(18081 18082 18083)
PIDS=()
cleanup() {
  kill "${PIDS[@]}" >/dev/null 2>&1 || true
  rm -rf "$WORK"
}
trap cleanup EXIT

for p in "${REPLICA_PORTS[@]}"; do
  "$BIN" -replica -addr "127.0.0.1:$p" >"$WORK/replica-$p.log" 2>&1 &
  PIDS+=("$!")
done
"$BIN" -replicas "http://127.0.0.1:${REPLICA_PORTS[0]},http://127.0.0.1:${REPLICA_PORTS[1]},http://127.0.0.1:${REPLICA_PORTS[2]}" \
  -addr "127.0.0.1:$FRONT_PORT" -health-interval 150ms -fail-after 2 -bcast-window 20ms \
  -replog-dir "$WORK/replog" -catchup-timeout 20s -mutation-timeout 1s \
  >"$WORK/frontend.log" 2>&1 &
PIDS+=("$!")

wait_ready() {
  for _ in $(seq 1 50); do
    if curl -fsS --max-time 10 "http://127.0.0.1:$1/readyz" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "FAIL: port $1 never became ready" >&2
  exit 1
}
for p in "${REPLICA_PORTS[@]}" "$FRONT_PORT"; do wait_ready "$p"; done

BASE="http://127.0.0.1:$FRONT_PORT"
NUSERS=20

befriend() {
  curl -fsS --max-time 10 -X POST -d "{\"a\":\"$1\",\"b\":\"$2\",\"weight\":$3}" "$BASE/v1/friend" >/dev/null
}
tag() {
  curl -fsS --max-time 10 -X POST -d "{\"user\":\"$1\",\"item\":\"$2\",\"tag\":\"$3\"}" "$BASE/v1/tag" >/dev/null
}
query() {
  curl -fsS --max-time 10 -X POST -d "{\"seeker\":\"$1\",\"tags\":[\"pizza\"],\"k\":5,\"mode\":\"exact\"}" "$BASE/v2/search"
}

echo "== seeding corpus through the front-end"
for i in $(seq 0 $((NUSERS - 1))); do
  befriend "u$i" "u$(((i + 1) % NUSERS))" 0.8
  tag "u$i" "item$i" "pizza"
done
sleep 0.5 # let the compaction heartbeat fold the writes in fleet-wide

echo "== recording pre-kill answers"
for i in $(seq 0 $((NUSERS - 1))); do
  query "u$i" >"$WORK/before-u$i.json"
done

echo "== crashing replica ${REPLICA_PORTS[1]}"
# SIGKILL: a plain TERM would trigger the replica's graceful drain and
# it would keep answering — the point here is a hard crash.
kill -9 "${PIDS[1]}"

echo "== answers must fail over and stay byte-identical"
for i in $(seq 0 $((NUSERS - 1))); do
  query "u$i" >"$WORK/after-u$i.json"
  if ! cmp -s "$WORK/before-u$i.json" "$WORK/after-u$i.json"; then
    echo "FAIL: seeker u$i answered differently after the replica kill" >&2
    diff "$WORK/before-u$i.json" "$WORK/after-u$i.json" >&2 || true
    exit 1
  fi
done

echo "== mixed traffic with a dead replica must keep succeeding"
for i in $(seq 0 29); do
  case $((i % 3)) in
    0) befriend "u$((i % NUSERS))" "u$(((i + 7) % NUSERS))" 0.6 ;;
    1) tag "u$((i % NUSERS))" "extra$i" "pizza" ;;
    2) query "u$((i % NUSERS))" >/dev/null ;;
  esac
done

echo "== waiting for the health checker to eject the dead replica"
sleep 1
STATS=$(curl -fsS --max-time 10 "$BASE/v1/stats")
echo "$STATS" >"$WORK/stats.json"
if ! echo "$STATS" | grep -q '"Live":false'; then
  echo "FAIL: no ejected replica in /v1/stats: $STATS" >&2
  exit 1
fi
if ! echo "$STATS" | grep -Eq '"Ejections":[1-9]'; then
  echo "FAIL: /v1/stats reports no ejection: $STATS" >&2
  exit 1
fi
if ! echo "$STATS" | grep -Eq '"Failovers":[1-9]'; then
  echo "FAIL: /v1/stats reports no failovers: $STATS" >&2
  exit 1
fi
if ! echo "$STATS" | grep -Eq '"Batches":[1-9]'; then
  echo "FAIL: /v1/stats reports no compaction heartbeats: $STATS" >&2
  exit 1
fi

echo "== SIGSTOP replica ${REPLICA_PORTS[2]}: it must miss mutations, then catch up"
STOPPED_PID="${PIDS[2]}"
kill -STOP "$STOPPED_PID"

# Mutations the stopped replica cannot see. Writes ack at commit, so
# all must succeed; the heartbeat's pages to the stopped replica fail
# until the health checker (or a failed page) ejects it.
for i in $(seq 0 9); do
  befriend "u$((i % NUSERS))" "u$(((i + 5) % NUSERS))" 0.7
  tag "u$((i % NUSERS))" "stopped$i" "pizza"
done

echo "== waiting for the stopped replica's divergence to be stats-visible"
DIVERGED=no
for _ in $(seq 1 40); do
  STATS=$(curl -fsS --max-time 10 "$BASE/v1/stats")
  if echo "$STATS" | python3 -c "
import json, sys
stats = json.load(sys.stdin)
stats = stats.get('Backend', stats)
r = next(r for r in stats['Replicas'] if r['URL'].endswith(':${REPLICA_PORTS[2]}'))
sys.exit(0 if r['ReplogLag'] >= 1 else 1)
"; then DIVERGED=yes; break; fi
  sleep 0.25
done
if [ "$DIVERGED" != "yes" ]; then
  echo "FAIL: /v1/stats never showed the stopped replica's ReplogLag while it was stopped: $STATS" >&2
  exit 1
fi

# Until the stopped replica is ejected it is still a heartbeat target
# and stalls each heartbeat for its timeout: wait until the final write
# (tag stopped9 by u9) is queryable before snapshotting.
QUIESCED=no
for _ in $(seq 1 80); do
  if query "u9" | grep -q stopped9; then QUIESCED=yes; break; fi
  sleep 0.25
done
if [ "$QUIESCED" != "yes" ]; then
  echo "FAIL: survivors never folded the writes pushed while a replica was stopped" >&2
  exit 1
fi
sleep 0.3 # both survivors ride the same batch; give the second its ack window
echo "== recording answers served by the survivors"
for i in $(seq 0 $((NUSERS - 1))); do
  query "u$i" >"$WORK/stopped-u$i.json"
done

echo "== SIGCONT: readmission must be gated on replication log catch-up"
kill -CONT "$STOPPED_PID"
CAUGHTUP=no
for _ in $(seq 1 80); do
  STATS=$(curl -fsS --max-time 10 "$BASE/v1/stats")
  if echo "$STATS" | grep -Eq '"Catchups":[1-9]'; then CAUGHTUP=yes; break; fi
  sleep 0.25
done
echo "$STATS" >"$WORK/stats-catchup.json"
if [ "$CAUGHTUP" != "yes" ]; then
  echo "FAIL: /v1/stats never reported a completed catch-up after SIGCONT: $STATS" >&2
  exit 1
fi
LIVE_COUNT=$(echo "$STATS" | grep -o '"Live":true' | wc -l)
if [ "$LIVE_COUNT" -ne 2 ]; then
  echo "FAIL: want 2 live replicas (killed one stays out), got $LIVE_COUNT: $STATS" >&2
  exit 1
fi
# Pin the post-rejoin assertions to the SIGCONTed replica specifically:
# it must be live, caught up (zero lag), and credited with the catch-up.
if ! echo "$STATS" | python3 -c "
import json, sys
stats = json.load(sys.stdin)
stats = stats.get('Backend', stats)  # /v1/stats wraps backend stats in an envelope
r = next(r for r in stats['Replicas'] if r['URL'].endswith(':${REPLICA_PORTS[2]}'))
assert r['Live'], 'stopped replica not live: %r' % r
assert r['ReplogLag'] == 0, 'stopped replica still lags: %r' % r
assert r['Counters']['Catchups'] >= 1, 'stopped replica has no catch-up: %r' % r
"; then
  echo "FAIL: readmitted replica is not caught up in /v1/stats: $STATS" >&2
  exit 1
fi

echo "== post-rejoin answers must be byte-identical to the survivors'"
sleep 0.3 # let routing settle on the readmitted replica
for i in $(seq 0 $((NUSERS - 1))); do
  query "u$i" >"$WORK/rejoined-u$i.json"
  if ! cmp -s "$WORK/stopped-u$i.json" "$WORK/rejoined-u$i.json"; then
    echo "FAIL: seeker u$i answered differently after the replica rejoined (stale serving)" >&2
    diff "$WORK/stopped-u$i.json" "$WORK/rejoined-u$i.json" >&2 || true
    exit 1
  fi
done

replog_head() {
  curl -fsS --max-time 10 "$BASE/v2/replog?from=1" | python3 -c 'import json, sys; print(json.load(sys.stdin)["head"])'
}
HEAD_BEFORE=$(replog_head)

echo "== graceful drain: SIGTERM flips /readyz before shutdown"
FRONT_PID="${PIDS[3]}"
kill -TERM "$FRONT_PID"
DRAINED=no
for _ in $(seq 1 20); do
  CODE=$(curl -s --max-time 10 -o /dev/null -w '%{http_code}' "$BASE/readyz" || true)
  if [ "$CODE" = "503" ]; then DRAINED=yes; break; fi
  if [ -z "$CODE" ] || [ "$CODE" = "000" ]; then break; fi
  sleep 0.05
done
if [ "$DRAINED" != "yes" ]; then
  echo "FAIL: front-end never reported draining on SIGTERM" >&2
  exit 1
fi

echo "== restart over the same -replog-dir: the one-member log leads at once"
wait "$FRONT_PID" 2>/dev/null || true
"$BIN" -replicas "http://127.0.0.1:${REPLICA_PORTS[0]},http://127.0.0.1:${REPLICA_PORTS[1]},http://127.0.0.1:${REPLICA_PORTS[2]}" \
  -addr "127.0.0.1:$FRONT_PORT" -health-interval 150ms -fail-after 2 -bcast-window 20ms \
  -replog-dir "$WORK/replog" -catchup-timeout 20s -mutation-timeout 1s \
  >"$WORK/frontend-restarted.log" 2>&1 &
RESTARTED_PID="$!"
PIDS+=("$RESTARTED_PID")
wait_ready "$FRONT_PORT"
# No retry: a front-end still electing itself would answer 503. The tag
# is not pizza, so the answers compared below do not change.
tag "u0" "restarted0" "sushi"
if curl -fsS --max-time 10 -D - -o /dev/null "$BASE/healthz" | grep -qi '^x-quorum-'; then
  echo "FAIL: a one-member front-end reports quorum headers on /healthz" >&2
  exit 1
fi
NEXT=$(curl -fsS --max-time 10 "$BASE/v2/replog?from=$((HEAD_BEFORE + 1))" |
  python3 -c 'import json, sys; p = json.load(sys.stdin); print(p["records"][0]["lsn"] if p["records"] else 0, p["head"])')
if [ "$NEXT" != "$((HEAD_BEFORE + 1)) $((HEAD_BEFORE + 1))" ]; then
  echo "FAIL: after the restart the first write's lsn and the head read '$NEXT', want $((HEAD_BEFORE + 1)) twice" >&2
  exit 1
fi
for i in $(seq 0 $((NUSERS - 1))); do
  query "u$i" >"$WORK/restarted-u$i.json"
  if ! cmp -s "$WORK/rejoined-u$i.json" "$WORK/restarted-u$i.json"; then
    echo "FAIL: seeker u$i answered differently after the front-end restart" >&2
    diff "$WORK/rejoined-u$i.json" "$WORK/restarted-u$i.json" >&2 || true
    exit 1
  fi
done
kill -TERM "$RESTARTED_PID"
wait "$RESTARTED_PID" 2>/dev/null || true

echo "== resize phase: grow 3 -> 5 -> 3 under traffic (elastic join/retire)"
RS_FRONT_PORT=18100
RS_REPLICA_PORTS=(18101 18102 18103)
RS_JOINER_PORTS=(18104 18105)
RS_BASE="http://127.0.0.1:$RS_FRONT_PORT"

for p in "${RS_REPLICA_PORTS[@]}"; do
  "$BIN" -replica -addr "127.0.0.1:$p" >"$WORK/rs-replica-$p.log" 2>&1 &
  PIDS+=("$!")
done
"$BIN" -replicas "http://127.0.0.1:${RS_REPLICA_PORTS[0]},http://127.0.0.1:${RS_REPLICA_PORTS[1]},http://127.0.0.1:${RS_REPLICA_PORTS[2]}" \
  -addr "127.0.0.1:$RS_FRONT_PORT" -health-interval 150ms -fail-after 2 -bcast-window 20ms \
  -replog-dir "$WORK/rs-replog" -catchup-timeout 20s -mutation-timeout 2s \
  >"$WORK/rs-frontend.log" 2>&1 &
PIDS+=("$!")
for p in "${RS_REPLICA_PORTS[@]}" "$RS_FRONT_PORT"; do wait_ready "$p"; done

rs_befriend() {
  curl -fsS --max-time 10 -X POST -d "{\"a\":\"$1\",\"b\":\"$2\",\"weight\":$3}" "$RS_BASE/v1/friend" >/dev/null
}
rs_tag() {
  curl -fsS --max-time 10 -X POST -d "{\"user\":\"$1\",\"item\":\"$2\",\"tag\":\"$3\"}" "$RS_BASE/v1/tag" >/dev/null
}
rs_query() {
  curl -fsS --max-time 10 -X POST -d "{\"seeker\":\"$1\",\"tags\":[\"pizza\"],\"k\":5,\"mode\":\"exact\"}" "$RS_BASE/v2/search"
}
# rs_in_ring_counts prints "<in_ring> <retired>" from the front's stats.
rs_in_ring_counts() {
  curl -fsS --max-time 10 "$RS_BASE/v1/stats" | python3 -c "
import json, sys
stats = json.load(sys.stdin)
stats = stats.get('Backend', stats)
rows = stats['Replicas']
print(sum(1 for r in rows if r['InRing']), sum(1 for r in rows if r.get('Retired')))
"
}

echo "== seeding the resize fleet"
for i in $(seq 0 $((NUSERS - 1))); do
  rs_befriend "u$i" "u$(((i + 1) % NUSERS))" 0.8
  rs_tag "u$i" "item$i" "pizza"
done
sleep 0.5
echo "== recording pre-grow answers (also makes horizons cache-resident)"
for i in $(seq 0 $((NUSERS - 1))); do
  rs_query "u$i" >"$WORK/rs-pregrow-u$i.json"
done

echo "== joiners self-register with -join while queries keep flowing"
for p in "${RS_JOINER_PORTS[@]}"; do
  "$BIN" -replica -addr "127.0.0.1:$p" -join "$RS_BASE" -advertise "http://127.0.0.1:$p" \
    >"$WORK/rs-joiner-$p.log" 2>&1 &
  PIDS+=("$!")
done
# Byte-identical answers THROUGHOUT the grow: every query racing the
# two joins must match the pre-grow snapshot (no mutations in flight).
GROWN=no
for round in $(seq 1 120); do
  i=$((round % NUSERS))
  rs_query "u$i" >"$WORK/rs-during-u$i.json"
  if ! cmp -s "$WORK/rs-pregrow-u$i.json" "$WORK/rs-during-u$i.json"; then
    echo "FAIL: seeker u$i answered differently while the fleet was growing" >&2
    diff "$WORK/rs-pregrow-u$i.json" "$WORK/rs-during-u$i.json" >&2 || true
    exit 1
  fi
  read -r IN_RING RETIRED <<<"$(rs_in_ring_counts)"
  if [ "$IN_RING" = "5" ]; then GROWN=yes; break; fi
  sleep 0.25
done
if [ "$GROWN" != "yes" ]; then
  echo "FAIL: fleet never grew to 5 in-ring replicas" >&2
  curl -fsS "$RS_BASE/v1/stats" >&2 || true
  for p in "${RS_JOINER_PORTS[@]}"; do tail -3 "$WORK/rs-joiner-$p.log" >&2; done
  exit 1
fi
for p in "${RS_JOINER_PORTS[@]}"; do
  if ! grep -q "joined fleet via" "$WORK/rs-joiner-$p.log"; then
    echo "FAIL: joiner $p never logged a completed join" >&2
    tail -5 "$WORK/rs-joiner-$p.log" >&2
    exit 1
  fi
done

echo "== post-grow answers must be byte-identical to pre-grow"
for i in $(seq 0 $((NUSERS - 1))); do
  rs_query "u$i" >"$WORK/rs-postgrow-u$i.json"
  if ! cmp -s "$WORK/rs-pregrow-u$i.json" "$WORK/rs-postgrow-u$i.json"; then
    echo "FAIL: seeker u$i answered differently after the grow" >&2
    diff "$WORK/rs-pregrow-u$i.json" "$WORK/rs-postgrow-u$i.json" >&2
    exit 1
  fi
done

echo "== the cache hit-rate dip must be bounded: joiners were pre-warmed"
# Every seeker was cache-resident somewhere before the grow, so every
# seeker the grown ring hands a joiner was pushed to it pre-splice: the
# post-grow query sweep should hit, not rebuild. Allow a small dip.
if ! python3 -c "
import json, urllib.request
hits = misses = 0
for p in (${RS_JOINER_PORTS[0]}, ${RS_JOINER_PORTS[1]}):
    stats = json.load(urllib.request.urlopen('http://127.0.0.1:%d/v1/stats' % p, timeout=10))
    cache = stats.get('Backend', stats)['SeekerCache']
    hits += cache['Hits']; misses += cache['Misses']
assert hits >= 1, 'joiners served no cached query at all (hits=%d)' % hits
assert misses <= $((NUSERS / 4)), 'cache dip too deep: %d misses vs %d hits' % (misses, hits)
print('   joiner cache: %d hits, %d misses' % (hits, misses))
"; then
  echo "FAIL: joiners were not pre-warmed with their ring slice" >&2
  exit 1
fi

echo "== the 5-replica fleet must accept mutations"
for i in $(seq 0 9); do
  rs_tag "u$((i % NUSERS))" "grown$i" "pizza"
done
GROWNQ=no
for _ in $(seq 1 80); do
  if rs_query "u9" | grep -q grown9; then GROWNQ=yes; break; fi
  sleep 0.25
done
if [ "$GROWNQ" != "yes" ]; then
  echo "FAIL: writes at size 5 never became queryable" >&2
  exit 1
fi
sleep 0.3 # all five ride the same heartbeat; give stragglers their ack window
echo "== recording pre-shrink answers"
for i in $(seq 0 $((NUSERS - 1))); do
  rs_query "u$i" >"$WORK/rs-preshrink-u$i.json"
done

echo "== shrink back to 3: retire the joined slots over /v2/fleet/resize"
RETIRE_OUT=$(curl -fsS --max-time 30 -X POST -d '{"retire":[3,4]}' "$RS_BASE/v2/fleet/resize")
echo "   $RETIRE_OUT"
if ! echo "$RETIRE_OUT" | python3 -c "
import json, sys
out = json.load(sys.stdin)
assert sorted(out['retired']) == [3, 4], out
"; then
  echo "FAIL: resize endpoint did not retire slots 3 and 4: $RETIRE_OUT" >&2
  exit 1
fi
read -r IN_RING RETIRED <<<"$(rs_in_ring_counts)"
if [ "$IN_RING" != "3" ] || [ "$RETIRED" != "2" ]; then
  echo "FAIL: post-shrink topology is $IN_RING in-ring / $RETIRED retired, want 3/2" >&2
  exit 1
fi

echo "== post-shrink answers must be byte-identical to pre-shrink"
for i in $(seq 0 $((NUSERS - 1))); do
  rs_query "u$i" >"$WORK/rs-postshrink-u$i.json"
  if ! cmp -s "$WORK/rs-preshrink-u$i.json" "$WORK/rs-postshrink-u$i.json"; then
    echo "FAIL: seeker u$i answered differently after the shrink" >&2
    diff "$WORK/rs-preshrink-u$i.json" "$WORK/rs-postshrink-u$i.json" >&2
    exit 1
  fi
done
echo "== the shrunk fleet must still accept mutations"
rs_tag "u0" "shrunk0" "pizza"
SHRUNKQ=no
for _ in $(seq 1 80); do
  if rs_query "u19" | grep -q shrunk0; then SHRUNKQ=yes; break; fi
  sleep 0.25
done
if [ "$SHRUNKQ" != "yes" ]; then
  echo "FAIL: writes after the shrink never became queryable" >&2
  exit 1
fi

echo "== HA phase: three quorum front-ends over a fresh replica set"
HA_REPLICA_PORTS=(18091 18092 18093)
HA_FE_PORTS=(18094 18095 18096)
HA_FE_IDS=(fe1 fe2 fe3)
PEERS="fe1=http://127.0.0.1:${HA_FE_PORTS[0]},fe2=http://127.0.0.1:${HA_FE_PORTS[1]},fe3=http://127.0.0.1:${HA_FE_PORTS[2]}"
HA_REPLICAS="http://127.0.0.1:${HA_REPLICA_PORTS[0]},http://127.0.0.1:${HA_REPLICA_PORTS[1]},http://127.0.0.1:${HA_REPLICA_PORTS[2]}"

for p in "${HA_REPLICA_PORTS[@]}"; do
  "$BIN" -replica -addr "127.0.0.1:$p" >"$WORK/ha-replica-$p.log" 2>&1 &
  PIDS+=("$!")
done
HA_FE_PIDS=()
for i in 0 1 2; do
  "$BIN" -replicas "$HA_REPLICAS" -addr "127.0.0.1:${HA_FE_PORTS[$i]}" \
    -frontend-id "${HA_FE_IDS[$i]}" -peers "$PEERS" -replog-dir "$WORK/ha-replog-${HA_FE_IDS[$i]}" \
    -health-interval 150ms -fail-after 2 -bcast-window 20ms -mutation-timeout 1s \
    -admit -trace-sample 1 -pprof -log-format json \
    >"$WORK/ha-fe-${HA_FE_IDS[$i]}.log" 2>&1 &
  HA_FE_PIDS+=("$!")
  PIDS+=("$!")
done
for p in "${HA_REPLICA_PORTS[@]}" "${HA_FE_PORTS[@]}"; do wait_ready "$p"; done
# A squatter on one of our ports would pass wait_ready while the real
# front-end died on bind; insist each process came up in HA mode.
for id in "${HA_FE_IDS[@]}"; do
  if ! grep -q "HA fleet front-end" "$WORK/ha-fe-$id.log"; then
    echo "FAIL: $id did not come up as an HA front-end (port taken?): $(cat "$WORK/ha-fe-$id.log")" >&2
    exit 1
  fi
done

# ha_leader prints the index (0..2) of the front-end reporting itself
# leader on /healthz, or returns nonzero.
ha_leader() {
  for i in 0 1 2; do
    local role
    role=$(curl -fsS --max-time 5 -o /dev/null -D - "http://127.0.0.1:${HA_FE_PORTS[$i]}/healthz" 2>/dev/null |
      tr -d '\r' | awk -F': ' 'tolower($1)=="x-quorum-role"{print $2}')
    if [ "$role" = "leader" ]; then echo "$i"; return 0; fi
  done
  return 1
}

wait_ha_leader() {
  for _ in $(seq 1 60); do
    if LEADER_IDX=$(ha_leader); then return 0; fi
    sleep 0.25
  done
  echo "FAIL: HA front-ends never elected a leader" >&2
  exit 1
}
wait_ha_leader
echo "   leader is ${HA_FE_IDS[$LEADER_IDX]} (port ${HA_FE_PORTS[$LEADER_IDX]})"

# ha_write retries one mutation across the front-end set until some
# node acks it — curl -L chases the follower's 307 to the leader, and
# the retry loop rides out the election window. Writes that never ack
# are NOT recorded, so the audit below checks exactly the acked set.
ha_write() { # $1 = path, $2 = body
  for _ in $(seq 1 60); do
    for p in "${HA_FE_PORTS[@]}"; do
      if curl -fsS -L --max-time 5 -X POST -d "$2" "http://127.0.0.1:$p$1" >/dev/null 2>&1; then
        return 0
      fi
    done
    sleep 0.25
  done
  return 1
}

echo "== write storm: SIGKILL the leader mid-stream"
ha_write "/v1/friend" '{"a":"haa","b":"hab","weight":0.9}' || { echo "FAIL: seed befriend never acked" >&2; exit 1; }
: >"$WORK/ha-acked.txt"
STORM_N=40
for i in $(seq 0 $((STORM_N - 1))); do
  if [ "$i" -eq 10 ]; then
    echo "   killing leader ${HA_FE_IDS[$LEADER_IDX]}"
    kill -9 "${HA_FE_PIDS[$LEADER_IDX]}"
  fi
  if ha_write "/v1/tag" "{\"user\":\"hab\",\"item\":\"haitem$i\",\"tag\":\"pizza\"}"; then
    echo "haitem$i" >>"$WORK/ha-acked.txt"
  fi
done
ACKED=$(wc -l <"$WORK/ha-acked.txt")
if [ "$ACKED" -lt $((STORM_N - 5)) ]; then
  echo "FAIL: only $ACKED/$STORM_N storm writes acked — the fleet did not keep serving" >&2
  exit 1
fi

echo "== a follower must have won the election"
DEAD_IDX=$LEADER_IDX
wait_ha_leader
if [ "$LEADER_IDX" = "$DEAD_IDX" ]; then
  echo "FAIL: dead front-end still reported as leader" >&2
  exit 1
fi
echo "   successor is ${HA_FE_IDS[$LEADER_IDX]} (port ${HA_FE_PORTS[$LEADER_IDX]})"
SURVIVORS=()
for i in 0 1 2; do
  if [ "$i" != "$DEAD_IDX" ]; then SURVIVORS+=("$i"); fi
done

echo "== no acked mutation lost: every acked item must be queryable"
ha_query() { # $1 = fe index, $2 = seeker
  curl -fsS --max-time 10 -X POST -d "{\"seeker\":\"$2\",\"tags\":[\"pizza\"],\"k\":200,\"mode\":\"exact\"}" \
    "http://127.0.0.1:${HA_FE_PORTS[$1]}/v2/search"
}
AUDITED=no
for _ in $(seq 1 80); do
  ha_query "${SURVIVORS[0]}" haa >"$WORK/ha-answer.json" || { sleep 0.25; continue; }
  if python3 -c "
import json, sys
answer = json.load(open('$WORK/ha-answer.json'))
items = {r['item'] for r in answer['results']}
acked = [l.strip() for l in open('$WORK/ha-acked.txt') if l.strip()]
missing = [a for a in acked if a not in items]
sys.exit(1 if missing else 0)
"; then AUDITED=yes; break; fi
  sleep 0.25
done
if [ "$AUDITED" != "yes" ]; then
  echo "FAIL: acked mutations missing from post-failover answers" >&2
  python3 -c "
import json
answer = json.load(open('$WORK/ha-answer.json'))
items = {r['item'] for r in answer['results']}
acked = [l.strip() for l in open('$WORK/ha-acked.txt') if l.strip()]
print('missing:', [a for a in acked if a not in items])
" >&2
  exit 1
fi

echo "== surviving front-ends must serve byte-identical answers"
ha_query "${SURVIVORS[0]}" haa >"$WORK/ha-surv0.json"
ha_query "${SURVIVORS[1]}" haa >"$WORK/ha-surv1.json"
if ! cmp -s "$WORK/ha-surv0.json" "$WORK/ha-surv1.json"; then
  echo "FAIL: surviving front-ends answered differently" >&2
  diff "$WORK/ha-surv0.json" "$WORK/ha-surv1.json" >&2 || true
  exit 1
fi

echo "== LSN audit: survivors' committed replication logs must be identical"
LOGS_MATCH=no
for _ in $(seq 1 40); do
  curl -fsS --max-time 10 "http://127.0.0.1:${HA_FE_PORTS[${SURVIVORS[0]}]}/v2/replog?from=1" >"$WORK/ha-log0.json"
  curl -fsS --max-time 10 "http://127.0.0.1:${HA_FE_PORTS[${SURVIVORS[1]}]}/v2/replog?from=1" >"$WORK/ha-log1.json"
  if cmp -s "$WORK/ha-log0.json" "$WORK/ha-log1.json"; then LOGS_MATCH=yes; break; fi
  sleep 0.25 # a follower learns the commit index one heartbeat late
done
if [ "$LOGS_MATCH" != "yes" ]; then
  echo "FAIL: survivors' committed replication logs diverge" >&2
  diff "$WORK/ha-log0.json" "$WORK/ha-log1.json" >&2 || true
  exit 1
fi
# The committed log must cover every acked write (1 befriend + tags +
# the election term records), or an acked LSN was dropped.
if ! python3 -c "
import json
page = json.load(open('$WORK/ha-log0.json'))
acked = sum(1 for l in open('$WORK/ha-acked.txt') if l.strip())
assert page['head'] >= acked + 1, 'committed head %d < %d acked writes' % (page['head'], acked + 1)
"; then
  echo "FAIL: committed log shorter than the acked write count" >&2
  exit 1
fi

echo "== observability phase: metrics, cross-process traces, pprof, structured logs"
# The HA front-ends run -trace-sample 1 -admit -pprof -log-format json.
OBS_PORT="${HA_FE_PORTS[$LEADER_IDX]}"
OBS_ID="${HA_FE_IDS[$LEADER_IDX]}"
OBS_BASE="http://127.0.0.1:$OBS_PORT"

# (i) /metrics must be valid Prometheus text exposition and carry the
# build, tracing, admission and backend metric families.
"$OBSCHECK" -mode metrics -url "$OBS_BASE" \
  -require "friendserve_build_info,friendserve_trace_started,friendserve_trace_sampled_count,friendserve_admission_admitted,friendserve_admission_latency_count,friendserve_replicas_info,friendserve_quorum_commit_lsn"

# (ii) a batched query sent with a sampled traceparent must land in the
# flight recorder as ONE trace stitching the front-end's routing spans
# with the replica's execution spans (a span from a node != the
# front-end's).
QTRACE="4bf92f3577b34da6a3ce929d0e0e4736"
curl -fsS --max-time 10 -H "traceparent: 00-$QTRACE-00f067aa0ba902b7-01" \
  -X POST -d '{"queries":[{"seeker":"haa","tags":["pizza"],"k":5,"mode":"exact"}]}' \
  "$OBS_BASE/v2/search/batch" >/dev/null
"$OBSCHECK" -mode trace -url "$OBS_BASE" -trace-id "$QTRACE" \
  -require-spans "admission.acquire,fleet.route,fleet.rpc,social.execute" -remote-node "$OBS_ID"

# (iii) a mutation's trace must cover front-end admission and the
# quorum commit — including at least one FOLLOWER's durable-append leg,
# which rides the detached replication push via per-entry traceparents:
# the write path in one request id. It ends at the commit; delivery to
# the replicas rides the heartbeat, outside the request.
MTRACE="6c0fd2ab7e135c8b2a4f90d11e25aa04"
curl -fsS --max-time 10 -H "traceparent: 00-$MTRACE-00f067aa0ba902b7-01" \
  -X POST -d '{"user":"hab","item":"obsitem","tag":"pizza"}' "$OBS_BASE/v1/tag" >/dev/null
"$OBSCHECK" -mode trace -url "$OBS_BASE" -trace-id "$MTRACE" \
  -require-spans "admission.acquire,quorum.commit,quorum.follower.append" -remote-node "$OBS_ID"

# (iv) pprof answers when enabled.
"$OBSCHECK" -mode pprof -url "$OBS_BASE"

# (v) the structured access log carries trace ids (JSON format here).
if ! grep -q '"trace":"'"$QTRACE"'"' "$WORK/ha-fe-$OBS_ID.log"; then
  echo "FAIL: front-end access log has no JSON line for trace $QTRACE" >&2
  tail -5 "$WORK/ha-fe-$OBS_ID.log" >&2
  exit 1
fi

echo "fleet smoke test passed"
