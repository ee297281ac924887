#!/usr/bin/env bash
# Cluster smoke: boots a coordinator, two masters, one replica and the
# RESP proxy; registers the topology; drives traffic through the proxy and
# the smart client; checks that the master without a replica retains no
# oplog, then attaches a late replica to it, which must full-resync and
# catch up; kills a master mid-flight and verifies the replica is promoted
# with no lost keys; checks SCAN/DBSIZE key placement; then shuts
# everything down without leaking a process. Used by the CI cluster-smoke
# job; runnable locally:
#
#   ./scripts/cluster_smoke.sh ./build
set -euo pipefail

BUILD_DIR="${1:-./build}"
COORD="$BUILD_DIR/tierbase_coordinator"
SERVER="$BUILD_DIR/tierbase_server"
PROXY="$BUILD_DIR/tierbase_proxy"
CLI="$BUILD_DIR/tierbase_cli"
YCSB="$BUILD_DIR/ycsb_runner"
WORK="$(mktemp -d)"
PIDS=()

fail() { echo "CLUSTER SMOKE FAIL: $1" >&2; exit 1; }
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

for bin in "$COORD" "$SERVER" "$PROXY" "$CLI" "$YCSB"; do
  [ -x "$bin" ] || fail "missing $bin"
done

wait_port_file() { # wait_port_file <path> <pid>
  for _ in $(seq 1 100); do
    [ -s "$1" ] && return 0
    kill -0 "$2" 2>/dev/null || fail "process died during startup ($1)"
    sleep 0.1
  done
  fail "never wrote port file $1"
}

# --- Boot: coordinator + n1, n2 (masters) + r1 (replica of n1). ---
"$COORD" --port 0 --port-file "$WORK/coord.port" &
PIDS+=($!); COORD_PID=$!
"$SERVER" --port 0 --port-file "$WORK/n1.port" --cluster-id n1 &
PIDS+=($!); N1_PID=$!
"$SERVER" --port 0 --port-file "$WORK/n2.port" --cluster-id n2 &
PIDS+=($!)
"$SERVER" --port 0 --port-file "$WORK/r1.port" --cluster-id r1 &
PIDS+=($!)
wait_port_file "$WORK/coord.port" "$COORD_PID"
wait_port_file "$WORK/n1.port" "$N1_PID"
wait_port_file "$WORK/n2.port" "${PIDS[2]}"
wait_port_file "$WORK/r1.port" "${PIDS[3]}"
CP=$(cat "$WORK/coord.port"); N1=$(cat "$WORK/n1.port")
N2=$(cat "$WORK/n2.port");    R1=$(cat "$WORK/r1.port")

expect() { # expect <want> <port> <cmd...>
  local want="$1" port="$2"; shift 2
  local got
  got="$("$CLI" -p "$port" "$@")" || fail "command failed: $*"
  [ "$got" = "$want" ] || fail "command $*: got '$got', want '$want'"
}

expect "OK" "$CP" CLUSTER ADDNODE n1 127.0.0.1 "$N1"
expect "OK" "$CP" CLUSTER ADDNODE n2 127.0.0.1 "$N2"
expect "OK" "$CP" CLUSTER ADDNODE r1 127.0.0.1 "$R1" REPLICAOF n1
EPOCH0=$("$CLI" -p "$CP" CLUSTER EPOCH | tr -dc '0-9')
echo "smoke: cluster up (coord=$CP n1=$N1 n2=$N2 r1=$R1, epoch $EPOCH0)"

"$PROXY" --coordinator "127.0.0.1:$CP" --port 0 --port-file "$WORK/proxy.port" &
PIDS+=($!); PROXY_PID=$!
wait_port_file "$WORK/proxy.port" "$PROXY_PID"
PP=$(cat "$WORK/proxy.port")

# --- Data path through the proxy; placement checked via SCAN/DBSIZE. ---
KEYS=40
for i in $(seq 1 $KEYS); do
  expect "OK" "$PP" SET "smoke:$i" "v$i"
done
for i in $(seq 1 $KEYS); do
  expect "\"v$i\"" "$PP" GET "smoke:$i"
done
PROXY_GETS=$KEYS
N1_KEYS=$("$CLI" -p "$N1" DBSIZE | tr -dc '0-9')
N2_KEYS=$("$CLI" -p "$N2" DBSIZE | tr -dc '0-9')
[ "$((N1_KEYS + N2_KEYS))" -eq "$KEYS" ] || \
  fail "DBSIZE split $N1_KEYS+$N2_KEYS != $KEYS"
[ "$N1_KEYS" -gt 0 ] && [ "$N2_KEYS" -gt 0 ] || fail "one-sided key split"
SCANNED=$("$CLI" -p "$N1" SCAN 0 COUNT 1000 | grep -c 'smoke:' || true)
[ "$SCANNED" -eq "$N1_KEYS" ] || fail "SCAN saw $SCANNED of $N1_KEYS on n1"

# Replica catch-up is observable via WAIT and DBSIZE.
ACKED=$("$CLI" -p "$N1" WAIT 1 5000 | tr -dc '0-9')
[ "$ACKED" -ge 1 ] || fail "replica never acked (WAIT -> $ACKED)"
R1_KEYS=$("$CLI" -p "$R1" DBSIZE | tr -dc '0-9')
[ "$R1_KEYS" -eq "$N1_KEYS" ] || fail "replica holds $R1_KEYS != $N1_KEYS"
echo "smoke: $KEYS keys split $N1_KEYS/$N2_KEYS, replica caught up"

# --- The proxy's own METRICS: the format lints, and its GET histogram
# counts every GET sent through it. ---
GET_COUNT=$(BUILD_DIR="$BUILD_DIR" "$(dirname "$0")/metrics_scrape.sh" "$PP" \
  tierbase_cmd_get_latency_us_count) || fail "proxy METRICS scrape"
[ "$GET_COUNT" -ge "$PROXY_GETS" ] || \
  fail "proxy GET histogram counts $GET_COUNT < $PROXY_GETS GETs sent"
echo "smoke: proxy METRICS lint OK, $GET_COUNT GETs in its histogram"

# --- YCSB through both cluster paths. ---
"$YCSB" --workload A --records 5000 --ops 5000 --batch 16 \
  --cluster "127.0.0.1:$CP" | grep -q "run " || fail "smart-client YCSB"
"$YCSB" --workload A --records 5000 --ops 5000 --batch 16 \
  --remote "127.0.0.1:$PP" | grep -q "run " || fail "proxy YCSB"
echo "smoke: YCSB-A over smart client and proxy OK"

# --- n2 has no replica, so its oplog has kept no op (min = head + 1). A
# late replica's first pull then hits the gap and full-resyncs. ---
info_field() { # info_field <port> <name>
  "$CLI" -p "$1" INFO | grep -o "$2:[0-9]*" | cut -d: -f2
}
N2_HEAD=$(info_field "$N2" repl_head_seq)
N2_MIN=$(info_field "$N2" repl_min_seq)
[ "$N2_HEAD" -gt 0 ] || fail "n2 recorded no writes (head $N2_HEAD)"
[ "$N2_MIN" -eq "$((N2_HEAD + 1))" ] || \
  fail "n2 without a replica retains ops (min $N2_MIN, head $N2_HEAD)"
"$SERVER" --port 0 --port-file "$WORK/r2.port" --cluster-id r2 &
PIDS+=($!)
wait_port_file "$WORK/r2.port" "${PIDS[-1]}"
R2=$(cat "$WORK/r2.port")
expect "OK" "$CP" CLUSTER ADDNODE r2 127.0.0.1 "$R2" REPLICAOF n2
ACKED=$("$CLI" -p "$N2" WAIT 1 5000 | tr -dc '0-9')
[ "$ACKED" -ge 1 ] || fail "late replica r2 never acked (WAIT -> $ACKED)"
N2_KEYS=$("$CLI" -p "$N2" DBSIZE | tr -dc '0-9')
R2_KEYS=$("$CLI" -p "$R2" DBSIZE | tr -dc '0-9')
[ "$R2_KEYS" -eq "$N2_KEYS" ] || fail "r2 holds $R2_KEYS != n2's $N2_KEYS"
[ "$(info_field "$R2" full_resyncs)" -ge 1 ] || fail "r2 never full-resynced"
echo "smoke: n2 retained no oplog (head $N2_HEAD); late r2 resynced $R2_KEYS keys"

# --- Kill a master; the replica must take over with no lost smoke keys. ---
kill -9 "$N1_PID"
expect "OK" "$CP" CLUSTER FAIL n1
EPOCH1=$("$CLI" -p "$CP" CLUSTER EPOCH | tr -dc '0-9')
[ "$EPOCH1" -gt "$EPOCH0" ] || fail "epoch did not bump on failover"
"$CLI" -p "$R1" INFO | grep -q "role:master" || fail "replica not promoted"
# The proxy's first ops after the kill are a batch on its stale routing:
# an MSET across both shards, then an MGET that must read back the exact
# values. The round rides failure report, refresh, backoff and retry.
BATCH=16
N2_BEFORE=$("$CLI" -p "$N2" DBSIZE | tr -dc '0-9')
R1_BEFORE=$("$CLI" -p "$R1" DBSIZE | tr -dc '0-9')
MSET_ARGS=(); MGET_ARGS=(); WANT=""
for i in $(seq 1 $BATCH); do
  MSET_ARGS+=("batch:$i" "b$i"); MGET_ARGS+=("batch:$i")
  WANT+="$i) \"b$i\""$'\n'
done
expect "OK" "$PP" MSET "${MSET_ARGS[@]}"
expect "${WANT%$'\n'}" "$PP" MGET "${MGET_ARGS[@]}"
N2_GREW=$(( $("$CLI" -p "$N2" DBSIZE | tr -dc '0-9') - N2_BEFORE ))
R1_GREW=$(( $("$CLI" -p "$R1" DBSIZE | tr -dc '0-9') - R1_BEFORE ))
[ "$N2_GREW" -gt 0 ] && [ "$R1_GREW" -gt 0 ] || \
  fail "batch keys one-sided ($N2_GREW on n2, $R1_GREW on r1)"
[ "$((N2_GREW + R1_GREW))" -eq "$BATCH" ] || \
  fail "batch wrote $N2_GREW+$R1_GREW keys, want $BATCH"
[ "$(info_field "$PP" backoff_waits)" -ge 1 ] || \
  fail "the proxy's batch retried without a backoff"
for i in $(seq 1 $KEYS); do
  got=$("$CLI" -p "$PP" GET "smoke:$i")
  [ "$got" = "\"v$i\"" ] || fail "lost smoke:$i after failover (got $got)"
done
expect "OK" "$PP" SET smoke:after failover
expect "\"failover\"" "$PP" GET smoke:after
echo "smoke: master killed, replica promoted (epoch $EPOCH0 -> $EPOCH1), batch of $BATCH read back, no keys lost"

# --- FLUSHALL on each surviving node directly: the proxy does not serve
# node-local verbs. ---
if "$CLI" -p "$PP" FLUSHALL >/dev/null 2>&1; then
  fail "proxy accepted FLUSHALL"
fi
expect "OK" "$N2" FLUSHALL
expect "OK" "$R1" FLUSHALL
[ "$("$CLI" -p "$N2" DBSIZE | tr -dc '0-9')" -eq 0 ] || fail "FLUSHALL n2"

# --- Clean shutdown, no leaked processes. ---
expect "OK" "$PP" SHUTDOWN
expect "OK" "$N2" SHUTDOWN
expect "OK" "$R1" SHUTDOWN
expect "OK" "$R2" SHUTDOWN
expect "OK" "$CP" SHUTDOWN
# (pgrep -x matches the 15-char truncated comm name, which also covers
# tierbase_coordinator.)
leaked() {
  pgrep -x tierbase_server >/dev/null 2>&1 ||
    pgrep -x tierbase_proxy >/dev/null 2>&1 ||
    pgrep -x tierbase_coordi >/dev/null 2>&1
}
for _ in $(seq 1 50); do
  leaked || break
  sleep 0.1
done
if leaked; then fail "leaked cluster process"; fi
PIDS=()
echo "cluster smoke: OK"
