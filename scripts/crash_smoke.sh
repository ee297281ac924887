#!/usr/bin/env bash
# Crash smoke, in two phases, both with per-record WAL sync:
#
#   1. write-back: loads a known baseline key set, waits until the
#      write-back tier has drained it into durable storage (INFO
#      wb_dirty:0), then kill -9s the server mid-YCSB and restarts it on
#      the same data directory (the LSM's WAL replay).
#   2. wal: loads the baseline into the cache tier's own WAL, plus 100
#      keys as 10 MSETs of 10 keys (each MSET is one WAL append), kill -9s
#      the server and restarts it (TierBase's WAL replay); INFO
#      wal_replayed_records must cover both.
#
# After each restart recovery must report zero lost synced keys (every
# baseline key reads back with its exact value), and the INFO wal_* and
# storage_wal_* recovery rows must be present and numeric.
#
# Used by the CI crash-recovery job; runnable locally:
#
#   ./scripts/crash_smoke.sh ./build
set -euo pipefail

BUILD_DIR="${1:-./build}"
SERVER="$BUILD_DIR/tierbase_server"
CLI="$BUILD_DIR/tierbase_cli"
YCSB="$BUILD_DIR/ycsb_runner"
BASELINE_KEYS="${BASELINE_KEYS:-100}"
BATCH_KEYS=100  # The wal phase's MSET keys: 10 MSETs of 10 keys.

DATA_DIR="$(mktemp -d /tmp/tb_crash_smoke.XXXXXX)"
PORT_FILE="$DATA_DIR/port"
SERVER_PID=""
YCSB_PID=""

fail() { echo "CRASH SMOKE FAIL: $1" >&2; exit 1; }
cleanup() {
  [ -n "$YCSB_PID" ] && kill -9 "$YCSB_PID" 2>/dev/null || true
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
  rm -rf "$DATA_DIR"
}
trap cleanup EXIT

[ -x "$SERVER" ] || fail "missing $SERVER"
[ -x "$CLI" ] || fail "missing $CLI"
[ -x "$YCSB" ] || fail "missing $YCSB"

# boot_server <policy> <data dir>
boot_server() {
  rm -f "$PORT_FILE"
  "$SERVER" --port 0 --port-file "$PORT_FILE" \
            --policy "$1" --dir "$2" --wal-sync every &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    [ -s "$PORT_FILE" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || fail "server died during startup"
    sleep 0.1
  done
  [ -s "$PORT_FILE" ] || fail "server never wrote the port file"
  PORT="$(cat "$PORT_FILE")"
  echo "crash-smoke: $1 server up on port $PORT (pid $SERVER_PID)"
}

# Baseline: keys whose synced durability we will assert after the crash.
load_baseline() {
  for i in $(seq 1 "$BASELINE_KEYS"); do
    out="$("$CLI" -p "$PORT" SET "stable:$i" "value-$i")" \
      || fail "SET stable:$i failed"
    [ "$out" = "OK" ] || fail "SET stable:$i: got '$out'"
  done
}

load_batches() {
  for first in $(seq 1 10 "$BATCH_KEYS"); do
    args=()
    for i in $(seq "$first" $((first + 9))); do
      args+=("batch:$i" "bvalue-$i")
    done
    out="$("$CLI" -p "$PORT" MSET "${args[@]}")" \
      || fail "MSET batch:$first.. failed"
    [ "$out" = "OK" ] || fail "MSET batch:$first..: got '$out'"
  done
}

check_batches() {
  lost=0
  for i in $(seq 1 "$BATCH_KEYS"); do
    out="$("$CLI" -p "$PORT" GET "batch:$i")" || fail "GET batch:$i failed"
    [ "$out" = "\"bvalue-$i\"" ] || { echo "lost/torn batch:$i -> $out"; lost=$((lost + 1)); }
  done
  [ "$lost" -eq 0 ] || fail "recovery lost $lost of $BATCH_KEYS MSET keys"
  echo "crash-smoke: recovery reports zero lost MSET keys"
}

kill_server() {
  echo "crash-smoke: kill -9 $SERVER_PID"
  kill -9 "$SERVER_PID"
  wait "$SERVER_PID" 2>/dev/null || true
  SERVER_PID=""
}

check_baseline() {
  lost=0
  for i in $(seq 1 "$BASELINE_KEYS"); do
    out="$("$CLI" -p "$PORT" GET "stable:$i")" || fail "GET stable:$i failed"
    [ "$out" = "\"value-$i\"" ] || { echo "lost/torn stable:$i -> $out"; lost=$((lost + 1)); }
  done
  [ "$lost" -eq 0 ] || fail "recovery lost $lost of $BASELINE_KEYS synced keys"
  echo "crash-smoke: recovery reports zero lost synced keys"
}

# Prints the numeric value of INFO row $1; fails if it is missing or not
# a number.
info_row() {
  value="$("$CLI" -p "$PORT" INFO | tr -d '\r"' | awk -F: -v row="$1" '$1==row{print $2}')"
  [[ "$value" =~ ^[0-9]+$ ]] || fail "INFO $1: expected a number, got '$value'"
  echo "$value"
}

check_recovery_rows() {
  for row in wal_replayed_records wal_truncated_tails wal_skipped_bytes \
             storage_wal_replayed_records storage_wal_truncated_tails \
             storage_wal_skipped_bytes; do
    value="$(info_row "$row")"
    echo "crash-smoke: $row:$value"
  done
}

shutdown_server() {
  out="$("$CLI" -p "$PORT" SHUTDOWN)" || fail "SHUTDOWN failed"
  [ "$out" = "OK" ] || fail "SHUTDOWN: got '$out'"
  wait "$SERVER_PID" 2>/dev/null || true
  SERVER_PID=""
}

# --- Phase 1: write-back over the LSM, killed mid-YCSB. ---
boot_server write-back "$DATA_DIR/db"
load_baseline

# Wait for the write-back tier to drain the baseline into storage; with
# --wal-sync every a drained entry is durable the moment it is flushed.
drained=""
for _ in $(seq 1 100); do
  if "$CLI" -p "$PORT" INFO | grep -q '^wb_dirty:0'; then
    drained=1
    break
  fi
  sleep 0.1
done
[ -n "$drained" ] || fail "write-back tier never drained the baseline"
echo "crash-smoke: baseline of $BASELINE_KEYS keys drained to storage"

# Background YCSB traffic so the kill lands mid-write-storm.
"$YCSB" --workload A --records 2000 --ops 200000 --batch 16 \
        --remote "127.0.0.1:$PORT" >/dev/null 2>&1 &
YCSB_PID=$!
sleep 1

kill_server
wait "$YCSB_PID" 2>/dev/null || true
YCSB_PID=""

boot_server write-back "$DATA_DIR/db"
check_baseline
check_recovery_rows
shutdown_server

# --- Phase 2: the cache tier's own WAL (wal policy). ---
boot_server wal "$DATA_DIR/wal"
load_baseline
load_batches
kill_server

boot_server wal "$DATA_DIR/wal"
check_baseline
check_batches
check_recovery_rows
replayed="$(info_row wal_replayed_records)"
[ "$replayed" -ge $((BASELINE_KEYS + BATCH_KEYS)) ] \
  || fail "wal_replayed_records $replayed < $((BASELINE_KEYS + BATCH_KEYS)) logged keys"
shutdown_server

if pgrep -x tierbase_server >/dev/null; then
  fail "leaked tierbase_server process"
fi
echo "crash-smoke: PASS"
