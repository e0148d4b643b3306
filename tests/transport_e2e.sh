#!/usr/bin/env bash
# End-to-end transport test: boots a 4-node dla_noded cluster on loopback,
# waits for every listener, then runs the driver process (hosting the TTP
# and the user node) through the paper's log -> query -> aggregate workload
# plus the hostile malformed-frame corpus (--hostile). The cluster must
# answer correctly before AND after the hostile streams; the driver prints
# PASS only when every phase verified. See docs/TRANSPORT.md.
#
# Usage: transport_e2e.sh /path/to/dla_noded
set -u

NODED="${1:?usage: transport_e2e.sh /path/to/dla_noded}"
DLA_COUNT=4
# Derive the port block from our pid so parallel ctest runs cannot collide.
# Blocks lie in [29600, 32640): below Linux's default ephemeral range
# (32768-60999), where a parallel test's outbound connection may already
# hold the port, and above tcp_transport_test's [20000, 29600).
BASE_PORT=$((29600 + ($$ % 190) * 16))
RUN_MS=120000

pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do
    kill "$pid" 2>/dev/null
  done
  wait 2>/dev/null
}
trap cleanup EXIT

echo "transport_e2e: base_port=${BASE_PORT}"

for i in $(seq 0 $((DLA_COUNT - 1))); do
  "$NODED" --index="$i" --dla-count="$DLA_COUNT" --base-port="$BASE_PORT" \
    --run-ms="$RUN_MS" &
  pids+=($!)
done

# Wait until every node listener accepts (the driver's lazy connects would
# lose frames against a not-yet-listening daemon).
for i in $(seq 0 $((DLA_COUNT - 1))); do
  port=$((BASE_PORT + i))
  for attempt in $(seq 1 100); do
    if (exec 3<>"/dev/tcp/127.0.0.1/${port}") 2>/dev/null; then
      exec 3>&- 3<&- 2>/dev/null
      break
    fi
    if [ "$attempt" -eq 100 ]; then
      echo "transport_e2e: FAIL node $i never listened on port $port"
      exit 1
    fi
    sleep 0.1
  done
done

out="$("$NODED" --drive --hostile --dla-count="$DLA_COUNT" \
  --base-port="$BASE_PORT" --run-ms="$RUN_MS" 2>&1)"
status=$?
echo "$out"

if [ "$status" -ne 0 ]; then
  echo "transport_e2e: FAIL driver exited $status"
  exit 1
fi
case "$out" in
  *PASS*) ;;
  *)
    echo "transport_e2e: FAIL driver never printed PASS"
    exit 1
    ;;
esac

# Every node daemon must still be alive after the hostile corpus.
for idx in "${!pids[@]}"; do
  if ! kill -0 "${pids[$idx]}" 2>/dev/null; then
    echo "transport_e2e: FAIL node $idx died during the run"
    exit 1
  fi
done

echo "transport_e2e: PASS"
exit 0
