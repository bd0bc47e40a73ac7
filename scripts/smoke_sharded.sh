#!/usr/bin/env bash
# Multi-process sharded smoke: one flserver coordinator, three flselector
# shards, and an fldevices swarm over real loopback TCP must commit at
# least two rounds end-to-end. CI runs this; it also works locally:
#
#	./scripts/smoke_sharded.sh
#
# The coordinator exits by itself once -rounds rounds commit, so "the
# coordinator process finished and printed the committed-round summary"
# IS the assertion; everything else is torn down afterwards.
set -eu

# 100 rounds (not 2) so the run outlives the selectors' telemetry cadence:
# rounds commit at roughly a dozen per second on a loaded CI box, while
# check-in-rate probes fire every 1s and TelemetrySnapshots every 2s. The
# /metrics poll below needs at least one of each to land before the
# coordinator commits its last round and exits, so the run must stay up
# for several seconds.
ROUNDS=100
COORD=127.0.0.1:8760
OBS_COORD=127.0.0.1:8770
OBS_SHARD0=127.0.0.1:8771
LOGS=$(mktemp -d)
BIN=$(mktemp -d)

go build -o "$BIN" ./cmd/flserver ./cmd/flselector ./cmd/fldevices

cleanup() {
	# shellcheck disable=SC2046
	kill $(jobs -p) 2>/dev/null || true
	wait 2>/dev/null || true
}
fail() {
	echo "SMOKE FAILED: $1"
	for f in "$LOGS"/*.log; do
		echo "---- $f ----"
		tail -n 30 "$f"
	done
	exit 1
}
trap cleanup EXIT

# -clip runs the task under the norm-bound robust policy end-to-end: the
# bound is tight enough that real training updates exceed it, so every
# shard clips at its edge and the seals carry the counts upstream.
"$BIN/flserver" -shard-listen "$COORD" -population gboard -rounds "$ROUNDS" \
	-target 16 -min-shards 3 -clip 0.001 -obs-listen "$OBS_COORD" >"$LOGS/coord.log" 2>&1 &
COORD_PID=$!
sleep 1

for i in 0 1 2; do
	OBS_FLAG=""
	[ "$i" = 0 ] && OBS_FLAG="-obs-listen $OBS_SHARD0"
	# shellcheck disable=SC2086
	"$BIN/flselector" -coordinator "$COORD" -addr 127.0.0.1:$((8751 + i)) \
		-shard "$i" $OBS_FLAG >"$LOGS/shard$i.log" 2>&1 &
done
sleep 1

"$BIN/fldevices" -addr 127.0.0.1:8751,127.0.0.1:8752,127.0.0.1:8753 \
	-population gboard -devices 48 -duration 3m >"$LOGS/devices.log" 2>&1 &

# While the run is in flight, poll the coordinator's /metrics until it
# aggregates the whole deployment: its own round counters, its per-shard
# derived series, and series shipped in TelemetrySnapshots from the shards
# (recognizable by the injected shard="N" label).
COORD_METRICS_OK=0
for _ in $(seq 600); do
	if curl -sf "http://$OBS_COORD/metrics" >"$LOGS/coord-metrics.txt" 2>/dev/null &&
		grep -q '^fl_rounds_committed_total ' "$LOGS/coord-metrics.txt" &&
		grep -q '^fl_shard_seal_seconds{' "$LOGS/coord-metrics.txt" &&
		grep -q '^fl_shard_checkin_rate{' "$LOGS/coord-metrics.txt" &&
		grep -q 'fl_seals_shipped_total{shard="' "$LOGS/coord-metrics.txt" &&
		grep -q 'fl_robust_clipped_total{shard="' "$LOGS/coord-metrics.txt"; then
		COORD_METRICS_OK=1
		break
	fi
	kill -0 "$COORD_PID" 2>/dev/null || break
	sleep 0.2
done
[ "$COORD_METRICS_OK" = 1 ] ||
	fail "coordinator /metrics never aggregated round, per-shard seal, check-in-rate, shipped and robust-clip shard series"

curl -sf "http://$OBS_SHARD0/metrics" >"$LOGS/shard0-metrics.txt" ||
	fail "shard 0 /metrics unreachable"
grep -q '^fl_checkins_total ' "$LOGS/shard0-metrics.txt" ||
	fail "shard 0 /metrics missing fl_checkins_total"
grep -q '^fl_seals_shipped_total ' "$LOGS/shard0-metrics.txt" ||
	fail "shard 0 /metrics missing fl_seals_shipped_total"
grep -q 'fl_robust_clipped_total{task="gboard/train"}' "$LOGS/shard0-metrics.txt" ||
	fail "shard 0 /metrics missing per-task robust clip counter"

for _ in $(seq 120); do
	kill -0 "$COORD_PID" 2>/dev/null || break
	sleep 1
done
kill -0 "$COORD_PID" 2>/dev/null && fail "coordinator still running after 120s"
wait "$COORD_PID" || fail "coordinator exited non-zero"

grep -q "done: $ROUNDS rounds committed" "$LOGS/coord.log" ||
	fail "coordinator summary missing '$ROUNDS rounds committed'"
echo "SMOKE OK:"
grep "done:" "$LOGS/coord.log"
