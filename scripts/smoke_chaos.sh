#!/usr/bin/env bash
# Chaos smoke: the real multi-process deployment — one flserver coordinator,
# three flselector shards, an fldevices swarm over loopback TCP — driven
# through a seeded fault schedule on every shard↔coordinator link (5% drop +
# 200ms jitter), a scripted mid-run partition of shard 1, and a scheduled
# connection reset of shard 2, must still commit every round. CI runs this;
# it also works locally:
#
#	./scripts/smoke_chaos.sh
#
# The fault schedule is deterministic: each shard logs its plan as
# "chaos: seed=N SPEC", so a failure is reproduced by rerunning with
# -chaos "seed=N SPEC".
set -eu

ROUNDS=12
SEED=42
COORD=127.0.0.1:8860
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

# Short seal grace + fast ticks keep partial rounds settling while a shard
# is partitioned away, instead of stalling the fleet on its missing seal.
"$BIN/flserver" -shard-listen "$COORD" -population gboard -rounds "$ROUNDS" \
	-target 16 -min-shards 3 -seal-grace 1s -tick-every 100ms \
	-report-timeout 5s >"$LOGS/coord.log" 2>&1 &
COORD_PID=$!
sleep 1

# Every shard link drops 5% of messages and jitters the rest by up to
# 200ms; shard 1 additionally loses its coordinator link to a 6s partition
# window, and shard 2 takes one scheduled connection reset. The links'
# heartbeat budget (500ms × 4) tolerates the jitter while still detecting
# the partition inside the window.
BASE="shard:drop=0.05,jitter=200ms"
for i in 0 1 2; do
	SPEC="$BASE"
	[ "$i" = 1 ] && SPEC="$BASE;shard:1:partition@3s+6s"
	[ "$i" = 2 ] && SPEC="$BASE;shard:2:reset@2s"
	"$BIN/flselector" -coordinator "$COORD" -addr 127.0.0.1:$((8851 + i)) \
		-shard "$i" \
		-chaos "seed=$SEED $SPEC" >"$LOGS/shard$i.log" 2>&1 &
done
sleep 1

"$BIN/fldevices" -addr 127.0.0.1:8851,127.0.0.1:8852,127.0.0.1:8853 \
	-population gboard -devices 48 -duration 3m >"$LOGS/devices.log" 2>&1 &

for _ in $(seq 180); do
	kill -0 "$COORD_PID" 2>/dev/null || break
	sleep 1
done
kill -0 "$COORD_PID" 2>/dev/null && fail "coordinator still running after 180s"
wait "$COORD_PID" || fail "coordinator exited non-zero"

grep -q "done: $ROUNDS rounds committed" "$LOGS/coord.log" ||
	fail "coordinator summary missing '$ROUNDS rounds committed'"

# The reproduction seed and the full fault plan must be in every shard log.
for i in 0 1 2; do
	grep -q "chaos: seed=$SEED" "$LOGS/shard$i.log" ||
		fail "shard $i log missing its chaos seed line"
done
# The schedule actually engaged: jitter/drop everywhere, the partition on
# shard 1, the reset on shard 2 (fault counters are logged every 2s).
grep -Eq "chaos faults:.*(delay|drop)=" "$LOGS/shard0.log" ||
	fail "shard 0 recorded no drop/delay faults"
grep -q "chaos faults:.*partition" "$LOGS/shard1.log" ||
	fail "shard 1 never hit its partition window"
grep -q "chaos faults:.*reset=" "$LOGS/shard2.log" ||
	fail "shard 2 never fired its scheduled reset"

echo "SMOKE OK (chaos seed $SEED):"
grep "done:" "$LOGS/coord.log"
grep -h "chaos faults:" "$LOGS"/shard*.log | tail -n 3
