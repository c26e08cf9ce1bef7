#!/usr/bin/env bash
# Federation chaos drill: every stage of the net_drill campaign shape
# (planted-bug workers, 10k execs each, deterministic timing), comparing a
# federation of forked coordinators — each a FailoverMesh node joined by
# fault-injected loopback PeerLinks — against one local fleet of the same
# total width. Each federated stage must reproduce its baseline's
# find-union and exec budget exactly.
#
# Pair stages (4 workers in total; content-hash filtering, no elections):
#
#   1. single          — one 4-worker fleet, no network; the reference
#   2. pair            — 2 coordinators x 2 workers, clean network
#   3. pair-storm      — the full network storm (seeded frame drops,
#                        delays, torn-frame short writes, connection
#                        resets, a partition)
#   4. pair-partition  — a long partition-and-heal; both sides keep
#                        fuzzing through the cut and reconcile on heal
#
# Star stages (6 workers; the virgin-map novelty oracle gates every link):
#
#   5. single-wide     — one 6-worker fleet; the star reference
#   6. star            — hub + 2 spokes, 2 workers each, clean network
#   7. star-storm      — the same star under the network storm
#
# Failover stages (8 workers, stretched campaigns; 4 ranks with the oracle,
# incremental delta sync and elections on every link):
#
#   8. single-8        — one 8-worker fleet; the failover reference
#   9. star4           — clean network, no failures; epoch stays 1
#  10. failover-kill   — rank 0 (the founding leader) SIGKILLs its process
#                        group once it has applied its first oracle delta;
#                        rank 1 is elected into epoch 2, the spokes
#                        re-home, and the resurrected victim rejoins the
#                        new epoch as a spoke
#  11. failover-stale  — same kill, but the victim resurrects stale-fatal:
#                        it must observe the newer epoch and latch fenced,
#                        while its local fleet still finishes its budget
#  12. failover-storm  — the kill plus a seeded network storm (drops,
#                        delays, torn frames, resets) on the survivors
#                        while they elect
#
# Every fault fires at a point of campaign progress (records put on the
# wire, oracle deltas applied), never by the clock. net_drill self-checks
# that each fault engaged and exits non-zero when a stage proved nothing;
# this script additionally asserts the headline diagnostics and runs
# statecheck over every federated stage's wreckage — the federation WAL
# each rank journaled must decode with monotone epochs and well-formed
# deltas. CI runs this as the net-chaos job.
#
# Usage: scripts/net_chaos_drill.sh [work-dir]   (default: mktemp -d)
# Requires net_drill and statecheck
# (`cmake --build build --target net_drill statecheck`).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
DRILL="$BUILD_DIR/src/fuzzer/net_drill"
STATECHECK="$BUILD_DIR/src/persist/statecheck"

WORK_DIR="${1:-$(mktemp -d)}"
mkdir -p "$WORK_DIR"
rm -rf "$WORK_DIR/single" "$WORK_DIR/pair" "$WORK_DIR/storm" \
  "$WORK_DIR/partition" "$WORK_DIR/single_wide" "$WORK_DIR/star" \
  "$WORK_DIR/star_storm" "$WORK_DIR/single_8" "$WORK_DIR/star4" \
  "$WORK_DIR/kill" "$WORK_DIR/stale" "$WORK_DIR/fo_storm"

. scripts/drill_lib.sh
trap cleanup EXIT

# Runs one federated stage: outputs to <name>.txt, diagnostics to
# <name>.diag, both echoed (to stderr when the stage fails).
run_stage() {
  local mode=$1 name=$2 status=0
  "$DRILL" "$mode" "$WORK_DIR/$name" > "$WORK_DIR/$name.txt" \
    2> "$WORK_DIR/$name.diag" || status=$?
  if [ "$status" -ne 0 ]; then
    cat "$WORK_DIR/$name.txt" "$WORK_DIR/$name.diag" >&2
    echo "FAIL: net_drill $mode exited with status $status" >&2
    exit 1
  fi
  cat "$WORK_DIR/$name.txt" "$WORK_DIR/$name.diag"
}

# Audits the federation WALs a stage left behind: every rank journal must
# decode, epochs must be monotone, every delta record well-formed.
audit_wreckage() {
  local label=$1 dir=$2
  statecheck_audit --corpus "$label" "$dir"
  if ! grep -q "federation.wal: ok" "$dir.fsck"; then
    echo "FAIL: $label left no federation WAL to audit" >&2
    exit 1
  fi
}

echo "== single fleet (no network) =="
"$DRILL" single "$WORK_DIR/single" | tee "$WORK_DIR/single.txt"

echo
echo "== federated pair, clean network =="
run_stage pair pair
compare_outputs pair "$WORK_DIR/single.txt" "$WORK_DIR/pair.txt" single
# The clean pair must actually exchange corpus over the wire.
grep -qE 'sent=[1-9]' "$WORK_DIR/pair.diag" || {
  echo "FAIL: clean pair shipped no records" >&2
  exit 1
}
audit_wreckage pair "$WORK_DIR/pair"

echo
echo "== federated pair under full network storm =="
run_stage pair-storm storm
compare_outputs storm "$WORK_DIR/single.txt" "$WORK_DIR/storm.txt" single
# Every injected failure class must have fired somewhere in the storm.
for pat in 'drops=[1-9]' 'short_writes=[1-9]' 'resets=[1-9]' \
  'partitions=[1-9]' 'reconnects=[1-9]'; do
  grep -qE "$pat" "$WORK_DIR/storm.diag" || {
    echo "FAIL: storm diagnostics missing $pat" >&2
    cat "$WORK_DIR/storm.diag" >&2
    exit 1
  }
done
audit_wreckage storm "$WORK_DIR/storm"

echo
echo "== federated pair with mid-campaign partition-and-heal =="
run_stage pair-partition partition
compare_outputs partition "$WORK_DIR/single.txt" "$WORK_DIR/partition.txt" \
  single
# The cut side must report the partition; the other side must have
# detected the silence (timeouts) and healed the session (reconnects).
grep -qE 'partition_ms=[1-9]' "$WORK_DIR/partition.diag" || {
  echo "FAIL: no partition time was recorded" >&2
  exit 1
}
grep -qE 'reconnects=[1-9]' "$WORK_DIR/partition.diag" || {
  echo "FAIL: the partition never healed (no reconnects)" >&2
  exit 1
}
audit_wreckage partition "$WORK_DIR/partition"

echo
echo "== single wide fleet (6 workers, no network) =="
"$DRILL" single-wide "$WORK_DIR/single_wide" | tee "$WORK_DIR/single_wide.txt"

echo
echo "== 3-node star federation, virgin-map oracle, clean network =="
run_stage star star
compare_outputs star "$WORK_DIR/single_wide.txt" "$WORK_DIR/star.txt" single
# The star must exchange corpus and the novelty oracle must both engage
# and actually suppress coverage duplicates.
grep -qE 'sent=[1-9]' "$WORK_DIR/star.diag" || {
  echo "FAIL: star shipped no records" >&2
  exit 1
}
grep -qE 'oracle checked=[1-9]' "$WORK_DIR/star.diag" || {
  echo "FAIL: star oracle never engaged" >&2
  exit 1
}
grep -qE 'rejected=[1-9]' "$WORK_DIR/star.diag" || {
  echo "FAIL: star oracle rejected nothing (gate is a no-op)" >&2
  exit 1
}
audit_wreckage star "$WORK_DIR/star"

echo
echo "== 3-node star federation under network storm =="
run_stage star-storm star_storm
compare_outputs star-storm "$WORK_DIR/single_wide.txt" \
  "$WORK_DIR/star_storm.txt" single
grep -qE 'reconnects=[1-9]' "$WORK_DIR/star_storm.diag" || {
  echo "FAIL: star storm forced no reconnects" >&2
  exit 1
}
audit_wreckage star-storm "$WORK_DIR/star_storm"

echo
echo "== single fleet (8 workers, no network) =="
"$DRILL" single-8 "$WORK_DIR/single_8" | tee "$WORK_DIR/single_8.txt"

echo
echo "== 4-rank failover federation, clean network =="
run_stage star4 star4
compare_outputs star4 "$WORK_DIR/single_8.txt" "$WORK_DIR/star4.txt" single
# The clean federation must ship corpus and delta-sync the oracle models;
# nothing may have been elected.
grep -qE 'deltas_applied=[1-9]' "$WORK_DIR/star4.diag" || {
  echo "FAIL: clean star4 applied no oracle deltas" >&2
  exit 1
}
grep -qE 'elections=[1-9]' "$WORK_DIR/star4.diag" && {
  echo "FAIL: clean star4 held an election" >&2
  exit 1
}
audit_wreckage star4 "$WORK_DIR/star4"

echo
echo "== leader SIGKILL: election, re-home, victim rejoins =="
run_stage failover-kill kill
compare_outputs failover-kill "$WORK_DIR/single_8.txt" "$WORK_DIR/kill.txt" \
  single
# The survivors must have elected into a new epoch, the promoted hub must
# have rebuilt oracle state from deltas, and the victim must have rejoined.
grep -qE 'elections=[1-9]' "$WORK_DIR/kill.diag" || {
  echo "FAIL: leader kill triggered no election" >&2
  exit 1
}
grep -qE 'epoch=2' "$WORK_DIR/kill.diag" || {
  echo "FAIL: the epoch never advanced past the kill" >&2
  exit 1
}
grep -qE 'rejoins=[1-9]' "$WORK_DIR/kill.diag" || {
  echo "FAIL: the resurrected leader never rejoined" >&2
  exit 1
}
grep -qE 'deltas_applied=[1-9]' "$WORK_DIR/kill.diag" || {
  echo "FAIL: the promoted hub applied no oracle deltas" >&2
  exit 1
}
audit_wreckage failover-kill "$WORK_DIR/kill"

echo
echo "== leader SIGKILL with stale resurrection: must fence =="
run_stage failover-stale stale
compare_outputs failover-stale "$WORK_DIR/single_8.txt" \
  "$WORK_DIR/stale.txt" single
# The stale victim must latch fenced, and the new leader must have seen
# and dropped its stale hello.
grep -qE 'fenced=[1-9]' "$WORK_DIR/stale.diag" || {
  echo "FAIL: the stale node never fenced" >&2
  exit 1
}
grep -qE 'stale_hellos=[1-9]' "$WORK_DIR/stale.diag" || {
  echo "FAIL: no stale hello was ever dropped" >&2
  exit 1
}
audit_wreckage failover-stale "$WORK_DIR/stale"

echo
echo "== leader SIGKILL under network storm =="
run_stage failover-storm fo_storm
compare_outputs failover-storm "$WORK_DIR/single_8.txt" \
  "$WORK_DIR/fo_storm.txt" single
grep -qE 'elections=[1-9]' "$WORK_DIR/fo_storm.diag" || {
  echo "FAIL: storm stage held no election" >&2
  exit 1
}
grep -qE 'reconnects=[1-9]' "$WORK_DIR/fo_storm.diag" || {
  echo "FAIL: the storm forced no reconnects" >&2
  exit 1
}
audit_wreckage failover-storm "$WORK_DIR/fo_storm"

echo
echo "net chaos drill PASSED"
