#!/usr/bin/env bash
# Multi-process fleet chaos drill (ISSUE acceptance: chaos). Three stages
# over the fixed fleet_drill configuration (4 forked workers, planted-bug
# target, deterministic timing):
#
#   1. baseline   — chaos-free fleet; reference find-union + exec budget
#   2. storm      — seeded kill/stall/mid-publish/mmap-fail storm; output
#                   must equal the baseline exactly
#   3. storm-run  — the storm with the coordinator SIGKILLing itself
#                   mid-campaign, once the workers' summed execs reach a
#                   fixed count; then `fleet_drill resume` replays the
#                   journal and the resumed output must also equal baseline
#
# Finishes by running statecheck --fleet over every fleet dir the drill
# produced. CI runs this as the fleet-chaos job.
#
# Usage: scripts/fleet_chaos_drill.sh [work-dir]   (default: mktemp -d)
# Requires the fleet_drill and statecheck binaries (`cmake --build build
# --target fleet_drill statecheck`).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
DRILL="$BUILD_DIR/src/fuzzer/fleet_drill"
STATECHECK="$BUILD_DIR/src/persist/statecheck"

WORK_DIR="${1:-$(mktemp -d)}"
mkdir -p "$WORK_DIR"
rm -rf "$WORK_DIR/baseline" "$WORK_DIR/storm" "$WORK_DIR/kill"

. scripts/drill_lib.sh
trap cleanup EXIT

echo "== baseline (chaos-free process fleet) =="
"$DRILL" baseline "$WORK_DIR/baseline" | tee "$WORK_DIR/baseline.txt"

echo
echo "== chaos storm (worker kills, stalls, mid-publish exits, shm fail) =="
"$DRILL" storm "$WORK_DIR/storm" | tee "$WORK_DIR/storm.txt"

echo
echo "== storm output vs baseline =="
compare_outputs storm "$WORK_DIR/baseline.txt" "$WORK_DIR/storm.txt"

echo
echo "== storm with coordinator SIGKILL mid-campaign =="
# The coordinator SIGKILLs itself once its workers' summed execs, read from
# their shm heartbeats, reach fleet_drill's kKillAfterExecs (several
# checkpoint intervals), so the kill lands mid-run, after durable state has
# been committed, however fast the host is.
"$DRILL" storm-run "$WORK_DIR/kill" > "$WORK_DIR/kill_run.txt" 2>&1 &
RUN_PID=$!
set +e
wait "$RUN_PID"
STATUS=$?
set -e
RUN_PID=""
if grep -q '^resumed:' "$WORK_DIR/kill_run.txt"; then
  echo "FAIL: fleet finished before the coordinator kill; drill proves" >&2
  echo "      nothing (storm-run should take much longer than this)" >&2
  cat "$WORK_DIR/kill_run.txt" >&2
  exit 1
fi
if ! compgen -G "$WORK_DIR/kill/instance-*/snap-*.bms" > /dev/null; then
  echo "FAIL: no checkpoints appeared before the kill window closed;" >&2
  echo "      the coordinator-kill stage cannot prove anything" >&2
  cat "$WORK_DIR/kill_run.txt" >&2 || true
  exit 1
fi
echo "coordinator killed (exit status $STATUS)"
if [ "$STATUS" -ne 137 ]; then
  echo "FAIL: expected SIGKILL exit status 137, got $STATUS" >&2
  exit 1
fi
# The dead coordinator's forked workers are now orphans; reap them so the
# resume run owns the fleet directory exclusively.
cleanup

echo
echo "== statecheck on what the dead coordinator left behind =="
statecheck_audit --fleet kill "$WORK_DIR/kill"

echo
echo "== resume after coordinator kill =="
"$DRILL" resume "$WORK_DIR/kill" | tee "$WORK_DIR/resume.txt"
grep -q '^resumed: 1$' "$WORK_DIR/resume.txt" || {
  echo "FAIL: resume run did not replay the fleet journal" >&2
  exit 1
}

echo
echo "== resumed output vs baseline =="
compare_outputs resume "$WORK_DIR/baseline.txt" "$WORK_DIR/resume.txt"

echo
echo "== statecheck on every fleet dir the drill produced =="
for d in baseline storm kill; do
  echo "-- $WORK_DIR/$d"
  statecheck_audit --fleet "$d" "$WORK_DIR/$d"
done

echo
echo "fleet chaos drill PASSED"
