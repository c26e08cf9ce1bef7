#!/usr/bin/env bash
# Whole-process crash-recovery drill: SIGKILL a persisted fleet mid-run,
# fsck what it left behind with statecheck, relaunch with --resume, and
# assert the resumed run reproduces the uninterrupted baseline exactly —
# same crash union, same total exec budget. CI runs this as the
# crash-recovery job (ISSUE acceptance: whole-process resume).
#
# Usage: scripts/crash_recovery_drill.sh [work-dir]   (default: mktemp -d)
# Requires the resume_drill and statecheck binaries (`cmake --build build
# --target resume_drill statecheck`).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
DRILL="$BUILD_DIR/src/fuzzer/resume_drill"
STATECHECK="$BUILD_DIR/src/persist/statecheck"

WORK_DIR="${1:-$(mktemp -d)}"
FLEET_DIR="$WORK_DIR/fleet"
mkdir -p "$WORK_DIR"
rm -rf "$FLEET_DIR"

. scripts/drill_lib.sh
trap cleanup EXIT

echo "== baseline (fault-free, no persistence) =="
"$DRILL" baseline | tee "$WORK_DIR/baseline.txt"

echo
echo "== persisted run, SIGKILL mid-campaign =="
# The run SIGKILLs itself once the fleet has committed a fixed number of
# checkpoints (resume_drill's kKillAfterCheckpoints), so the kill lands
# mid-run, after state has been committed, however fast the host is.
"$DRILL" run "$FLEET_DIR" > "$WORK_DIR/run.txt" 2>&1 &
RUN_PID=$!
set +e
wait "$RUN_PID"
STATUS=$?
set -e
RUN_PID=""
# A run that printed its result was never killed: the comparison below
# would be vacuous, so that is a hard failure — never a silent skip.
if grep -q '^resumed:' "$WORK_DIR/run.txt"; then
  echo "FAIL: fleet finished before the kill; drill proves nothing" >&2
  cat "$WORK_DIR/run.txt"
  exit 1
fi
if ! compgen -G "$FLEET_DIR/instance-*/snap-*.bms" > /dev/null; then
  echo "FAIL: no checkpoints appeared before the kill; the kill" >&2
  echo "      did not land mid-run and the drill would prove nothing" >&2
  cat "$WORK_DIR/run.txt" >&2 || true
  exit 1
fi
echo "fleet killed (exit status $STATUS)"
if [ "$STATUS" -ne 137 ]; then
  echo "FAIL: expected SIGKILL exit status 137, got $STATUS" >&2
  exit 1
fi

echo
echo "== statecheck on what the dead process left behind =="
statecheck_audit --fleet fleet "$FLEET_DIR"

echo
echo "== resume =="
"$DRILL" resume "$FLEET_DIR" | tee "$WORK_DIR/resume.txt"
grep -q '^resumed: 1$' "$WORK_DIR/resume.txt" || {
  echo "FAIL: resume run did not replay the fleet journal" >&2
  exit 1
}

echo
echo "== comparing resumed run against the baseline =="
compare_outputs "resumed " "$WORK_DIR/baseline.txt" "$WORK_DIR/resume.txt" \
  baseline "after crash recovery"

echo
echo "crash-recovery drill PASSED"
