#!/usr/bin/env bash
# Corpus-store chaos drill: run a persisted fleet writing into a shared
# CorpusStore while a fault storm kills instances and fails store I/O,
# then SIGKILL the whole process from inside a pack compaction (right
# after the pack rename commits, leaving a stale WAL behind). Fsck the
# wreckage, resume, and assert the recovered corpus is byte-for-byte
# identical to a chaos-free baseline: same entries, same crash-triage
# rows, same trim decisions, same canonical pack bytes.
#
# This is the strongest statement the store can make: recovery is not
# merely "consistent", it is *exact* — torn WAL tails, mid-compaction
# death, instance warm-restarts, and injected I/O faults all leave no
# trace in the final corpus. CI runs this as the corpus-chaos job.
#
# Usage: scripts/corpus_chaos_drill.sh [work-dir]   (default: mktemp -d)
# Requires the corpus_drill and statecheck binaries (`cmake --build build
# --target corpus_drill statecheck`).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
DRILL="$BUILD_DIR/src/fuzzer/corpus_drill"
STATECHECK="$BUILD_DIR/src/persist/statecheck"

WORK_DIR="${1:-$(mktemp -d)}"
BASE_DIR="$WORK_DIR/baseline"
CHAOS_DIR="$WORK_DIR/chaos"
mkdir -p "$WORK_DIR"
rm -rf "$BASE_DIR" "$CHAOS_DIR"

. scripts/drill_lib.sh
trap cleanup EXIT

echo "== baseline (fault-free) =="
"$DRILL" baseline "$BASE_DIR" | tee "$WORK_DIR/baseline.txt"

echo
echo "== chaos run: instance kills + store I/O faults + compaction suicide =="
# The run mode SIGKILLs itself from the compaction hook after the pack
# rename commits, so exit status 137 is the *expected* outcome; finishing
# cleanly means the storm never reached the kill point and the drill
# proves nothing.
set +e
"$DRILL" run "$CHAOS_DIR" > "$WORK_DIR/run.txt" 2>&1
STATUS=$?
set -e
echo "chaos run exited with status $STATUS"
if [ "$STATUS" -ne 137 ]; then
  echo "FAIL: expected the mid-compaction SIGKILL (exit 137), got $STATUS" >&2
  cat "$WORK_DIR/run.txt" >&2 || true
  exit 1
fi
grep -q '^compact-kill:' "$WORK_DIR/run.txt" || {
  echo "FAIL: run died without reaching the compaction kill hook" >&2
  cat "$WORK_DIR/run.txt" >&2 || true
  exit 1
}
# The storm must have actually delivered faults before the kill — at
# least one instance SIGKILL (exercising warm restart) and at least one
# injected store I/O failure (exercising the WAL fallback paths).
grep -Eq '^compact-kill: .*kills=[1-9]' "$WORK_DIR/run.txt" || {
  echo "FAIL: no instance kills were delivered before the suicide" >&2
  cat "$WORK_DIR/run.txt" >&2 || true
  exit 1
}
grep -Eq '^compact-kill: .*io_faults=[1-9]' "$WORK_DIR/run.txt" || {
  echo "FAIL: no store I/O faults were delivered before the suicide" >&2
  cat "$WORK_DIR/run.txt" >&2 || true
  exit 1
}
grep '^compact-kill:' "$WORK_DIR/run.txt"

echo
echo "== statecheck on what the dead process left behind =="
statecheck_audit --fleet "fleet" "$CHAOS_DIR/fleet"
statecheck_audit --corpus "corpus" "$CHAOS_DIR"

echo
echo "== resume =="
"$DRILL" resume "$CHAOS_DIR" | tee "$WORK_DIR/resume.txt"
grep -q '^resumed: 1$' "$WORK_DIR/resume.txt" || {
  echo "FAIL: resume run did not replay the fleet journal" >&2
  exit 1
}

echo
echo "== comparing recovered corpus against the baseline =="
compare_outputs "resumed " "$WORK_DIR/baseline.txt" "$WORK_DIR/resume.txt" \
  baseline "after chaos recovery"
for key in corpus_entries corpus_crash_rows corpus_trim corpus_digest; do
  base_line=$(grep "^$key:" "$WORK_DIR/baseline.txt")
  res_line=$(grep "^$key:" "$WORK_DIR/resume.txt")
  if [ "$base_line" != "$res_line" ]; then
    echo "FAIL: $key diverged after chaos recovery" >&2
    echo "  baseline: $base_line" >&2
    echo "  resumed : $res_line" >&2
    exit 1
  fi
  echo "  $key ok ($base_line)"
done

echo
echo "== canonical pack byte comparison =="
cmp "$BASE_DIR/corpus.canonical" "$CHAOS_DIR/corpus.canonical" || {
  echo "FAIL: canonical corpus packs differ byte-for-byte" >&2
  exit 1
}
echo "  canonical packs byte-identical"

echo
echo "== final fsck of both stores =="
statecheck_audit --corpus "baseline corpus" "$BASE_DIR"
statecheck_audit --corpus "recovered corpus" "$CHAOS_DIR"

echo
echo "corpus chaos drill PASSED"
