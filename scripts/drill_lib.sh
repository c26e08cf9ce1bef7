# Shared helpers for the chaos drill scripts. Source it after setting
# DRILL (the drill binary) and, for statecheck_audit, STATECHECK:
#
#   . "$(dirname "$0")/drill_lib.sh"
#
# cleanup            EXIT trap: SIGKILLs $RUN_PID (a backgrounded drill
#                    run, when set) and every process named like $DRILL,
#                    then polls until they are actually gone
# compare_outputs    equality of the diff-friendly drill output tails
# statecheck_audit   fsck of the state a drill stage left behind

RUN_PID=""

cleanup() {
  if [ -n "$RUN_PID" ] && kill -0 "$RUN_PID" 2> /dev/null; then
    kill -9 "$RUN_PID" 2> /dev/null || true
  fi
  # Coordinators fork their workers (and federations their nodes) as
  # separate processes of the same binary; -x matches the exact binary
  # name only, never this shell's own command line. pkill alone only
  # QUEUES the signal — a coordinator reaping its own workers can outlive
  # the script and leave orphans holding state or listener ports, so poll
  # until every process is actually gone (bounded; SIGKILL is not
  # ignorable, lingering past it means something is stuck in the kernel).
  local name
  name=$(basename "$DRILL")
  pkill -9 -x "$name" 2> /dev/null || true
  for _ in $(seq 1 50); do
    pgrep -x "$name" > /dev/null 2>&1 || return 0
    sleep 0.1
  done
  echo "WARN: orphaned $name processes survived cleanup" >&2
  pgrep -ax "$name" >&2 || true
}

# compare_outputs <label> <base-file> <got-file> [<base-name>] [<why>]
# Compares the bug_ids / stack_hashes / total_execs / all_completed lines
# of two drill outputs; any divergence is a drill failure (the fault
# changed what the fleet finds or how much budget it delivers). Failure
# lines read "FAIL: <key> diverged <why>" (default "(<label>)"), then the
# two lines labelled <base-name> (default "baseline") and <label>.
compare_outputs() {
  local label=$1 base=$2 got=$3 base_name=${4:-baseline} why=${5:-"($1)"}
  local key base_line got_line
  for key in bug_ids stack_hashes total_execs all_completed; do
    base_line=$(grep "^$key:" "$base")
    got_line=$(grep "^$key:" "$got")
    if [ "$base_line" != "$got_line" ]; then
      echo "FAIL: $key diverged $why" >&2
      echo "  $base_name: $base_line" >&2
      echo "  $label: $got_line" >&2
      exit 1
    fi
    echo "  $key ok ($base_line)"
  done
}

# statecheck_audit <--fleet|--corpus> <label> <dir>
# Runs statecheck over a stage's state, keeps the report in <dir>.fsck and
# prints it; a rejection fails the drill with the report on stderr.
statecheck_audit() {
  local mode=$1 label=$2 dir=$3
  if ! "$STATECHECK" "$mode" "$dir" > "$dir.fsck" 2>&1; then
    echo "FAIL: statecheck rejected the $label wreckage" >&2
    cat "$dir.fsck" >&2
    exit 1
  fi
  sed 's/^/  /' "$dir.fsck"
}
