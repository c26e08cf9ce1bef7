#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The binary is built (Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; the first run
builds it, later runs only rebuild what changed. Build output goes to
standard error, so the last line of standard output is the binary's JSON
result. Exits non-zero without a result when the program's sources are
missing or the build fails.
"""

import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: program sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.isfile(cache):
        # A cache configured from another source tree cannot be reused.
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = [line.split("=", 1)[1].strip() for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [BENCH_DIR]:
            shutil.rmtree(out)
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def main(argv):
    binary = build()
    work_dir = os.path.join(build_dir(), "work-%d" % os.getpid())
    # The binary runs as a fresh child rather than replacing this process:
    # a process's peak-RSS accounting of its children would otherwise
    # include the compiler runs of the build above. Its standard output and
    # exit code are the benchmark's; signals are passed on so it never
    # outlives this process.
    child = subprocess.Popen([binary] + argv + ["--work-dir", work_dir],
                             cwd=ROOT)

    def forward(sig, _frame):
        child.send_signal(sig)

    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, forward)
    sys.exit(child.wait())


if __name__ == "__main__":
    main(sys.argv[1:])
