#!/usr/bin/env python3
"""Smoke test of the benchmark itself (a minute or two; run from the root).

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json, at a tiny exec budget:
  - the untraced run prints exactly the end-to-end metrics, the traced run
    exactly the per-layer metrics, each with its declared unit and a finite
    value, and both pass their correctness checks;
  - the digest check is not vacuous: the same seed reproduces its digest
    and two different seeds give different digests (single-process
    workloads; the fleet's finds depend on sync timing by design).
Exits 1 on the first failure.
"""

import json
import math
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the build step)

TINY = ["--budget-scale", "0.02", "--seconds", "1"]


def fail(msg):
    print("FAIL: " + msg)
    sys.exit(1)


def perfbench(binary, args):
    return subprocess.run([binary] + args, cwd=run.ROOT, capture_output=True,
                          text=True, timeout=600)


def check_metrics(workload, trace, result, declared):
    if not result.get("correct"):
        fail("%s trace=%d: correctness check failed" % (workload, trace))
    if result["attempted"] < 1 or result["failed"] != 0:
        fail("%s trace=%d: attempted=%s failed=%s" %
             (workload, trace, result["attempted"], result["failed"]))
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(got) != set(want):
        fail("%s trace=%d: metrics differ: missing %s, extra %s" %
             (workload, trace, sorted(set(want) - set(got)),
              sorted(set(got) - set(want))))
    for name, m in got.items():
        if m["unit"] != want[name]:
            fail("%s: %s unit %s, declared %s" %
                 (workload, name, m["unit"], want[name]))
        if not isinstance(m["value"], (int, float)) or \
                not math.isfinite(m["value"]):
            fail("%s: %s value %r" % (workload, name, m["value"]))


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    binary = run.build()
    for w in bench["workloads"]:
        name = w["name"]
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            p = perfbench(binary, ["--workload", name, "--seed", "1",
                                   "--trace", str(trace)] + TINY)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                fail("%s trace=%d exited %d:\n%s%s" %
                     (name, trace, p.returncode, p.stdout, p.stderr))
            check_metrics(name, trace, json.loads(lines[-1]), declared)
            print("ok   %-16s trace=%d  %d metrics" %
                  (name, trace, len(declared)))
        if name.startswith("fleet"):
            continue
        p = perfbench(binary, ["--selftest-digest", "--workload", name,
                               "--seed", "1", "--budget-scale", "0.1"])
        if p.returncode != 0:
            fail("%s digest check is vacuous or irreproducible:\n%s" %
                 (name, p.stdout))
        print("ok   %-16s digest check distinguishes seeds" % name)
    print("smoke test passed")


if __name__ == "__main__":
    main()
