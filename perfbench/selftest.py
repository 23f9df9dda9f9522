#!/usr/bin/env python3
"""Self-test of the benchmark at tiny length.

    python3 perfbench/selftest.py

For every workload, untraced and traced at --seconds 1: the result line
has exactly the contract's keys, every metric of BENCHMARK.json is
printed by name with its unit (and a statistic with its sample count),
and every output check passes. Then, per workload, one compared output
is corrupted by a single byte (--inject-corruption) and the run must
count it in fail_frac. Finally the benchmark must refuse to run, with a
non-zero exit and no result, in a copy holding only BENCHMARK.json and
perfbench/. Exits non-zero on the first failure.
"""

import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def run(workload, trace, extra=(), cwd=ROOT, script=RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace)] + list(extra)
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=900)
    return p.returncode, p.stdout.splitlines(), p.stderr


def fail(msg):
    print("FAIL: " + msg)
    sys.exit(1)


def check_result(workload, trace, lines):
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (workload, sorted(result)))
    want = BENCH["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in want]
    if list(result["metrics"]) != names:
        fail("%s trace=%d: metrics %s, want %s"
             % (workload, trace, list(result["metrics"]), names))
    for m in want:
        got = result["metrics"][m["name"]]
        if got["unit"] != m["unit"]:
            fail("%s: %s unit %s, want %s"
                 % (workload, m["name"], got["unit"], m["unit"]))
        pat = re.compile(r"^metric %s\s+\S+\s+%s(\s|$)"
                         % (re.escape(m["name"]), re.escape(m["unit"])))
        line = [ln for ln in lines if pat.match(ln)]
        if not line:
            fail("%s: no metric line for %s" % (workload, m["name"]))
        if not trace:
            if not got["value"] > 0:
                fail("%s: %s is %r" % (workload, m["name"], got["value"]))
            if "n=" not in line[0] and "max" not in line[0] and \
                    "VmHWM" not in line[0]:
                fail("%s: no statistic on %r" % (workload, line[0]))
    if not any(ln.startswith("metric fail_frac") for ln in lines):
        fail("%s: no fail_frac line" % workload)
    if not any(ln.startswith("context ") and "simd=" in ln and
               "build=Release" in ln for ln in lines):
        fail("%s: no host/build context line" % workload)
    return result


def main():
    for workload in [w["name"] for w in BENCH["workloads"]]:
        for trace in (0, 1):
            rc, lines, err = run(workload, trace)
            if rc != 0 or not lines:
                fail("%s trace=%d exited %d\n%s" % (workload, trace, rc,
                                                   err[-2000:]))
            r = check_result(workload, trace, lines)
            if not r["correct"] or r["failed"] != 0:
                fail("%s trace=%d: %d/%d failed\n%s"
                     % (workload, trace, r["failed"], r["attempted"],
                        err[-2000:]))
            print("ok   %-12s trace=%d  %d operations, all checks pass"
                  % (workload, trace, r["attempted"]))
        rc, lines, err = run(workload, 0, ["--inject-corruption"])
        r = check_result(workload, 0, lines)
        frac = [ln for ln in lines if ln.startswith("metric fail_frac")]
        if rc != 0 or r["correct"] or r["failed"] < 1 or \
                float(frac[0].split()[2]) <= 0:
            fail("%s: injected corruption not counted (%s)"
                 % (workload, lines[-1]))
        print("ok   %-12s one corrupted byte -> failed=%d"
              % (workload, r["failed"]))

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"))
    rc, lines, _ = run(BENCH["workloads"][0]["name"], 0, cwd=bare,
                       script=os.path.join(bare, "perfbench", "run.py"))
    shutil.rmtree(bare, ignore_errors=True)
    if rc == 0 or any(ln.startswith("{") for ln in lines):
        fail("benchmark ran without the repository sources")
    print("ok   refuses to run without the repository sources")


if __name__ == "__main__":
    main()
