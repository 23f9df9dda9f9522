#!/usr/bin/env python3
"""Build the benchmark program from this checkout's sources and run one
workload.

    python3 perfbench/run.py --workload paper_sweep --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --length-split

The benchmark program and the hirise_served daemon are compiled in
Release (the pinned build type) under .bench_build/ at the checkout
root; the first run configures and builds, later runs only re-check the
build. Every line the program prints goes to stdout; the last one is
the JSON result. Build output goes to stderr. See perfbench/README.md for the workloads
and metrics.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-run")
WORKLOADS = ("paper_sweep", "cmp_noc", "serve_mix")
# Sources the benchmark is built from; their digest stamps every result
# (the checkout the benchmark runs in need not be a git repository).
SOURCES = ("CMakeLists.txt", "src", "tools", "perfbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_digest():
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()[:12]
    except (OSError, subprocess.CalledProcessError):
        return "none"


def build():
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-corruption", action="store_true",
                    help="flip one byte of the first compared output "
                         "(self-test of the output checks)")
    ap.add_argument("--length-split", action="store_true",
                    help="instead of a workload, print each simulated "
                         "unit's time split at the benchmark's length "
                         "and at the repository's")
    args = ap.parse_args()
    if not args.length_split and None in (args.workload, args.seed,
                                          args.seconds):
        ap.error("--workload, --seed and --seconds are required")

    for need in ("CMakeLists.txt", "src/CMakeLists.txt",
                 "tools/served_main.cc"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail("no Hi-Rise sources here (missing %s)" % need)
    if shutil.which("cmake") is None:
        fail("cmake not found")

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    if args.length_split:
        sys.stdout.flush()
        return subprocess.run([os.path.join(BUILD_DIR, "perfbench"),
                               "--length-split"]).returncode
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--served", os.path.join(BUILD_DIR, "hirise", "tools",
                                    "hirise_served"),
           "--work-dir", os.path.relpath(WORK_DIR),
           "--git", "%s+src:%s" % (git_sha(), source_digest())]
    if args.inject_corruption:
        cmd.append("--inject-corruption")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
