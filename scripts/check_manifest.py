#!/usr/bin/env python3
"""Check the --quick output manifest of the figure/table binaries.

Runs every figure/table binary with `--quick --csv <dir>` and compares
the SHA-256 of each CSV it writes with scripts/quick_manifest.sha256.
Any changed, missing or extra file fails the check. A change that
alters a published number on purpose regenerates the manifest with
--write and says why in CHANGES.md (docs/TESTING.md).

    python3 scripts/check_manifest.py [--build-dir build] [--write]
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "scripts", "quick_manifest.sha256")

# One binary per paper table/figure plus the extension studies
# (bench/CMakeLists.txt, hirise_bench targets).
BINARIES = [
    "bench_table1", "bench_table4", "bench_table5", "bench_table6",
    "bench_fig9a", "bench_fig9b", "bench_fig9c", "bench_fig10",
    "bench_fig11a", "bench_fig11b", "bench_fig11c", "bench_fig12",
    "bench_corner", "bench_ablate_classes", "bench_ablate_alloc",
    "bench_headline", "bench_kilocore", "bench_ablate_buffers",
    "bench_seeds", "bench_discussion", "bench_fault",
    "bench_degradation", "bench_schedulers",
]


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def run_all(build_dir):
    """Return {"<binary>/<table>.csv": digest} for every CSV."""
    digests = {}
    env = dict(os.environ)
    # Results never depend on the cache, but keep runs self-contained.
    env.pop("HIRISE_SIMCACHE_DIR", None)
    with tempfile.TemporaryDirectory() as tmp:
        for name in BINARIES:
            exe = os.path.join(build_dir, "bench", name)
            out = os.path.join(tmp, name)
            os.mkdir(out)
            t0 = time.monotonic()
            subprocess.run([exe, "--quick", "--csv", out], env=env,
                           check=True, stdout=subprocess.DEVNULL)
            print(f"{name:24s} {time.monotonic() - t0:6.2f} s",
                  file=sys.stderr)
            for csv in sorted(os.listdir(out)):
                digests[f"{name}/{csv}"] = sha256(os.path.join(out, csv))
    return digests


def read_manifest():
    digests = {}
    with open(MANIFEST) as f:
        for line in f:
            if line.strip():
                digest, path = line.split()
                digests[path] = digest
    return digests


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default=os.path.join(ROOT, "build"))
    ap.add_argument("--write", action="store_true",
                    help="regenerate the manifest instead of checking")
    args = ap.parse_args()

    fresh = run_all(args.build_dir)
    if args.write:
        with open(MANIFEST, "w") as f:
            for path in sorted(fresh):
                f.write(f"{fresh[path]}  {path}\n")
        print(f"wrote {len(fresh)} digests to {MANIFEST}")
        return 0

    want = read_manifest()
    bad = 0
    for path in sorted(set(want) | set(fresh)):
        if path not in fresh:
            print(f"MISSING  {path}")
        elif path not in want:
            print(f"EXTRA    {path}")
        elif want[path] != fresh[path]:
            print(f"CHANGED  {path}")
        else:
            continue
        bad += 1
    if bad:
        print(f"{bad} of {len(want)} manifest entries differ")
        return 1
    print(f"all {len(want)} --quick CSVs match the manifest")
    return 0


if __name__ == "__main__":
    sys.exit(main())
