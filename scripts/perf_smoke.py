#!/usr/bin/env python3
"""Perf smoke check: compare a fresh google-benchmark JSON run against
the committed baseline (BENCH_microperf.json) and fail on regressions.

For every benchmark name present in both files, the throughput metric
(items_per_second when both report it, else 1/real_time) must not drop
more than --threshold (default 25%) below the baseline. A file run with
--benchmark_repetitions carries a _median aggregate per benchmark; when
one is present it stands for that benchmark instead of the single
repetitions (one whole run can spread 50% on a shared host; the median
of five is steadier), and the status column says which was used. New benchmarks
with no baseline entry are reported and skipped; baseline entries
missing from the fresh run fail, since a silently dropped benchmark
would otherwise hide a regression forever.

Host-context guard: a baseline captured on a different machine is not
a meaningful throughput reference, so when the recorded context
differs from the fresh run on num_cpus or mhz_per_cpu, regressions
are downgraded to warnings and the differing context fields are
printed as a delta table.
--strict restores hard failure regardless of context (for CI jobs that
pin the runner). Missing benchmarks always fail: dropping a benchmark
is a suite change, not a host effect. A library_build_type mismatch
between the two runs is always a hard error, never a warning: debug
vs release timing loops are not the same experiment on any host.

Usage:
  scripts/perf_smoke.py <baseline.json> <fresh.json>
      [--threshold 0.25] [--filter SUBSTRING] [--strict]
"""

import argparse
import json
import sys

# Context fields that make throughput numbers comparable. A mismatch
# in any of them means the baseline was captured on effectively a
# different machine.
HOST_CONTEXT_KEYS = ("num_cpus", "mhz_per_cpu")


def load(path):
    """Context, and one entry per benchmark: its _median aggregate
    when the run was repeated, else its (last) iteration row."""
    with open(path) as f:
        doc = json.load(f)
    runs, medians = {}, {}
    for b in doc.get("benchmarks", []):
        name = b.get("run_name", b["name"])
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") == "median":
                medians[name] = b
            continue
        runs[name] = b
    runs.update(medians)
    return doc.get("context", {}), runs


def kind(entry):
    return "median" if entry.get("aggregate_name") == "median" else "single"


def metric(entry):
    """Throughput-style metric: higher is better."""
    if "items_per_second" in entry:
        return float(entry["items_per_second"]), "items/s"
    return 1.0 / float(entry["real_time"]), "1/real_time"


def context_deltas(base_ctx, fresh_ctx):
    """Host-context fields that differ between the two runs."""
    deltas = []
    for key in HOST_CONTEXT_KEYS:
        b, f = base_ctx.get(key), fresh_ctx.get(key)
        if b != f:
            deltas.append((key, b, f))
    return deltas


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="max fractional drop vs baseline (default .25)")
    ap.add_argument("--filter", default="",
                    help="only compare benchmarks containing SUBSTRING")
    ap.add_argument("--strict", action="store_true",
                    help="fail on regressions even when the baseline "
                         "host context differs from this machine")
    args = ap.parse_args()

    base_ctx, base = load(args.baseline)
    fresh_ctx, fresh = load(args.fresh)
    b_lib = base_ctx.get("library_build_type")
    f_lib = fresh_ctx.get("library_build_type")
    if b_lib != f_lib:
        # Not part of the host-context downgrade: a debug timing loop
        # vs a release one changes the measurement itself, so the
        # comparison is meaningless rather than merely noisy.
        sys.exit(f"library_build_type mismatch: baseline "
                 f"'{b_lib}' vs fresh '{f_lib}' — re-capture the "
                 "baseline with a matching build (hard error; "
                 "--strict not required)")
    if args.filter:
        base = {k: v for k, v in base.items() if args.filter in k}
        fresh = {k: v for k, v in fresh.items() if args.filter in k}
    if not base:
        sys.exit("no baseline benchmarks matched; nothing to compare")

    deltas = context_deltas(base_ctx, fresh_ctx)
    downgrade = bool(deltas) and not args.strict
    if deltas:
        kw = max(len(k) for k, _, _ in deltas) + 2
        print("host context differs from baseline:")
        print(f"  {'field':<{kw}}{'baseline':>14}{'fresh':>14}")
        for key, b, f in deltas:
            print(f"  {key:<{kw}}{str(b):>14}{str(f):>14}")
        if downgrade:
            print("  -> regressions reported as warnings only "
                  "(pass --strict to enforce)\n")
        else:
            print("  -> --strict: regressions still enforced\n")

    width = max(len(n) for n in base) + 2
    print(f"{'benchmark':<{width}}{'baseline':>14}{'fresh':>14}"
          f"{'delta':>9}  status")
    failures = []
    warnings = []
    for name in sorted(base):
        if name not in fresh:
            print(f"{name:<{width}}{'-':>14}{'-':>14}{'-':>9}  MISSING")
            failures.append(f"{name}: present in baseline but not in "
                            "the fresh run")
            continue
        b, _ = metric(base[name])
        f, unit = metric(fresh[name])
        delta = f / b - 1.0
        bad = delta < -args.threshold
        status = "ok"
        if bad:
            status = "WARN" if downgrade else "FAIL"
        print(f"{name:<{width}}{b:>14.4g}{f:>14.4g}"
              f"{delta * 100:>8.1f}%  {status} ({unit}, "
              f"{kind(base[name])}/{kind(fresh[name])})")
        if bad:
            msg = (f"{name}: {f:.4g} vs baseline {b:.4g} "
                   f"({delta * 100:+.1f}% < -{args.threshold * 100:.0f}%)")
            (warnings if downgrade else failures).append(msg)
    for name in sorted(set(fresh) - set(base)):
        print(f"{name:<{width}}{'-':>14}{metric(fresh[name])[0]:>14.4g}"
              f"{'-':>9}  new (no baseline)")

    if warnings:
        print("\nperf smoke WARNINGS (baseline host differs; "
              "not failing):", file=sys.stderr)
        for w in warnings:
            print(f"  {w}", file=sys.stderr)
    if failures:
        print("\nperf smoke FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nperf smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
