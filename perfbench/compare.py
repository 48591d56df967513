#!/usr/bin/env python3
"""Compares two sets of benchmark runs, per (workload, end-to-end metric).

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl
    python3 perfbench/compare.py RUNS.jsonl            # spread check only

Inputs are record files written by sweep.py; only untraced records count.
The host controls (host.calib_ms, host.control_ms) are printed beside the
metrics for reading, never compared.
For each side it prints the median and quartiles, and the spread: the
distance between the quartiles as a share of the median. Each pairing is
classified against the metric's bound from BENCHMARK.json:

  within      NEW's median is no worse than BASE's by more than the bound
  WORSE       NEW's median is worse than BASE's by more than the bound
  unresolved  a side's spread is wider than the bound, so the medians
              cannot settle it; reported as "better (every run)" instead
              when every NEW run beats every BASE run

With one file, a pairing is "steady" when its spread is within the bound
and "noisy" otherwise. A workload with any failed op (a record with
failed > 0) is reported as FAILED on the side it appears: a failed output
check is never within a bound. Exit status 1 on any WORSE, unresolved,
noisy or FAILED result.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    runs = {}
    for line in open(path):
        rec = json.loads(line)
        if rec["failed"]:
            runs.setdefault((rec["workload"], "failed"), []).append(rec["failed"])
        if rec["trace"]:
            continue
        for name, m in rec["end_to_end"].items():
            runs.setdefault((rec["workload"], name), []).append(m["value"])
        runs.setdefault((rec["workload"], "host.calib_ms"), []).append(
            (rec["calib_before_ms"] + rec["calib_after_ms"]) / 2)
        runs.setdefault((rec["workload"], "host.control_ms"), []).append(rec["control_ms"])
    return runs


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, spread


def fmt(values):
    med, q1, q3, spread = summary(values)
    return f"{med:12.4f} [{q1:.4f}, {q3:.4f}] spread {spread:6.2%} n={len(values)}"


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    sides = [load(p) for p in sys.argv[1:]]
    bad = 0
    workloads = sorted({w for side in sides for (w, _) in side})
    for w in workloads:
        print(f"== {w}")
        for host in ("host.calib_ms", "host.control_ms"):
            runs = [s.get((w, host)) for s in sides]
            print(f"  {host:16s} " + " | ".join(fmt(r) for r in runs if r))
        for label, side in zip(("base", "new") if len(sides) == 2 else ("runs",), sides):
            failed = side.get((w, "failed"))
            if failed:
                bad += 1
                print(f"  FAILED ({label}): {len(failed)} run(s) with {sum(failed)} failed ops")
        for name, m in metrics.items():
            vals = [s.get((w, name)) for s in sides]
            if any(v is None for v in vals):
                continue
            bound = m["bound"]
            if len(vals) == 1:
                spread = summary(vals[0])[3]
                steady = spread <= bound
                verdict = "steady" if steady else "noisy"
                bad += not steady
                print(f"  {name:16s} {fmt(vals[0])}  bound {bound * 100:.4g}%  {verdict}")
                continue
            base, new = vals
            (mb, *_, sb), (mn, *_, sn) = summary(base), summary(new)
            sign = 1 if m["better"] == "lower" else -1
            worse_by = sign * (mn - mb) / mb if mb else 0.0
            better_all = (max(new) < min(base)) if sign == 1 else (min(new) > max(base))
            if max(sb, sn) > bound:
                verdict = "better (every run)" if better_all else "unresolved"
            elif worse_by > bound:
                verdict = "WORSE"
            else:
                verdict = "within"
            bad += verdict in ("WORSE", "unresolved")
            print(f"  {name:16s} base {fmt(base)}\n  {'':16s} new  {fmt(new)}"
                  f"\n  {'':16s} change {worse_by:+.2%} (worse if > 0)  bound {bound * 100:.4g}%  {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
