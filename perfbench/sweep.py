#!/usr/bin/env python3
"""Runs the benchmark over several workloads and seeds and collects records.

    python3 perfbench/sweep.py --out runs.jsonl [--workloads a,b] [--seeds 1-10]
                               [--seconds N] [--trace 0|1]

Each run is a fresh process (`run.py`). Its full record (end-to-end
metrics, per-layer metrics of traced runs, and the host control
`calib_before_ms` / `calib_after_ms` and `control_ms`, and the timings in
wall-clock time) is appended to --out as one JSON
line. Feed two such files to compare.py. Exit status 1 if any run failed
to finish or had an op fail its output check.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    failures = 0
    with open(args.out, "a") as out:
        for seed in seeds(args.seeds):
            for workload in args.workloads.split(","):
                cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds), "--trace", args.trace]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                records = [l.split(" ", 1)[1] for l in proc.stderr.splitlines()
                           if l.startswith("perfbench-record ")]
                if not records:
                    failures += 1
                    print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})\n{proc.stderr[-2000:]}")
                    continue
                # A run whose output checks failed is kept, so that
                # compare.py reports it, and counted as a failure here.
                rec = json.loads(records[-1])
                out.write(json.dumps(rec) + "\n")
                out.flush()
                if proc.returncode != 0 or rec["failed"]:
                    failures += 1
                    print(f"{workload} seed {seed}: FAILED ({rec['failed']} failed ops, "
                          f"exit {proc.returncode})\n{proc.stderr[-2000:]}")
                e2e = {k: round(v["value"], 4) for k, v in rec["end_to_end"].items()}
                print(f"{workload} seed {seed}: calib {rec['calib_before_ms']:.1f}/"
                      f"{rec['calib_after_ms']:.1f} ms, control {rec['control_ms']:.2f} ms "
                      f"{e2e}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
