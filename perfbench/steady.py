#!/usr/bin/env python3
"""Steadiness check: run one workload on several seeds and report each
end-to-end metric's spread, the distance between the first and third
quartile of its per-seed values as a share of their median, against the
bound BENCHMARK.json fixes for it.

    python3 perfbench/steady.py --workload sweep_heavy [--runs 10] [--first-seed 1]

Runs are untraced; `run.py --workload all` covers the traced path. A
metric is steady when its spread stays below a third of its bound. Prints
one line per metric and exits 1 if any metric is not steady or any run
fails.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    status = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", "0"]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = res.stdout.strip().splitlines()
        counts = next((l for l in lines if l.startswith("counts ")), "counts ?")
        if res.returncode != 0 or not lines:
            print("seed %d: exit %d\n%s" % (seed, res.returncode, res.stderr[-2000:]))
            status = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            status = 1
        print("seed %d: correct=%s attempted=%d failed=%d %s" % (
            seed, result["correct"], result["attempted"], result["failed"], counts))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in sorted(values.items()):
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        steady = bound is not None and spread < bound / 3
        print("%-16s median %-12.6g spread %6.3f bound %-5s %s  %s" % (
            name, med, spread, bound, "ok" if steady else "UNSTEADY",
            " ".join("%.4g" % v for v in vals)))
        if not steady:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
