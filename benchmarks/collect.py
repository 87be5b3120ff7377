"""Run the benchmark over several seeds and summarise each metric.

    python3 benchmarks/collect.py --seeds 1..10 --seconds 30 [--workload NAME ...]

Runs ``benchmarks/run.py`` once per (workload, seed), one at a time, and
prints, for every metric, the median, the quartiles of
``statistics.quantiles(values, n=4)`` and the spread (third minus first
quartile, as a share of the median), next to the metric's bound from
BENCHMARK.json.  The runs are untraced, so every metric is an end-to-end
one.  The last line is the same summary as JSON.  Exits 1 if any run
fails or any spread exceeds its metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(spec):
    lo, _, hi = spec.partition("..")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", default="1..10")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--workload", action="append",
                   default=None, help="default: every workload")
    args = p.parse_args(argv)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary, ok = {}, True
    for name in names:
        values = {}
        for seed in seeds_of(args.seeds):
            cmd = [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload",
                   name, "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last) if last.startswith("{") else {}
            if proc.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                continue
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={v['value']:.5g}" for m, v in result["metrics"].items()),
                flush=True)
        rows = {}
        for metric, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
            spread = (q3 - q1) / med if med else 0.0
            rows[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                            "runs": len(vals)}
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and spread > bound:
                ok, flag = False, "  OVER BOUND"
            elif bound is not None and spread > bound / 3:
                flag = "  over a third of the bound"
            print(f"  {name:16s} {metric:44s} median {med:12.6g}  "
                  f"spread {spread:6.3f}  bound {bound}{flag}")
        summary[name] = rows
    print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
