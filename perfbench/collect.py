"""Repeat run.py over seeds and summarise each metric per workload.

    python3 perfbench/collect.py --workloads smile-train bc-train \
        --seeds 1-10 --seconds 20 [--trace 0] --out summary.json

For every workload and metric it reports the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (interquartile
distance over the median), the measure the metric's bound in
BENCHMARK.json is set against. It also records each run's wall time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_of(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"n": len(values), "median": med, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3,
                   spread=(q3 - q1) / abs(med) if med else None)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    summary = {}
    for workload in args.workloads:
        runs, per_metric = [], {}
        for seed in seeds_of(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=HERE.parent)
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 else None
            runs.append({"seed": seed, "rc": proc.returncode, "wall_s": wall,
                         "result": result})
            if result is None:
                sys.stderr.write(proc.stderr[-3000:])
                continue
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s, "
                  f"correct={result['correct']}", file=sys.stderr)
        summary[workload] = {
            "runs": runs,
            "metrics": {k: summarise(v) for k, v in per_metric.items()}}
    Path(args.out).write_text(json.dumps(summary, indent=1))
    for workload, s in summary.items():
        for name, m in s["metrics"].items():
            print(f"{workload:12s} {name:28s} median={m['median']:.6g} "
                  f"spread={m.get('spread')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
