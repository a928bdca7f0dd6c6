"""Run-to-run spread of the end-to-end metrics over many seeds.

Runs ``bench.py --workload W --seed S --seconds T --trace 0`` once per
(seed, workload), seeds outermost so host drift lands on every workload
alike, and reports per workload and metric the median and the
interquartile range as a share of the median -- the numbers the
bounds in BENCHMARK.json were set from::

    python3 benchmarks/e2e/spread.py [--seeds 10] [--seconds 30] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from bench import END_TO_END, WORKLOADS  # noqa: E402

#: the gated metrics, the unscaled median run, the host's measured
#: slowdown and ``wall_s`` before scaling, which show what the
#: fastest-of-repeats statistic and the scaling each corrected
METRICS = list(END_TO_END) + ["wall_s_median", "host_slowdown", "wall_s_unscaled"]


def spread(values: List[float]) -> float:
    """(Q3 - Q1) / median, quartiles as ``statistics.quantiles`` gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    values: Dict[str, Dict[str, List[float]]] = {
        name: {metric: [] for metric in METRICS} for name in WORKLOADS
    }
    failures = 0
    for seed in range(args.seeds):
        for name in WORKLOADS:
            out = os.path.join(HERE, "out", f"spread-{name}-{seed}.json")
            proc = subprocess.run(
                [
                    sys.executable, os.path.join(HERE, "bench.py"),
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", "0",
                    "--out", out,
                ],
                capture_output=True, text=True,
            )
            if proc.returncode != 0:
                failures += 1
                print(f"{name} seed {seed}: FAILED", file=sys.stderr)
                continue
            with open(out) as handle:
                metrics = json.load(handle)["workloads"][name]["metrics"]
            metrics["wall_s_unscaled"] = metrics["wall_s"] * metrics["host_slowdown"]
            for metric in METRICS:
                values[name][metric].append(metrics[metric])
            print(
                f"{name} seed {seed}: "
                + " ".join(f"{m}={metrics[m]:.4g}" for m in METRICS),
                flush=True,
            )
    table = {
        name: {
            metric: {
                "median": statistics.median(series),
                "spread": spread(series),
                "n": len(series),
            }
            for metric, series in series_by_metric.items()
            if len(series) >= 2
        }
        for name, series_by_metric in values.items()
    }
    for name, rows in table.items():
        for metric, row in rows.items():
            print(f"{name} {metric} median {row['median']:.6g} spread {row['spread']:.3f}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(
                {
                    "seeds": [0, args.seeds - 1],
                    "seconds": args.seconds,
                    "nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "failures": failures,
                    "workloads": table,
                },
                handle,
                indent=2,
            )
            handle.write("\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
