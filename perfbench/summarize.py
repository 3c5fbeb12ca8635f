#!/usr/bin/env python3
"""Median, quartiles and spread of end-to-end metrics over benchmark runs.

    python3 perfbench/summarize.py [results files or directories ...]

Reads the JSON reports ``run.py`` writes to ``perfbench/results/`` (default:
all untraced ones there) and prints, per workload and metric, the median over
the runs, the quartiles as ``statistics.quantiles(values, n=4)`` gives them,
and the spread: the inter-quartile distance as a share of the median.  With
``--bounds BENCHMARK.json`` it also prints each spread as a share of the
metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(paths: list[Path]) -> list[dict]:
    files: list[Path] = []
    for path in paths:
        files.extend(sorted(path.glob("*-trace0.json")) if path.is_dir() else [path])
    return [json.loads(f.read_text()) for f in files]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", type=Path, default=[HERE / "results"])
    parser.add_argument("--bounds", type=Path, default=None, help="BENCHMARK.json for the bounds")
    args = parser.parse_args(argv)

    bounds = {}
    if args.bounds is not None:
        spec = json.loads(args.bounds.read_text())
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    failed: dict[str, int] = defaultdict(int)
    for report in load(args.paths):
        failed[report["workload"]] += report["failed"]
        for name, metric in report["metrics"].items():
            values[report["workload"]][name].append(metric["value"])

    for workload in sorted(values):
        print(f"{workload} (failed checks: {failed[workload]})")
        for name, vals in values[workload].items():
            median = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / median if median else float("nan")
            line = (f"  {name:<16} n={len(vals):<3} median {median:<12.6g} "
                    f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.4f}")
            if name in bounds:
                line += f"  ({spread / bounds[name]:.2f} of bound {bounds[name]})"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
