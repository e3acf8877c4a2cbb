#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end benchmark, from result JSONs.

    python3 bench/e2e/spread.py A1.json A2.json ... [--vs B1.json B2.json ...]

Each file is a full result (the --out JSON of explainti_e2e; run.py
keeps one per run under .bench_build/e2e-runs). For every (workload,
end-to-end metric) it prints the median and quartiles of each set and the
spread, (Q3 - Q1) / median, next to the metric's bound in BENCHMARK.json.
With --vs it also compares the two sets' medians and exits 1 when any
differs by more than the bound. Needs only the standard library.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load(paths):
    """{workload: {metric: [values...]}} over the result files."""
    sets = {}
    for path in paths:
        with open(path) as f:
            result = json.load(f)
        per_metric = sets.setdefault(result["workload"], {})
        for name, metric in result["metrics"].items():
            per_metric.setdefault(name, []).append(metric["value"])
    return sets


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", nargs="+", help="result JSONs of the first set")
    parser.add_argument("--vs", nargs="+", default=[],
                        help="result JSONs of a second set, same commit")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    a = load(args.a)
    b = load(args.vs) if args.vs else {}

    header = f"{'workload':<16} {'metric':<15} {'n':>3} {'q1':>11} {'median':>11} {'q3':>11} {'spread':>7} {'bound':>6}"
    if b:
        header += f" {'median B':>11} {'spread B':>8} {'delta':>7}"
    print(header)
    failures = 0
    for workload in sorted(a):
        for name in sorted(bounds):
            values = a[workload].get(name)
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            row = (f"{workload:<16} {name:<15} {len(values):>3} {q1:>11.4g} "
                   f"{med:>11.4g} {q3:>11.4g} {spread:>7.3f} {bounds[name]:>6.2f}")
            if b:
                other = b.get(workload, {}).get(name)
                if not other:
                    row += "   (missing in B)"
                    failures += 1
                else:
                    oq1, omed, oq3 = quartiles(other)
                    ospread = (oq3 - oq1) / omed if omed else float("inf")
                    delta = (omed - med) / med if med else float("inf")
                    flag = "" if abs(delta) <= bounds[name] else "  EXCEEDS BOUND"
                    failures += bool(flag)
                    row += f" {omed:>11.4g} {ospread:>8.3f} {delta:>+7.3f}{flag}"
            print(row)
    if b:
        print("medians agree within bounds" if failures == 0
              else f"{failures} (workload, metric) pairs exceed their bound")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
