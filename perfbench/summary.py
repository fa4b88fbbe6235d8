"""Print the end-to-end metrics and failed_frac of every workload.

Usage, from the root of a checkout::

    python3 perfbench/summary.py --seed 1 --seconds 25

Runs each workload once, untraced, one after the other, and prints one row
per workload and metric with its unit.
"""

from __future__ import annotations

import argparse
import sys

from run import BenchError, run_workload
from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args()
    print(f"{'workload':<18} {'metric':<12} {'value':>14} unit")
    for name in WORKLOADS:
        try:
            details = run_workload(name, args.seed, args.seconds, False)
        except BenchError as exc:
            print(f"{name}: benchmark error: {exc}", file=sys.stderr)
            return 2
        rows = {m: (v["value"], v["unit"])
                for m, v in details["final"]["metrics"].items()}
        rows["failed_frac"] = (details["failed_frac"], "ratio")
        for metric, (value, unit) in rows.items():
            print(f"{name:<18} {metric:<12} {value:>14.6g} {unit}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
