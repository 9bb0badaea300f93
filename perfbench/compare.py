"""Summarise or compare sets of benchmark records written by run.py --out.

    python3 perfbench/compare.py base/*.json
    python3 perfbench/compare.py base/*.json --against change/*.json

For each workload and end-to-end metric it prints the median, the quartiles
and the spread (interquartile distance over the median). With --against it
also prints the change's median relative to the base's and flags a metric
that got worse by more than the bound in BENCHMARK.json.

Runs are only comparable when their environment stamps agree on the Python
version, the kernel implementation, the rational backend and the processor
count; otherwise this refuses and exits 2. The commit may differ.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import COMPARABLE
from spec import END_TO_END


def load(paths):
    records = [json.loads(Path(p).read_text()) for p in paths]
    by_workload = defaultdict(list)
    for r in records:
        by_workload[r["workload"]].append(r)
    return records, by_workload


def stamp_key(record):
    return tuple(record["stamp"][k] for k in COMPARABLE)


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="+")
    parser.add_argument("--against", nargs="+", default=())
    args = parser.parse_args(argv)

    base, base_by = load(args.base)
    change, change_by = load(args.against)
    stamps = {stamp_key(r) for r in base + change}
    if len(stamps) > 1:
        print("refusing to compare runs from different environments "
              f"({', '.join(COMPARABLE)}): {sorted(stamps)}", file=sys.stderr)
        return 2

    worse = 0
    for workload, records in sorted(base_by.items()):
        failed = sum(r["failed"] for r in records)
        print(f"{workload}: {len(records)} runs, {failed} failed jobs")
        for name, unit, better, bound in END_TO_END:
            values = [r["metrics"][name]["value"] for r in records]
            med, q1, q3, spread = summary(values)
            line = (f"  {name:14s} median {med:12.4f} {unit:4s} q1 {q1:.4f} q3 {q3:.4f} "
                    f"spread {spread:6.1%} (bound {bound:.0%})")
            if workload in change_by:
                other = [r["metrics"][name]["value"] for r in change_by[workload]]
                cmed = summary(other)[0]
                rel = (cmed - med) / med if med else 0.0
                regressed = rel > bound if better == "lower" else -rel > bound
                worse += regressed
                line += f"  change {cmed:.4f} ({rel:+.1%}){'  WORSE' if regressed else ''}"
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
