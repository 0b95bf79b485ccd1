#!/usr/bin/env python3
"""Sweep the qubit-candidate completeness residual and run the full argument.

Writes the (theta, residual) table to CSV and prints the three sub-verdicts
showing the three-state chain has no strongly minimal pure-state model.

Usage: python scripts/qubit_uniqueness.py [--grid 10000] [--out sweep.csv]
"""

import argparse

from machina.cli import _count
from machina.qubit_family import counterexample_report, sweep_csv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", type=_count, default=10_000)
    parser.add_argument("--out", default="qubit_residual_sweep.csv")
    args = parser.parse_args()
    report = counterexample_report(args.grid)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(sweep_csv(report.sweep))
    for step in report.steps:
        print(step)
    print(f"wrote {args.out} ({2 * args.grid} rows)")
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
