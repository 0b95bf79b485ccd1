#!/usr/bin/env python3
"""Sweep the qubit-candidate completeness residual and run the full argument.

Writes the (theta, residual) table to CSV and prints the three sub-verdicts
showing the three-state chain has no strongly minimal pure-state model.
Both come from ``machina counterexample``, so the script refuses what the
CLI refuses, with the CLI's message and exit code.

Usage: python scripts/qubit_uniqueness.py [--grid 10000] [--out sweep.csv]
"""

import contextlib
import io

from machina import cli


def _counterexample(*argv: str) -> tuple[int, str]:
    """Exit code and stdout of ``machina counterexample ARGV``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["counterexample", *argv])
    return code, out.getvalue()


def main() -> int:
    parser = cli._Parser(description=__doc__)  # the CLI's one-line usage errors
    parser.add_argument("--grid", default="10000")
    parser.add_argument("--out", default="qubit_residual_sweep.csv")
    args = parser.parse_args()
    code, table = _counterexample("--grid", args.grid, "--format", "csv")
    if not table:  # the CLI refused the grid or ran out of memory, and said so on stderr
        return code
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(table)
    code, steps = _counterexample("--grid", args.grid)
    rows = table.count("\n") - 1
    # the CLI's last line, "result: PASS" or "FAIL", is this script's exit code
    print(steps.rpartition("result: ")[0], end="")
    print(f"wrote {args.out} ({rows} rows)")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
