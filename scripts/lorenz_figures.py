#!/usr/bin/env python3
"""Emit the Lorenz-curve comparisons behind the headline results as CSV.

One file per comparison, each with the verdict on the first line:

  coin_machine_vs_split   one-state coin machine vs its two-state presentation
  even_odd_vs_split       even-odd machine vs the five-state split
  mbw4_vs_q4              four-state chain stationary vs overlap-model spectrum
  q4_vs_d4                overlap-model spectrum vs explicit qubit model (4-state)
  q3_vs_d3                same pair for the three-state chain
  concentrated_vs_spread  the two quoted five-vectors (majorizing pair)
  crossing_pair           the two quoted five-vectors that are incomparable

Usage: python scripts/lorenz_figures.py [--outdir figures_out]
"""

import sys
from pathlib import Path

from machina.catalog import d3, d4, even_odd, even_odd_split, get_process, mbw4, q3, q4
from machina.cli import _Parser
from machina.distributions import lorenz_pair_csv, validate_distribution
from machina.hmm import stationary
from machina.quantum import memory_spectrum


def main() -> int:
    parser = _Parser(description=__doc__)  # the CLI's one-line usage errors
    parser.add_argument("--outdir", default="figures_out")
    parser.add_argument("--bias", default="0.6", help="coin bias for the first pair")
    args = parser.parse_args()
    try:
        # the catalog reads the bias as the CLI reads a parameter, before any file is made
        coin = get_process(f"biased_coin:{args.bias}")
        coin_split = get_process(f"biased_coin_split:{args.bias}:b")
    except ValueError as exc:
        print(f"error: --bias {args.bias!r}: {exc}", file=sys.stderr)
        return 2
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    comparisons = {
        "coin_machine_vs_split": (stationary(coin), stationary(coin_split)),
        "even_odd_vs_split": (
            stationary(even_odd(0.5)),
            stationary(even_odd_split(0.5)),
        ),
        "mbw4_vs_q4": (stationary(mbw4()), memory_spectrum(q4())),
        "q4_vs_d4": (memory_spectrum(q4()), memory_spectrum(d4())),
        "q3_vs_d3": (memory_spectrum(q3()), memory_spectrum(d3())),
        "concentrated_vs_spread": (
            validate_distribution([3 / 4, 1 / 8, 1 / 8, 0, 0]),
            validate_distribution([2 / 5, 1 / 5, 1 / 5, 1 / 10, 1 / 10]),
        ),
        "crossing_pair": (
            validate_distribution([3 / 5, 0.1, 0.1, 0.1, 0.1]),
            validate_distribution([1 / 3, 1 / 3, 1 / 3, 0, 0]),
        ),
    }
    for name, (dist_a, dist_b) in comparisons.items():
        path = outdir / f"{name}.csv"
        text = lorenz_pair_csv(dist_a, dist_b)
        path.write_text(text, newline="\n")
        print(f"{name:<26}{text.splitlines()[0].split(',')[1]}")
    print(f"wrote {len(comparisons)} tables to {outdir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
