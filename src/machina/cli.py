"""Command-line front end.

Subcommands: validate, entropy, lorenz, compare, epsilonize, qmachine,
counterexample, wordprob, export.  Exit codes: 0 success, 1 a check
failed or memory ran out, 2 usage or parse error.  ``--format csv``
output is prose-free and byte-stable across runs; nothing is written to
disk unless ``--out`` is given.  The MACHINA_TOL environment variable
overrides the default majorization tolerance, ``tolerances.EQUAL_TOL``
(1e-9).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings

import numpy as np

from .catalog import catalog_names, get_process
from .distributions import (
    ALPHA_GRID,
    _lorenz_pair,
    _number,
    _significant,
    compare,
    lorenz_pair_csv,
    renyi_entropy,
)
from .errors import (
    DuplicateTransitionError,
    MachinaError,
    ModelFormatError,
    SingularThetaError,
    UnknownStateError,
    UnknownSymbolError,
    UnphysicalThetaError,
)
from .hmm import (
    FinitePredictiveModel,
    _directives,
    _model_kind,
    _stationary_residual,
    parse_model,
    serialize_model,
    stationary,
)
from .minimize import is_epsilon_machine, strong_minimality_report
from .quantum import (
    PureStateQuantumModel,
    build_qmachine,
    classical_equivalent,
    completeness_residual,
    parse_quantum_model,
    serialize_quantum_model,
    strong_advantage_report,
)
from .qubit_family import counterexample_report, sweep_csv
from .tolerances import ZERO_TOL

_USAGE_ERRORS = (
    OSError,
    ModelFormatError,
    UnknownStateError,
    UnknownSymbolError,
    DuplicateTransitionError,
    UnphysicalThetaError,
    SingularThetaError,
    ValueError,
)


def _human_num(x: float) -> str:
    return f"{x:.6g}"


def _format_alpha(alpha: float) -> str:
    if math.isinf(alpha):
        return "inf"
    # an integral alpha prints as an integer only below 2**53, where every integer is a
    # double; above, its digits are the double's, not the number asked for (1e308 has 309)
    if abs(alpha) < 2**53 and float(alpha) == int(alpha):
        return str(int(alpha))
    return f"{alpha:g}"


def _alpha_cell(alpha: float) -> str:
    """The alpha column of a human entropy table: 8 wide, and one blank after a longer alpha."""
    return f"{_format_alpha(alpha):<7} "


def _count(text: str) -> int:
    """An integer option as ``int`` reads it, less what ``_number`` refuses (``1_000``, ``٢``)."""
    try:
        _number(text)
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_text(text: str):
    _, kind = _model_kind(_directives(text))
    parse = {"classical": parse_model, "quantum": parse_quantum_model}.get(kind)
    if parse is None:
        raise ModelFormatError(f"unknown model kind {kind!r}")
    return parse(text)


def _load_any(spec: str):
    """A model file path, or a catalog name like ``biased_coin:0.6``."""
    if os.path.exists(spec):
        with open(spec, encoding="utf-8") as fh:
            return _parse_text(fh.read())
    return get_process(spec)


def _resolve_single(args):
    specs = [s for s in (getattr(args, "model", None), getattr(args, "process", None)) if s]
    if len(specs) != 1:
        raise ValueError("give exactly one of a MODEL argument or --process")
    return _load_any(specs[0])


def _parse_alphas(raw: str | None):
    if raw is None:
        return ALPHA_GRID
    out = []
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        out.append(_number(tok))  # renyi_entropy refuses a negative or nan alpha
    if not out:
        raise ValueError("empty alpha list")
    return tuple(out)


def _write_out(path: str, payload: str) -> str:
    """Write ``payload`` to ``path``; return the ``wrote PATH`` line, printed last."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(payload)
    return f"wrote {path}\n"


def _print_entropies(rows, left: str, right: str):
    """The human ``(alpha, left, right)`` entropy table of a minimality or advantage report."""
    print(f"{'alpha':<8}{left:<14}{right}")
    for a, h_left, h_right in rows:
        print(f"{_alpha_cell(a)}{_human_num(h_left):<14}{_human_num(h_right)}")


# ------------------------------------------------------------- subcommands

def cmd_validate(args) -> int:
    with open(args.path, encoding="utf-8") as fh:
        model = _parse_text(fh.read())
    if isinstance(model, FinitePredictiveModel):
        resid = _stationary_residual(stationary(model).probs, model.total_matrix())
        print("kind: classical")
        print(f"states: {len(model.states)}")
        print(f"symbols: {len(model.alphabet)}")
        print("row-stochastic: ok")
        print("unifilar: ok")
        print("irreducible: ok")
        print(f"stationary-residual: {resid:.3g}")
    else:
        classical_equivalent(model)  # an ambiguous read-off raises before anything prints
        print("kind: quantum")
        print(f"dim: {model.dim}")
        print(f"labels: {model.n}")
        print(f"symbols: {len(model.alphabet)}")
        print("unit-norms: ok")
        print(f"completeness-residual: {completeness_residual(model):.3g}")
        print("unifilar: ok")
    return 0


def cmd_entropy(args) -> int:
    model = _resolve_single(args)
    alphas = _parse_alphas(args.alpha)
    dist = model.memory()
    rows = [(a, renyi_entropy(dist, a)) for a in alphas]
    if args.format == "csv":
        print("alpha,bits")
        for a, bits in rows:
            print(f"{_format_alpha(a)},{_significant(bits)}")
    else:
        label = "S_alpha" if isinstance(model, PureStateQuantumModel) else "H_alpha"
        print(f"{'alpha':<8}{label} (bits)")
        for a, bits in rows:
            print(f"{_alpha_cell(a)}{_human_num(bits)}")
    return 0


def _two_distributions(args):
    return tuple(_load_any(spec).memory() for spec in (args.model_a, args.model_b))


def cmd_lorenz(args) -> int:
    dist_a, dist_b = _two_distributions(args)
    if args.format == "csv":
        print(lorenz_pair_csv(dist_a, dist_b), end="")
        return 0
    verdict, rows = _lorenz_pair(dist_a, dist_b)
    print(f"verdict: {verdict}")
    print(f"{'k':<6}{'cumulative_a':<16}cumulative_b")
    for k, ca, cb in rows:
        print(f"{k:<6}{_human_num(ca):<16}{_human_num(cb)}")
    return 0


def cmd_compare(args) -> int:
    dist_a, dist_b = _two_distributions(args)
    verdict = compare(dist_a, dist_b)
    if args.format == "csv":
        print(f"verdict,{verdict}")
    else:
        print(f"verdict: {verdict}")
    return 0


def cmd_epsilonize(args) -> int:
    model = _load_any(args.model)
    if not isinstance(model, FinitePredictiveModel):
        raise ValueError("epsilonize expects a classical model")
    report = strong_minimality_report(model)
    wrote = _write_out(args.out, serialize_model(report.machine)) if args.out else ""
    if report.already_minimal:
        print("already minimal: every state is probabilistically distinct")
    print("blocks:")
    for block, name in zip(report.partition.blocks, report.partition.block_names()):
        print(f"  {name} <- {{{' '.join(sorted(block))}}}")
    print(f"states: {len(model.states)} -> {len(report.machine.states)}")
    print(f"verdict: {report.verdict}")
    _print_entropies(report.entropies, "H_machine", "H_model")
    print(wrote, end="")
    return 0


def cmd_qmachine(args) -> int:
    model = _resolve_single(args)
    if not isinstance(model, FinitePredictiveModel):
        raise ValueError("qmachine expects a classical model")
    minimal = is_epsilon_machine(model)
    if not minimal:
        print("warning: input is not minimal; synthesis proceeds anyway", file=sys.stderr)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        q = build_qmachine(model)
    # a non-minimal input collapses equivalent states, so the read-off can be
    # ambiguous; the spectrum still majorizes the input's stationary state
    report = strong_advantage_report(q, pi=None if minimal else stationary(model))
    wrote = _write_out(args.out, serialize_quantum_model(q)) if args.out else ""
    gram = np.real(q.states.conj().T @ q.states)
    gram[np.abs(gram) <= ZERO_TOL] = 0.0  # rounding noise of the embedding, not an overlap
    print(f"dim: {q.dim}")
    print("gram:")
    for row in gram:
        print("  " + " ".join(f"{v:>10.6g}" for v in row))
    print("spectrum: " + " ".join(_human_num(v) for v in report.first.probs))
    print(f"verdict: {report.verdict}")
    _print_entropies(report.entropies, "S_quantum", "H_classical")
    print(wrote, end="")
    return 0


def cmd_counterexample(args) -> int:
    report = counterexample_report(args.grid)
    if args.format == "csv":
        print(sweep_csv(report.sweep), end="")
    else:
        for step in report.steps:
            print(step)
        print(f"result: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def _word_table(model, args) -> dict:
    rep = model.linear_rep()
    if args.word is None:
        return rep.words(args.max_len)
    return {tuple(args.word): rep.probability(args.word)}


def cmd_wordprob(args) -> int:
    model = _resolve_single(args)
    quantum = isinstance(model, PureStateQuantumModel)
    table = _word_table(classical_equivalent(model) if quantum else model, args)
    probs = _word_table(model, args) if quantum else table
    rows = [
        ("".join(w), probs.get(w, 0.0), abs(probs.get(w, 0.0) - table[w])) for w in sorted(table)
    ]
    if args.format == "csv":
        print("word,probability,classical_delta" if quantum else "word,probability")
        for word, p, delta in rows:
            print(f"{word},{_significant(p)}" + (f",{_significant(delta)}" if quantum else ""))
    elif args.word is not None:
        word, p, delta = rows[0]
        print(f"P({word}) = {_human_num(p)}")
        if quantum:
            print(f"classical-equivalent delta: {delta:.3g}")
    else:
        print(f"{'word':<12}probability")
        for word, p, _ in rows:
            print(f"{word:<12}{_human_num(p)}")
        if quantum:
            print(f"max classical-equivalent delta: {max(d for _, _, d in rows):.3g}")
    return 0


def cmd_export(args) -> int:
    model = get_process(args.process)
    quantum = isinstance(model, PureStateQuantumModel)
    payload = (serialize_quantum_model if quantum else serialize_model)(model)
    print(_write_out(args.out, payload) if args.out else payload, end="")
    return 0


# ------------------------------------------------------------------ parser

def _add_format(sub):
    sub.add_argument("--format", choices=("human", "csv"), default="human")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="machina",
        description="Build, minimize, and compare classical and quantum models "
        "of finite stochastic processes by majorization.",
    )
    subs = parser.add_subparsers(dest="command")

    p = subs.add_parser("validate", help="check a model file and report its properties")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = subs.add_parser("entropy", help="Renyi memory table of a model")
    p.add_argument("model", nargs="?", help="model file or catalog name")
    p.add_argument("--process", help=f"catalog name, one of: {', '.join(catalog_names())}")
    p.add_argument("--alpha", help="comma-separated alpha list (default 0,0.5,1,2,inf)")
    _add_format(p)
    p.set_defaults(func=cmd_entropy)

    p = subs.add_parser("lorenz", help="Lorenz curves of two models plus the verdict")
    p.add_argument("model_a")
    p.add_argument("model_b")
    _add_format(p)
    p.set_defaults(func=cmd_lorenz)

    p = subs.add_parser("compare", help="majorization verdict between two models")
    p.add_argument("model_a")
    p.add_argument("model_b")
    _add_format(p)
    p.set_defaults(func=cmd_compare)

    p = subs.add_parser("epsilonize", help="merge equivalent states; report the comparison")
    p.add_argument("model", help="model file or catalog name")
    p.add_argument("--out", help="write the merged machine here")
    p.set_defaults(func=cmd_epsilonize)

    p = subs.add_parser("qmachine", help="synthesize the overlap-based quantum model")
    p.add_argument("model", nargs="?", help="model file or catalog name")
    p.add_argument("--process", help="catalog name")
    p.add_argument("--out", help="write the quantum model file here")
    p.set_defaults(func=cmd_qmachine)

    p = subs.add_parser(
        "counterexample", help="run the no-strong-minimum argument for the 3-state chain"
    )
    p.add_argument("--grid", type=_count, default=10_000)
    _add_format(p)
    p.set_defaults(func=cmd_counterexample)

    p = subs.add_parser("wordprob", help="word probability or full fixed-length table")
    p.add_argument("model", nargs="?", help="model file or catalog name")
    p.add_argument("--process", help="catalog name")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--word", help="one word, e.g. 0110")
    group.add_argument("--max-len", type=_count, help="emit all words of this length")
    _add_format(p)
    p.set_defaults(func=cmd_wordprob)

    p = subs.add_parser("export", help="write a catalog model to its file format")
    p.add_argument("--process", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MachinaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
