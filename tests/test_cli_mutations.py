"""``cli.main`` on mutated catalog exports: every outcome is an exit code, never an escape.

Each case drops, duplicates or swaps lines of an exported model file, or puts an
awkward numeral in place of a number, then runs one subcommand on the result
in-process; a second test draws ``--alpha`` lists and ``MACHINA_TOL`` values from
the same numerals.  Whatever the text, ``main`` returns 0, 1 or 2; a nonzero exit
prints exactly one ``error:`` line on stderr and nothing on stdout, and CSV
output keeps one field count from its header on.
"""

import contextlib
import io
import os
import re
from unittest import mock

import hypothesis
import hypothesis.strategies as st
import pytest

from machina.catalog import get_process
from machina.cli import main
from machina.hmm import FinitePredictiveModel, serialize_model
from machina.quantum import serialize_quantum_model

EXPORTS = tuple(
    (serialize_model if isinstance(m, FinitePredictiveModel) else serialize_quantum_model)(m)
    for m in map(get_process, ("mbw3", "even_odd_split:0.5", "biased_coin_split:0.6:b", "q3", "d4"))
)
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[+-]?\d+)?")
# the last is a fraction too large for a double
NUMERALS = ("1e308", "1e-320", "-0", "1/3", "1_0", "nan", "1/0", "١", "1" + "0" * 400 + "/1")
OPTION_NUMERALS = NUMERALS + ("abc", "1/2", "-1")
MODEL = object()  # stands for the mutated file's path
# (argv, lines before the CSV header, or None for human output)
COMMANDS = (
    (["validate", MODEL], None),
    (["entropy", MODEL], None),
    (["entropy", MODEL, "--format", "csv"], 0),
    (["wordprob", MODEL, "--max-len", "3"], None),
    (["epsilonize", MODEL], None),
    (["qmachine", MODEL], None),
    (["compare", MODEL, "mbw3"], None),
    (["lorenz", MODEL, "d3", "--format", "csv"], 1),
)


@st.composite
def mutated_exports(draw):
    lines = draw(st.sampled_from(EXPORTS)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("drop", "duplicate", "swap", "number")))
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif spans := [m.span() for m in NUMBER.finditer(lines[i])]:
            start, stop = draw(st.sampled_from(spans))
            lines[i] = lines[i][:start] + draw(st.sampled_from(NUMERALS)) + lines[i][stop:]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutations") / "model.txt"


def _check_exit(argv, csv_from):
    """Run ``main(argv)`` and check the contract in the module docstring."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
    assert code in (0, 1, 2)
    if code:
        assert (out.getvalue(), len(errors)) == ("", 1)
        return
    assert errors == []
    if csv_from is not None:
        rows = out.getvalue().splitlines()[csv_from:]
        assert rows and {row.count(",") for row in rows} == {rows[0].count(",")}


@hypothesis.settings(derandomize=True, max_examples=1500, deadline=None)
@hypothesis.given(text=mutated_exports(), command=st.sampled_from(COMMANDS))
def test_main_turns_every_mutated_export_into_an_exit_code(model_path, text, command):
    model_path.write_text(text, encoding="utf-8")
    template, csv_from = command
    _check_exit([str(model_path) if a is MODEL else a for a in template], csv_from)


ALPHAS = object()  # stands for "--alpha=" and the drawn list, which argparse cannot misread
# (argv, lines before the CSV header, or None for human output)
OPTION_COMMANDS = (
    (["entropy", "mbw3", ALPHAS], None),
    (["entropy", "q3", "--format", "csv", ALPHAS], 0),
    (["compare", "mbw3", "d3"], None),
    (["lorenz", "mbw4", "q4", "--format", "csv"], 1),
)


@hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
@hypothesis.given(
    alphas=st.lists(st.sampled_from(OPTION_NUMERALS), min_size=1, max_size=3),
    tol=st.none() | st.sampled_from(OPTION_NUMERALS),
    command=st.sampled_from(OPTION_COMMANDS),
)
def test_main_turns_every_option_numeral_into_an_exit_code(alphas, tol, command):
    template, csv_from = command
    argv = ["--alpha=" + ",".join(alphas) if a is ALPHAS else a for a in template]
    with mock.patch.dict(os.environ):
        os.environ.pop("MACHINA_TOL", None)
        if tol is not None:
            os.environ["MACHINA_TOL"] = tol
        _check_exit(argv, csv_from)
