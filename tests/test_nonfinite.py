"""nan and +-inf are rejected at every entry point, before any linear algebra runs.

A number in a model file is an ASCII decimal or ``a/b`` fraction: the digit
separator ``_`` and non-ASCII digits, which ``float`` would accept, are parse errors.
"""

import math
import re

import pytest

from machina.catalog import d3
from machina.cli import main
from machina.distributions import Distribution, compare, renyi_entropy
from machina.errors import MachinaError, ModelFormatError
from machina.hmm import FinitePredictiveModel, parse_model
from machina.quantum import PureStateQuantumModel, parse_quantum_model, serialize_quantum_model

TOKENS = ["nan", "inf", "-inf"]

COIN_FILE = "model: classical\nalphabet: 0 1\nstates: A\nt: A 0 {} A\nt: A 1 0.5 A\n"


def _qubit_file(token: str) -> str:
    text = serialize_quantum_model(d3())
    assert "state: A  (1,0)" in text
    return text.replace("state: A  (1,0)", f"state: A  ({token},0)")


def _scaled_qubit(token: str, part: str) -> PureStateQuantumModel:
    """d3 with one entry of its states or of K[A] multiplied by ``token``."""
    q = d3()
    states, kraus = q.states.copy(), dict(q.kraus)
    kraus["A"] = kraus["A"].copy()
    target = states if part == "states" else kraus["A"]
    target[0, 0] = target[0, 0].real * float(token)
    return PureStateQuantumModel(q.dim, q.labels, states, q.alphabet, kraus)


# name -> (build from a token, a finite token the same build accepts)
ENTRY_POINTS = {
    "Distribution": (lambda tok: Distribution([float(tok), 0.5]), "0.5"),
    "FinitePredictiveModel": (
        lambda tok: FinitePredictiveModel(
            ("A",), ("0", "1"), {("A", "0"): (float(tok), "A"), ("A", "1"): (0.5, "A")}
        ),
        "0.5",
    ),
    "PureStateQuantumModel.states": (lambda tok: _scaled_qubit(tok, "states"), "1"),
    "PureStateQuantumModel.kraus": (lambda tok: _scaled_qubit(tok, "kraus"), "1"),
    "parse_model": (lambda tok: parse_model(COIN_FILE.format(tok)), "0.5"),
    "parse_quantum_model": (lambda tok: parse_quantum_model(_qubit_file(tok)), "1"),
}


@pytest.mark.parametrize("token", TOKENS)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_nonfinite_input_is_rejected(entry, token):
    build, finite = ENTRY_POINTS[entry]
    build(finite)
    if entry.startswith("parse"):
        with pytest.raises(ModelFormatError, match=f"line .*non-finite number {token!r}"):
            build(token)
    else:
        with pytest.raises(MachinaError):
            build(token)


@pytest.mark.parametrize("token", TOKENS)
@pytest.mark.parametrize("kind", ["classical", "quantum"])
def test_validate_exits_two_on_nonfinite_number(kind, token, tmp_path, capsys):
    path = tmp_path / "model.txt"
    path.write_text(COIN_FILE.format(token) if kind == "classical" else _qubit_file(token))
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"non-finite number {token!r}" in captured.err


@pytest.mark.parametrize("token", ["1_0", "1/2_0", "\u0661", "\uff11"])
@pytest.mark.parametrize("kind", ["classical", "quantum"])
def test_underscores_and_non_ascii_digits_are_bad_numbers(kind, token, tmp_path, capsys):
    text = COIN_FILE.format(token) if kind == "classical" else _qubit_file(token)
    parse = parse_model if kind == "classical" else parse_quantum_model
    with pytest.raises(ModelFormatError, match=re.escape(f"bad number {token!r}")):
        parse(text)
    path = tmp_path / "model.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"bad number {token!r}" in captured.err


@pytest.mark.parametrize("token", TOKENS)
def test_nonfinite_tolerance_is_rejected(token, monkeypatch):
    monkeypatch.setenv("MACHINA_TOL", token)
    with pytest.raises(ValueError):
        compare([0.5, 0.5], [0.6, 0.4])


def test_nan_alpha_is_rejected():
    with pytest.raises(ValueError):
        renyi_entropy([0.5, 0.5], math.nan)
