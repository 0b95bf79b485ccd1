"""Both model kinds answer the same questions through ``memory()`` and ``linear_rep()``;
only the CLI, whose output differs by kind, asks which kind a model is."""

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

import machina
from machina import hmm
from machina.catalog import catalog_names, get_process, mbw3
from machina.distributions import ALPHA_GRID, renyi_entropy
from machina.hmm import renyi_memory, stationary, word_probability
from machina.quantum import PureStateQuantumModel, memory_spectrum

MODEL_CLASSES = {"FinitePredictiveModel", "PureStateQuantumModel"}


@pytest.mark.parametrize("name", catalog_names())
def test_memory_is_the_stationary_state_or_the_spectrum(name):
    model = get_process(name)
    quantum = isinstance(model, PureStateQuantumModel)
    memory = (memory_spectrum if quantum else stationary)(model)
    assert np.array_equal(model.memory().probs, memory.probs)
    for alpha in ALPHA_GRID:
        assert renyi_memory(model, alpha) == renyi_entropy(memory, alpha)


def test_a_classical_model_solves_its_stationary_state_once(monkeypatch):
    solves = []
    solve = hmm.stationary
    monkeypatch.setattr(hmm, "stationary", lambda m: solves.append(m) or solve(m))
    model = mbw3()
    words = list(itertools.product(model.alphabet, repeat=2))
    for word in words:
        word_probability(model, word)
    assert len(words) == 9
    assert renyi_memory(model, 2) == renyi_entropy(model.memory(), 2)
    assert solves == [model]


def _model_dispatch(tree: ast.AST, where: str):
    """Yield each ``isinstance(x, <model class>)`` call below ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            named = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[-1])}
            if named & MODEL_CLASSES:
                yield f"{where}:{node.lineno}"


def test_only_the_cli_dispatches_on_the_model_kind():
    found = []
    for path in sorted(Path(machina.__file__).parent.glob("*.py")):
        if path.name != "cli.py":
            found += _model_dispatch(ast.parse(path.read_text(encoding="utf-8")), path.name)
    assert found == []
