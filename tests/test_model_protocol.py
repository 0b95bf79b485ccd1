"""Both model kinds answer the same questions through ``memory()`` and ``linear_rep()``;
only the CLI, whose output differs by kind, asks which kind a model is."""

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

import machina
from machina import catalog, hmm
from machina.catalog import catalog_names, get_process
from machina.cli import main
from machina.distributions import ALPHA_GRID, renyi_entropy
from machina.errors import AmbiguousSuccessorError
from machina.hmm import renyi_memory, stationary, word_probability
from machina.minimize import strong_minimality_report
from machina.quantum import (
    PureStateQuantumModel,
    classical_equivalent,
    memory_spectrum,
    parse_quantum_model,
    strong_advantage_report,
)
from test_quantum import TWIN_STATES_FILE

MODEL_CLASSES = {"FinitePredictiveModel", "PureStateQuantumModel"}


@pytest.mark.parametrize("name", catalog_names())
def test_memory_is_the_stationary_state_or_the_spectrum(name):
    model = get_process(name)
    quantum = isinstance(model, PureStateQuantumModel)
    memory = (memory_spectrum if quantum else stationary)(model)
    assert np.array_equal(model.memory().probs, memory.probs)
    for alpha in ALPHA_GRID:
        assert renyi_memory(model, alpha) == renyi_entropy(memory, alpha)


def _count_solves(monkeypatch) -> list:
    """Record each stationary solve, however it is reached."""
    solves = []
    gth = hmm._gth
    monkeypatch.setattr(hmm, "_gth", lambda t_mat: solves.append(len(t_mat)) or gth(t_mat))
    return solves


@pytest.mark.parametrize("name", ["mbw3", "d3"])
def test_a_classical_model_solves_its_stationary_state_once(name, monkeypatch):
    # a quantum model's classical stationary state is its read-off's, kept the same way
    solves = _count_solves(monkeypatch)
    model = get_process(name)
    words = list(itertools.product(model.alphabet, repeat=2))
    for word in words:
        word_probability(model, word)
    assert len(words) == 9
    memory, again = model.memory(), model.memory()
    assert renyi_memory(model, 2) == renyi_entropy(memory, 2)
    if isinstance(model, PureStateQuantumModel):
        strong_advantage_report(model)
    assert len(solves) == 1
    assert again is memory


def test_strong_minimality_report_reads_the_kept_stationary_state(monkeypatch):
    model = get_process("mbw3")
    memory = model.memory()
    solves = _count_solves(monkeypatch)
    report = strong_minimality_report(model)
    assert len(solves) == 1  # the merged machine's; the model's was kept
    assert report.second is memory
    assert report.first is report.machine.memory()


def test_a_quantum_model_keeps_its_read_off():
    q = get_process("d3")
    assert classical_equivalent(q) is classical_equivalent(q)


def test_an_ambiguous_read_off_raises_on_every_call():
    twin = parse_quantum_model(TWIN_STATES_FILE)
    for _ in range(2):
        with pytest.raises(AmbiguousSuccessorError, match="2 matching states"):
            twin.memory()


def test_wordprob_on_a_quantum_model_solves_once(monkeypatch, capsys):
    catalog.q3.cache_clear()  # a fresh q3, whose read-off no earlier test has solved
    solves = _count_solves(monkeypatch)
    assert main(["wordprob", "--process", "q3", "--max-len", "3"]) == 0
    assert "max classical-equivalent delta" in capsys.readouterr().out
    assert len(solves) == 1


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


def test_quantum_reaches_the_classical_stationary_state_only_through_the_read_off():
    # the read-off's memory() is the one route, so no re-solve per call can come back
    path = Path(machina.__file__).parent / "quantum.py"
    nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    imported = {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names}
    loaded = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    attributes = {ast.unparse(n) for n in nodes if isinstance(n, ast.Attribute)}
    assert "stationary" not in imported | loaded
    assert "hmm.stationary" not in attributes
