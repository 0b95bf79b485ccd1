"""Algorithms read a model's ``probs``/``succ`` arrays, never the name-keyed ``trans``,
and only the model constructor decides which declared transitions are edges."""

import ast
import pickle
from pathlib import Path

import numpy as np
import pytest

import machina
from machina.catalog import catalog_names, get_process
from machina.errors import NotStochasticError
from machina.hmm import FinitePredictiveModel, parse_model, serialize_model
from machina.tolerances import ZERO_TOL
from random_models import random_split, random_unifilar_model


def _trans_reads(tree: ast.AST, where: str):
    """Yield each ``.trans`` attribute read below ``tree``, skipping the model class."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef) and node.name == "FinitePredictiveModel":
            continue
        if isinstance(node, ast.Attribute) and node.attr == "trans":
            yield f"{where}:{node.lineno}"
        yield from _trans_reads(node, where)


def _package_trees():
    for path in sorted(Path(machina.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_only_the_model_class_reads_trans():
    found = []
    for name, tree in _package_trees():
        found += _trans_reads(tree, name)
    assert found == []


def _zero_tol_tests_of_probs(tree: ast.AST, where: str, cls: str | None = None):
    """Yield each comparison of a ``.probs`` read against ``ZERO_TOL`` below ``tree``,
    skipping ``FinitePredictiveModel.__post_init__``, which makes that decision."""
    for node in ast.iter_child_nodes(tree):
        if cls == "FinitePredictiveModel" and getattr(node, "name", None) == "__post_init__":
            continue
        if isinstance(node, ast.Compare):
            operands = [n for side in (node.left, *node.comparators) for n in ast.walk(side)]
            names = {n.id for n in operands if isinstance(n, ast.Name)}
            attrs = {n.attr for n in operands if isinstance(n, ast.Attribute)}
            if "ZERO_TOL" in names | attrs and "probs" in attrs:
                yield f"{where}:{node.lineno}"
        yield from _zero_tol_tests_of_probs(
            node, where, node.name if isinstance(node, ast.ClassDef) else cls
        )


def test_only_the_constructor_decides_which_transitions_are_edges():
    # a Distribution's probs is a probability vector; its support test is not about edges
    found = []
    for name, tree in _package_trees():
        if name != "distributions.py":
            found += _zero_tol_tests_of_probs(tree, name)
    assert found == []


def _classical_models():
    models = [(name, get_process(name)) for name in catalog_names()]
    models = [(name, m) for name, m in models if isinstance(m, FinitePredictiveModel)]
    rng = np.random.default_rng(13)
    for n in (3, 6, 12):
        m = random_unifilar_model(rng, n, 3)
        models += [(f"random{n}", m), (f"random{n}-split", random_split(rng, m))]
    return [(name, m) for name, m in models if m is not None]


CLASSICAL = _classical_models()


def _with_tiny_transitions(m: FinitePredictiveModel, p: float) -> dict:
    """``m``'s transitions plus one of probability ``p`` on every pair that has none."""
    trans = dict(m.trans)
    for i, j in zip(*np.nonzero(m.succ < 0)):
        trans[(m.states[i], m.alphabet[j])] = (p, m.states[-1])
    return trans


@pytest.mark.parametrize("name, model", CLASSICAL, ids=[name for name, _ in CLASSICAL])
def test_a_transition_at_or_below_zero_tol_is_no_edge(name, model):
    for p in (0.0, 1e-13, ZERO_TOL, -1e-13):
        m = FinitePredictiveModel(model.states, model.alphabet, _with_tiny_transitions(model, p))
        assert np.array_equal(m.succ >= 0, m.probs > 0)
        assert np.array_equal(m.succ, model.succ)
        assert np.array_equal(m.probs, model.probs)
        for copy in (parse_model(serialize_model(m)), pickle.loads(pickle.dumps(m))):
            assert np.array_equal(copy.succ, m.succ)


def test_a_transition_below_minus_zero_tol_still_raises():
    model = get_process("even_odd")
    with pytest.raises(NotStochasticError):
        FinitePredictiveModel(model.states, model.alphabet, _with_tiny_transitions(model, -1e-11))
