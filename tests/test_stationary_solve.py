"""The blocked GTH stationary solve against a dense reference, on nearly decoupled
chains, on rows that sum to 1 only within ``EQUAL_TOL``, and its no-``np.linalg`` rule.

The reference is a dense ``np.linalg.solve`` of pi (T^ - I) = 0 with one
equation replaced by sum(pi) = 1, where T^ is the total matrix with its rows
scaled to sum to 1.
"""

import ast
import inspect

import numpy as np
import pytest

from machina import hmm
from machina.hmm import _GTH_BLOCK, FinitePredictiveModel, stationary
from random_models import random_unifilar_model


def _dense_reference(m: FinitePredictiveModel) -> np.ndarray:
    t_mat = m.total_matrix()
    system = (t_mat / t_mat.sum(axis=1, keepdims=True)).T - np.eye(len(t_mat))
    system[-1] = 1.0
    rhs = np.zeros(len(t_mat))
    rhs[-1] = 1.0
    return np.linalg.solve(system, rhs)


@pytest.mark.parametrize(
    "n", [1, 2, _GTH_BLOCK - 1, _GTH_BLOCK, _GTH_BLOCK + 1, 2 * _GTH_BLOCK + 1, 400]
)
def test_agrees_with_a_dense_solve_on_every_block_layout(n):
    # n = 1 (mod block) leaves a block of one state
    for seed in range(3):
        m = random_unifilar_model(np.random.default_rng(seed), n, 3)
        pi = stationary(m).probs
        assert pi.min() > 0.0
        assert np.max(np.abs(pi - _dense_reference(m))) <= 1e-14


def _decoupled(eps: float) -> FinitePredictiveModel:
    """Two 2-state blocks joined by eps; the exact pi is (1/3, 1/6, 1/3, 1/6)."""
    trans = {
        ("A", "a"): (0.5, "B"), ("A", "b"): (0.5, "A"),
        ("B", "a"): (1 - eps, "A"), ("B", "b"): (eps, "C"),
        ("C", "a"): (0.5, "D"), ("C", "b"): (0.5, "C"),
        ("D", "a"): (1 - eps, "C"), ("D", "b"): (eps, "A"),
    }
    return FinitePredictiveModel(("A", "B", "C", "D"), ("a", "b"), trans)


@pytest.mark.parametrize("eps", [1e-9, 1e-11])
def test_nearly_decoupled_chain_is_exact(eps):
    # a least-squares solve of [T' - I; 1'] missed by 4.4e-8 and 7.5e-6 here
    pi = stationary(_decoupled(eps)).probs
    assert np.max(np.abs(pi - [1 / 3, 1 / 6, 1 / 3, 1 / 6])) <= 1e-15


def test_rows_within_equal_tol_of_one_are_solved():
    # the constructor accepts this row sum of 1 + 9e-10; the raw T has residual 2e-10
    trans = {
        ("A", "0"): (0.3, "A"), ("A", "1"): (0.7 + 9e-10, "B"),
        ("B", "0"): (0.6, "A"), ("B", "1"): (0.4, "B"),
    }
    m = FinitePredictiveModel(("A", "B"), ("0", "1"), trans)
    pi = stationary(m).probs
    assert np.max(np.abs(pi - _dense_reference(m))) <= 1e-15
    assert np.max(np.abs(pi - [6 / 13, 7 / 13])) <= 1e-9


def _reachable(tree: ast.Module, root: str) -> dict[str, ast.FunctionDef]:
    """The module's functions that ``root`` calls by name, directly or not."""
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    found, todo = {}, [root]
    while todo:
        name = todo.pop()
        if name not in found:
            found[name] = funcs[name]
            todo += [node.func.id for node in ast.walk(funcs[name])
                     if isinstance(node, ast.Call) and getattr(node.func, "id", None) in funcs]
    return found


def test_the_stationary_path_calls_no_linalg_routine():
    # a pivoted LU or least-squares solve subtracts, and loses the entrywise accuracy
    tree = ast.parse(inspect.getsource(hmm))
    path = _reachable(tree, "stationary")
    assert {"_gth", "_neumann", "_stationary_residual"} <= set(path)
    for func in path.values():
        names = {getattr(n, "attr", getattr(n, "id", None)) for n in ast.walk(func)}
        assert "linalg" not in names, func.name
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert not any("linalg" in ast.unparse(n) for n in imports)
