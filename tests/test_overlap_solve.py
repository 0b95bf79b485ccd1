"""The overlap fixed point against test-local references, its log record and its errors.

The references are a dense linear solve over the off-diagonal overlaps and a
copy of the plain fixed-point (Picard) loop that ``gram_fixed_point`` used to
run.  The machines are near-uniform: every state emits every symbol within a
few percent of an equal share, so the recursion contracts slowly.
"""

import logging
import re

import numpy as np
import pytest

from machina import quantum
from machina.catalog import mbw3, mbw4
from machina.cli import main
from machina.errors import NoConvergenceError
from machina.hmm import FinitePredictiveModel
from machina.minimize import merge
from machina.quantum import gram_fixed_point
from random_models import random_unifilar_model
from machina.tolerances import STEP_TOL, ZERO_TOL


def _near_uniform(seed: int, n: int, k: int, spread: float) -> FinitePredictiveModel:
    """n states, k symbols, each emission within ``spread`` (relative) of 1/k;
    symbol 0 walks a ring through all states, so the machine is irreducible."""
    rng = np.random.default_rng(seed)
    rows = 1.0 + spread * rng.uniform(-1.0, 1.0, size=(n, k))
    rows /= rows.sum(axis=1, keepdims=True)
    succ = rng.integers(n, size=(n, k))
    succ[:, 0] = (np.arange(n) + 1) % n
    states = tuple(f"s{i}" for i in range(n))
    alphabet = tuple(str(j) for j in range(k))
    trans = {
        (s, x): (float(rows[i, j]), states[succ[i, j]])
        for i, s in enumerate(states)
        for j, x in enumerate(alphabet)
    }
    return FinitePredictiveModel(states, alphabet, trans)


def _recursion_terms(m):
    roots = np.sqrt(m.probs)
    mapped = np.where(m.probs > ZERO_TOL, m.succ, 0)
    return [(np.outer(w, w), np.ix_(col, col)) for w, col in zip(roots.T, mapped.T)]


def _apply(terms, gram):
    """One step of the recursion, diagonal pinned to one."""
    nxt = np.zeros_like(gram)
    for w_outer, pairs in terms:
        nxt += w_outer * gram[pairs]
    np.fill_diagonal(nxt, 1.0)
    return nxt


def _picard(m) -> tuple[np.ndarray, int]:
    """Iterate the recursion from the identity until a step is below STEP_TOL."""
    terms = _recursion_terms(m)
    gram = np.eye(len(m.states))
    for iteration in range(1, 100_001):
        nxt = _apply(terms, gram)
        delta = np.max(np.abs(nxt - gram))
        gram = nxt
        if delta < STEP_TOL:
            return gram, iteration
    raise AssertionError("Picard loop did not converge")


def _dense(m) -> np.ndarray:
    """Exact fixed point: solve (I - A) x = b over the overlaps above the diagonal."""
    n = len(m.states)
    pairs = list(zip(*np.triu_indices(n, 1)))
    index = {pair: i for i, pair in enumerate(pairs)}
    a, b = np.eye(len(pairs)), np.zeros(len(pairs))
    for row, (s, t) in enumerate(pairs):
        for j in range(len(m.alphabet)):
            w = np.sqrt(m.probs[s, j] * m.probs[t, j])
            if w == 0.0:
                continue
            fs, ft = int(m.succ[s, j]), int(m.succ[t, j])
            if fs == ft:
                b[row] += w
            else:
                a[row, index[min(fs, ft), max(fs, ft)]] -= w
    gram = np.eye(n)
    for (s, t), v in zip(pairs, np.linalg.solve(a, b)):
        gram[s, t] = gram[t, s] = v
    return gram


def _draw(seed: int):
    rng = np.random.default_rng(seed)
    return int(rng.integers(10, 31)), int(rng.integers(2, 5)), float(rng.uniform(0.01, 0.04))


@pytest.mark.parametrize("seed", range(8))
def test_fixed_point_matches_dense_solve_and_picard_loop(seed):
    m = _near_uniform(seed, *_draw(seed))
    gram = gram_fixed_point(m)
    assert np.array_equal(gram, gram.T)
    assert np.array_equal(np.diag(gram), np.ones(len(m.states)))
    assert np.max(np.abs(_apply(_recursion_terms(m), gram) - gram)) < STEP_TOL
    assert np.max(np.abs(gram - _dense(m))) <= 1e-11
    assert np.max(np.abs(gram - _picard(m)[0])) <= 5e-11


def test_slow_machine_logs_one_short_iteration_count(caplog):
    m = _near_uniform(2, 30, 2, 0.01)
    assert _picard(m)[1] > 1000  # the plain loop's count on this machine
    with caplog.at_level(logging.DEBUG, logger="machina.quantum"):
        gram_fixed_point(m)
    done = [
        r for r in caplog.records
        if r.name == "machina.quantum" and r.msg == "overlap recursion converged in %d iterations"
    ]
    assert len(done) == 1
    assert isinstance(done[0].args[0], int)
    assert done[0].args[0] <= 400


def test_iteration_cap_raises_and_cli_exits_one(monkeypatch, capsys):
    # mbw4 converges in two iterations, so a cap of one is hit
    message = "overlap recursion not converged after 1 iterations"
    monkeypatch.setattr(quantum, "GRAM_MAX_ITER", 1)
    with pytest.raises(NoConvergenceError, match=re.escape(message)):
        gram_fixed_point(mbw4())
    assert main(["qmachine", "--process", "mbw4"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"


def test_non_finite_residual_raises_instead_of_returning_nan(monkeypatch):
    # a NaN step reaches the guard only on a machine that needs a third
    # iteration; mbw3, mbw4 and even_odd converge in two
    m = merge(random_unifilar_model(np.random.default_rng(3), 8, 2))

    def nan_solve(a, b):
        return np.full(np.shape(b), np.nan)

    monkeypatch.setattr(np.linalg, "solve", nan_solve)
    with pytest.raises(NoConvergenceError, match="residual is not finite"):
        gram_fixed_point(m)


@pytest.mark.parametrize("seed", range(3))
def test_singular_history_takes_the_plain_step(monkeypatch, seed):
    # every Anderson solve reports a singular history, so every step is the plain one
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    m = _near_uniform(seed, *_draw(seed))
    reference = _dense(m)  # before the patch: the reference solves with np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", singular)
    assert np.max(np.abs(gram_fixed_point(m) - reference)) <= 1e-11


@pytest.mark.parametrize(
    "make",
    [mbw3, lambda: _near_uniform(1, *_draw(1))],
    ids=["exact-zero-residual", "round-off-stagnation"],
)
def test_real_singular_history_takes_the_plain_step(monkeypatch, make):
    # With STEP_TOL at 0 the loop runs on past its fixed point: mbw3's residual
    # is exactly zero from the second iteration, the near-uniform machine's
    # repeats at round-off, so residual differences repeat (as zero vectors) and
    # LAPACK itself reports the normal matrix singular.  The solve is spied on,
    # not replaced.
    real_solve, singular = np.linalg.solve, []

    def spy(a, b):
        try:
            return real_solve(a, b)
        except np.linalg.LinAlgError:
            singular.append(a.shape[0])
            raise

    m = make()
    monkeypatch.setattr(quantum, "STEP_TOL", 0.0)
    monkeypatch.setattr(quantum, "GRAM_MAX_ITER", 100)
    monkeypatch.setattr(np.linalg, "solve", spy)
    with pytest.raises(NoConvergenceError, match="not converged after 100 iterations"):
        gram_fixed_point(m)
    assert singular
