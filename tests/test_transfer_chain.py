"""transfer_chain and the transfer steps against a copy of the full-rescan construction.

The reference below classifies every entry of x - y again before each op and
keeps its running vector as a float64 array.  The library classifies once,
updates the two entries an op touches, and works on Python floats; the ops,
the replayed vectors, the mixing matrices and every message must not change.
"""

from fractions import Fraction
from numbers import Real

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from machina.distributions import (
    Distribution,
    MajorizationVerdict,
    TransferOp,
    apply_transfer,
    chain_to_doubly_stochastic,
    compare,
    pad_to,
    replay_chain,
    transfer_chain,
    validate_distribution,
    _index,
    _padded_sorted_pair,
)
from machina.errors import IllegalTransferError, MachinaError, NotComparableError
from machina.tolerances import LANDING_TOL, ZERO_TOL


def _ref_transfer(x: np.ndarray, op: TransferOp) -> float:
    i, j, eps = _index(op.donor), _index(op.recipient), op.amount
    n = len(x)
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise IllegalTransferError(f"bad index pair ({op.donor}, {op.recipient}) for length {n}")
    gap = x[i] - x[j]
    if gap <= 0:
        raise IllegalTransferError(f"donor entry {x[i]:.6g} does not exceed recipient {x[j]:.6g}")
    if not isinstance(eps, Real):
        raise IllegalTransferError(f"amount {eps!r} is not a number")
    if not (0.0 < eps < gap):
        raise IllegalTransferError(f"amount {eps:.6g} outside (0, {gap:.6g})")
    x[i] -= eps
    x[j] += eps
    return eps / gap


def _ref_transfer_chain(p, q) -> list[TransferOp]:
    p = validate_distribution(p)
    q = validate_distribution(q)
    verdict = compare(p, q)
    if verdict not in (
        MajorizationVerdict.STRICTLY_MAJORIZES,
        MajorizationVerdict.EQUIVALENT,
    ):
        raise NotComparableError(f"verdict is {verdict}, need majorization")
    x, y = _padded_sorted_pair(p, q)
    x = x.copy()
    ops: list[TransferOp] = []
    for _ in range(max(len(x) - 1, 0)):
        diff = x - y
        over = np.flatnonzero(diff > ZERO_TOL)
        if over.size == 0:
            break
        j = int(over[-1])
        under = np.flatnonzero(diff < -ZERO_TOL)
        under = under[under > j]
        if under.size == 0:
            break
        k = int(under[0])
        op = TransferOp(j, k, float(min(x[j] - y[j], y[k] - x[k])))
        _ref_transfer(x, op)
        ops.append(op)
    if np.max(np.abs(x - y)) > LANDING_TOL:
        raise NotComparableError("transfer construction failed to land on target")
    return ops


def _ref_apply_transfer(d, op):
    out = validate_distribution(d).probs.copy()
    _ref_transfer(out, op)
    return Distribution(out)


def _ref_replay_chain(p, ops):
    x = validate_distribution(p).sorted_desc().copy()
    for op in ops:
        _ref_transfer(x, op)
    return Distribution(x)


def _ref_doubly_stochastic(ops, start, n):
    start = validate_distribution(start)
    x = pad_to(start, n).sorted_desc().copy()
    d = np.eye(len(x))
    for op in ops:
        lam = _ref_transfer(x, op)
        mix = lam * (d[op.donor] - d[op.recipient])
        d[op.donor] -= mix
        d[op.recipient] += mix
    return d


def _outcome(fn, *args):
    """The value ``fn`` returns, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except MachinaError as exc:
        return type(exc), str(exc)


def _as_bytes(value):
    if isinstance(value, Distribution):
        return value.probs.tobytes()
    return value.tobytes() if isinstance(value, np.ndarray) else value


# x - y lands on both sides of +-ZERO_TOL, and on it
JITTER = tuple(s * f * ZERO_TOL for s in (1, -1) for f in (0.5, 0.999, 1.0, 1.001, 2.0)) + (0.0,)


@st.composite
def majorizing_pairs(draw):
    """(p, q) with p majorizing q, up to a jitter near ZERO_TOL; the lengths may differ."""
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
    hypothesis.assume(sum(weights) > 0.05)
    p = np.array(weights) / sum(weights)
    m = len(p) + draw(st.integers(0, 4))
    x = np.concatenate([p, np.zeros(m - len(p))])
    # a convex mix of permutations of x is majorized by x
    q = x.copy()
    for _ in range(draw(st.integers(0, 3))):
        t = draw(st.floats(0.0, 1.0))
        q = (1 - t) * q + t * x[draw(st.permutations(range(m)))]
    if draw(st.booleans()):
        q = np.sort(q)[::-1] + draw(st.lists(st.sampled_from(JITTER), min_size=m, max_size=m))
    # drop zeros from the end of q, so that p is the longer one
    while len(q) > 1 and q[-1] == 0 and draw(st.booleans()):
        q = q[:-1]
    return p, q


def _big_pair():
    rng = np.random.default_rng(2000)
    p = rng.dirichlet(np.full(2000, 0.3))
    return p, 0.6 * p + 0.4 * p[rng.permutation(2000)]


@hypothesis.settings(derandomize=True, deadline=None)
@hypothesis.given(majorizing_pairs())
@hypothesis.example(_big_pair())
@hypothesis.example((np.array([1.0, 0.0]), np.array([0.5, 0.25, 0.25])))
@hypothesis.example((np.array([0.5, 0.5, 0.0]), np.array([0.5 + ZERO_TOL, 0.5 - ZERO_TOL])))
@hypothesis.example((np.array([0.6, 0.4]), np.array([0.6, 0.4]) + np.array([-1.1, 0.9]) * ZERO_TOL))
def test_chain_steps_replays_and_matrices_match_the_full_rescan(pair):
    p, q = pair
    ops = _outcome(transfer_chain, p, q)
    ref = _outcome(_ref_transfer_chain, p, q)
    assert repr(ops) == repr(ref)
    if not isinstance(ref, list):
        return
    n = max(len(p), len(q))
    padded = pad_to(p, n)
    assert _as_bytes(_outcome(replay_chain, padded, ops)) == _as_bytes(
        _outcome(_ref_replay_chain, padded, ref)
    )
    assert _as_bytes(_outcome(chain_to_doubly_stochastic, ops, p, n)) == _as_bytes(
        _outcome(_ref_doubly_stochastic, ref, p, n)
    )
    cur = ref_cur = Distribution(padded.sorted_desc())
    for op in ops[:50]:
        # a reversed op and one that moves the whole gap are refused with the same message
        gap = float(cur.probs[op.donor] - cur.probs[op.recipient])
        for bad in (TransferOp(op.recipient, op.donor, op.amount),
                    TransferOp(op.donor, op.recipient, gap)):
            assert _outcome(apply_transfer, cur, bad) == _outcome(_ref_apply_transfer, cur, bad)
        cur, ref_cur = apply_transfer(cur, op), _ref_apply_transfer(ref_cur, op)
        assert cur.probs.tobytes() == ref_cur.probs.tobytes()


@pytest.mark.parametrize(
    "amount",
    [0.1, np.float64(0.1), np.float32(0.1), Fraction(1, 10), 0.5 - 0.3, 0.3],
    ids=["float", "float64", "float32", "fraction", "whole-gap", "past-gap"],
)
def test_amounts_of_any_real_type_move_what_a_float64_array_moves(amount):
    start = [0.5, 0.3, 0.2]
    op = TransferOp(0, 1, amount)
    assert _as_bytes(_outcome(apply_transfer, start, op)) == _as_bytes(
        _outcome(_ref_apply_transfer, start, op)
    )
    assert _as_bytes(_outcome(chain_to_doubly_stochastic, [op], start, 3)) == _as_bytes(
        _outcome(_ref_doubly_stochastic, [op], start, 3)
    )
