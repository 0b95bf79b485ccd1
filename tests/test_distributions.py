import functools
import math
import re

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from machina.distributions import (
    ALPHA_GRID,
    Distribution,
    MajorizationVerdict,
    TransferOp,
    apply_transfer,
    chain_to_doubly_stochastic,
    compare,
    comparison_tolerance,
    lorenz_curve,
    pad_to,
    renyi_entropy,
    renyi_negentropy,
    replay_chain,
    transfer_chain,
    validate_distribution,
)
from machina.errors import (
    IllegalTransferError,
    NegativeEntryError,
    NotComparableError,
    NotNormalizedError,
    PaddingError,
)
from machina.hmm import stationary
from machina.quantum import spectrum
from random_models import random_unifilar_model

FIG2_P = [3 / 4, 1 / 8, 1 / 8, 0, 0]
FIG2_Q = [2 / 5, 1 / 5, 1 / 5, 1 / 10, 1 / 10]
FIG3_P = [3 / 5, 1 / 10, 1 / 10, 1 / 10, 1 / 10]
FIG3_Q = [1 / 3, 1 / 3, 1 / 3, 0, 0]


# ------------------------------------------------------------- validation

def test_validate_accepts_exact():
    d = validate_distribution([0.5, 0.5])
    assert np.allclose(d.probs, [0.5, 0.5])


def test_validate_rejects_unnormalized():
    with pytest.raises(NotNormalizedError):
        validate_distribution([0.6, 0.3])


def test_validate_accepts_figure_vector():
    assert len(validate_distribution(FIG2_P)) == 5


def test_validate_clips_subtolerance_noise():
    d = validate_distribution([1.0, -1e-13])
    assert d.probs[1] == 0.0


def test_validate_rejects_real_negatives():
    with pytest.raises(NegativeEntryError):
        validate_distribution([1.001, -0.001])


def test_distribution_is_immutable():
    d = validate_distribution([0.25, 0.75])
    with pytest.raises(ValueError):
        d.probs[0] = 1.0


# ---------------------------------------------------------------- padding

def test_pad_appends_zeros():
    assert np.allclose(pad_to([0.7, 0.3], 4).probs, [0.7, 0.3, 0.0, 0.0])


def test_pad_identity():
    d = validate_distribution([0.5, 0.5])
    assert pad_to(d, 2) is d


def test_pad_too_small():
    with pytest.raises(PaddingError):
        pad_to([0.5, 0.5], 1)
    # a length that is not an integer is too small for every vector
    for bad in (2.5, 3.0, True):
        with pytest.raises(PaddingError, match=f"^cannot pad length 2 to {re.escape(repr(bad))}$"):
            pad_to([0.5, 0.5], bad)
    with pytest.raises(PaddingError, match="^cannot pad length 2 to 3.0$"):
        chain_to_doubly_stochastic([], [0.5, 0.5], 3.0)
    with pytest.raises(PaddingError, match="^cannot pad length 2 to 2.5$"):
        spectrum(np.eye(2) / 2, 2.5)


def test_padding_makes_vectors_equivalent():
    assert compare([1, 0, 0], [1, 0]) is MajorizationVerdict.EQUIVALENT


# ---------------------------------------------------------------- compare

def test_figure_pair_majorizes():
    assert compare(FIG2_P, FIG2_Q) is MajorizationVerdict.STRICTLY_MAJORIZES
    assert compare(FIG2_Q, FIG2_P) is MajorizationVerdict.STRICTLY_MAJORIZED_BY


def test_figure_pair_incomparable():
    assert compare(FIG3_P, FIG3_Q) is MajorizationVerdict.INCOMPARABLE


def test_compare_reflexive():
    assert compare([0.5, 0.5], [0.5, 0.5]) is MajorizationVerdict.EQUIVALENT


def test_compare_env_override(monkeypatch):
    monkeypatch.setenv("MACHINA_TOL", "0.2")
    assert compare([0.5, 0.5], [0.6, 0.4]) is MajorizationVerdict.EQUIVALENT
    monkeypatch.delenv("MACHINA_TOL")
    assert compare([0.5, 0.5], [0.6, 0.4]) is MajorizationVerdict.STRICTLY_MAJORIZED_BY


# ---------------------------------------------------------------- Lorenz

def test_lorenz_curve_values():
    curve = lorenz_curve(FIG2_P)
    assert np.allclose(curve.cumulative, [0, 0.75, 0.875, 1, 1, 1])
    assert list(curve.k) == [0, 1, 2, 3, 4, 5]


def test_lorenz_point_mass():
    assert np.allclose(lorenz_curve([1.0]).cumulative, [0, 1])


def test_lorenz_uniform():
    assert np.allclose(lorenz_curve([0.25] * 4).cumulative, [0, 0.25, 0.5, 0.75, 1])


# --------------------------------------------------------------- entropies

def test_renyi_uniform_is_flat():
    for alpha in ALPHA_GRID:
        assert renyi_entropy([0.25] * 4, alpha) == pytest.approx(2.0, abs=1e-12)


def test_renyi_support_counting():
    assert renyi_entropy(FIG2_P, 0) == pytest.approx(math.log2(3), abs=1e-12)


def test_renyi_min_entropy():
    assert renyi_entropy(FIG2_P, math.inf) == pytest.approx(-math.log2(0.75), abs=1e-12)


def test_renyi_tends_to_min_entropy_at_large_finite_alpha():
    # [0.5, 0.25, 0.25]**alpha underflows from alpha of about 1075 on; H_inf is 1 bit and
    # H_alpha - H_inf = log2(1 + 2 * 2**-alpha) / (1 - alpha) + 1 / (alpha - 1)
    h_inf = renyi_entropy([0.5, 0.25, 0.25], math.inf)
    values = [renyi_entropy([0.5, 0.25, 0.25], a) for a in (10.0, 1e3, 1e4, 1e8, 1e300, 1e308)]
    assert values == sorted(values, reverse=True)
    for alpha, h in zip((10.0, 1e3, 1e4, 1e8, 1e300, 1e308), values):
        assert h_inf <= h <= h_inf * (1.0 + 2.0 / (alpha - 1.0))
    assert renyi_entropy(FIG2_P, 1e300) == renyi_entropy(FIG2_P, math.inf)


def test_renyi_of_a_point_mass_short_of_one_is_zero():
    # the spectrum of a one-dimensional q-machine: it passes validation, and the
    # kept support is rescaled before the sum, so no entropy prints as -3.8e-13
    for alpha in ALPHA_GRID:
        assert renyi_entropy([1 - 2.6e-13, 0.0], alpha) == 0.0


def test_renyi_shannon_of_memory_spectrum():
    spectrum = [0.72855, 0.125, 0.125, 0.02145]
    assert renyi_entropy(spectrum, 1) == pytest.approx(1.20, abs=0.01)


def test_renyi_rejects_negative_alpha():
    with pytest.raises(ValueError):
        renyi_entropy([1.0], -1)


def test_negentropy_uniform_is_zero():
    assert renyi_negentropy([0.25] * 4, 1) == pytest.approx(0.0, abs=1e-12)


def test_negentropy_grows_with_padding():
    # entropy is padding-safe, negentropy is not: that is the point
    assert renyi_negentropy([1, 0], 0) == pytest.approx(1.0)
    assert renyi_negentropy([1, 0, 0], 0) == pytest.approx(math.log2(3))


# --------------------------------------------------------------- transfers

def test_apply_transfer_basic():
    out = apply_transfer([0.7, 0.3], TransferOp(0, 1, 0.2))
    assert np.allclose(out.probs, [0.5, 0.5])


def test_apply_transfer_needs_disparity():
    with pytest.raises(IllegalTransferError):
        apply_transfer([0.5, 0.5], TransferOp(0, 1, 0.1))


def test_apply_transfer_amount_bounds():
    with pytest.raises(IllegalTransferError):
        apply_transfer([0.7, 0.3], TransferOp(0, 1, 0.4))
    with pytest.raises(IllegalTransferError):
        apply_transfer([0.7, 0.3], TransferOp(0, 1, 0.0))


def test_transfer_chain_single_step():
    ops = transfer_chain([1, 0], [0.5, 0.5])
    assert len(ops) == 1
    assert ops[0] == TransferOp(0, 1, 0.5)


def test_transfer_chain_empty_for_equal():
    assert transfer_chain([0.5, 0.5], [0.5, 0.5]) == []


def test_transfer_chain_figure_pair():
    ops = transfer_chain(FIG2_P, FIG2_Q)
    assert len(ops) <= 4
    final = replay_chain(FIG2_P, ops)
    assert np.allclose(final.probs, sorted(FIG2_Q, reverse=True), atol=1e-12)


def test_replay_chain_starts_from_the_padded_vector():
    # the chain indexes p padded to q's length; unpadded, recipient 2 is out of range
    p, q = [1, 0], [0.5, 0.25, 0.25]
    ops = transfer_chain(p, q)
    landed = replay_chain(pad_to(p, max(len(p), len(q))), ops)
    assert np.array_equal(landed.probs, sorted(q, reverse=True))
    with pytest.raises(IllegalTransferError, match=re.escape("bad index pair (0, 2) for length 2")):
        replay_chain(p, ops)


def test_transfer_chain_rejects_incomparable():
    with pytest.raises(NotComparableError):
        transfer_chain(FIG3_P, FIG3_Q)


def test_doubly_stochastic_empty_chain():
    assert np.array_equal(chain_to_doubly_stochastic([], [0.5, 0.5]), np.eye(2))


def test_doubly_stochastic_single_step():
    mat = chain_to_doubly_stochastic([TransferOp(0, 1, 0.5)], [1, 0])
    assert np.allclose(mat, [[0.5, 0.5], [0.5, 0.5]])


def test_doubly_stochastic_maps_sorted_vectors():
    ops = transfer_chain(FIG2_P, FIG2_Q)
    mat = chain_to_doubly_stochastic(ops, FIG2_P)
    assert np.allclose(mat.sum(axis=0), 1.0, atol=1e-12)
    assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(mat @ sorted(FIG2_P, reverse=True), sorted(FIG2_Q, reverse=True), atol=1e-12)


@pytest.mark.parametrize(
    "op, message",
    [
        (TransferOp(-1, 1, 0.05), "bad index pair (-1, 1) for length 3"),
        (TransferOp(0, -1, 0.1), "bad index pair (0, -1) for length 3"),
        (TransferOp(3, 2, 0.05), "bad index pair (3, 2) for length 3"),
        (TransferOp(0, 3, 0.1), "bad index pair (0, 3) for length 3"),
        (TransferOp(0, 1, 0.3), "amount 0.3 outside (0, 0.2)"),
        (TransferOp(0, 1.0, 0.1), "bad index pair (0, 1.0) for length 3"),
        (TransferOp(0, True, 0.1), "bad index pair (0, True) for length 3"),
        (TransferOp(0, 1, None), "amount None is not a number"),
        (TransferOp(0, 1, "0.1"), "amount '0.1' is not a number"),
    ],
    ids=[
        "donor-minus-one", "recipient-minus-one", "donor-n", "recipient-n", "amount-past-gap",
        "float-recipient", "bool-recipient", "none-amount", "string-amount",
    ],
)
def test_doubly_stochastic_rejects_what_apply_transfer_rejects(op, message):
    start = [0.5, 0.3, 0.2]
    with pytest.raises(IllegalTransferError, match=f"^{re.escape(message)}$"):
        apply_transfer(start, op)
    with pytest.raises(IllegalTransferError, match=f"^{re.escape(message)}$"):
        chain_to_doubly_stochastic([op], start)


def _t_matrix_product(ops, x):
    """Reference: one explicit n x n T-transform matrix per op, multiplied out."""
    x = np.array(x, dtype=float)
    total = np.eye(x.size)
    for op in ops:
        i, j = op.donor, op.recipient
        lam = op.amount / (x[i] - x[j])
        t_mat = np.eye(x.size)
        t_mat[i, i] = t_mat[j, j] = 1.0 - lam
        t_mat[i, j] = t_mat[j, i] = lam
        total, x = t_mat @ total, t_mat @ x
    return total


def test_long_chain_matches_the_matrix_product_and_the_folded_transfers():
    model = random_unifilar_model(np.random.default_rng(10), 200, 3)
    p = pad_to(stationary(model), 220)
    q = 0.5 * p.probs + 0.5 / 220  # halfway to uniform, so p majorizes q
    ops = transfer_chain(p, q)
    assert len(ops) > 150
    mat = chain_to_doubly_stochastic(ops, p)
    assert np.max(np.abs(mat - _t_matrix_product(ops, p.sorted_desc()))) <= 1e-12
    assert np.max(np.abs(mat @ p.sorted_desc() - np.sort(q)[::-1])) <= 1e-12
    folded = functools.reduce(apply_transfer, ops, Distribution(p.sorted_desc()))
    assert np.array_equal(replay_chain(p, ops).probs, folded.probs)


# -------------------------------------------------------------- properties

def _normalize(xs):
    arr = np.asarray(xs, dtype=float)
    return arr / arr.sum()


dists = st.lists(
    st.floats(min_value=1e-3, max_value=1.0), min_size=1, max_size=8
).map(_normalize)


def _random_flattening(d: Distribution, data, max_ops=4):
    """Draw a chain of legal transfers; the result is majorized by d."""
    cur = d
    for _ in range(data.draw(st.integers(min_value=1, max_value=max_ops))):
        probs = cur.probs
        pairs = [
            (i, j)
            for i in range(len(probs))
            for j in range(len(probs))
            if probs[i] - probs[j] > 1e-6
        ]
        if not pairs:
            break
        i, j = data.draw(st.sampled_from(pairs))
        frac = data.draw(st.floats(min_value=0.05, max_value=0.95))
        cur = apply_transfer(cur, TransferOp(i, j, frac * (probs[i] - probs[j])))
    return cur


@hypothesis.given(dists, st.data())
def test_transfers_produce_majorized_vectors(p, data):
    p = validate_distribution(p)
    q = _random_flattening(p, data)
    assert compare(p, q) in (
        MajorizationVerdict.STRICTLY_MAJORIZES,
        MajorizationVerdict.EQUIVALENT,
    )


@hypothesis.given(dists, st.data())
def test_schur_concavity_of_renyi(p, data):
    p = validate_distribution(p)
    q = _random_flattening(p, data)
    for alpha in ALPHA_GRID:
        assert renyi_entropy(p, alpha) <= renyi_entropy(q, alpha) + 1e-9


@hypothesis.given(dists, st.integers(min_value=0, max_value=5))
def test_padding_invariance_of_entropy(p, extra):
    padded = pad_to(p, len(validate_distribution(p)) + extra)
    for alpha in ALPHA_GRID:
        assert renyi_entropy(padded, alpha) == renyi_entropy(p, alpha)


@hypothesis.given(dists)
def test_renyi_monotone_in_alpha(p):
    values = [renyi_entropy(p, a) for a in ALPHA_GRID]
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


def _lorenz_dominates(p, q):
    """Every Lorenz point of ``p`` at or above that of ``q``, the shorter zero-padded."""
    n = max(len(validate_distribution(p)), len(validate_distribution(q)))
    cp, cq = (lorenz_curve(pad_to(d, n)).cumulative for d in (p, q))
    return bool(np.all(cp >= cq - comparison_tolerance()))


def _containment_verdict(p, q):
    return {
        (True, True): MajorizationVerdict.EQUIVALENT,
        (True, False): MajorizationVerdict.STRICTLY_MAJORIZES,
        (False, True): MajorizationVerdict.STRICTLY_MAJORIZED_BY,
        (False, False): MajorizationVerdict.INCOMPARABLE,
    }[(_lorenz_dominates(p, q), _lorenz_dominates(q, p))]


@hypothesis.given(dists, dists)
def test_lorenz_containment_agrees_with_compare(p, q):
    assert compare(p, q) is _containment_verdict(p, q)


def test_lorenz_containment_agreement_bulk():
    # the two code paths must agree on 1,000 random pairs, mixed sizes
    rng = np.random.default_rng(9001)
    for _ in range(1000):
        p = rng.dirichlet(np.ones(int(rng.integers(1, 9))))
        q = rng.dirichlet(np.ones(int(rng.integers(1, 9))))
        assert compare(p, q) is _containment_verdict(p, q)


@hypothesis.given(dists)
def test_lorenz_curve_is_concave(p):
    increments = np.diff(lorenz_curve(p).cumulative)
    assert np.all(increments >= -1e-15)
    assert np.all(np.diff(increments) <= 1e-15)


@hypothesis.given(dists, st.data())
def test_single_legal_transfer_strictly_majorized(p, data):
    p = validate_distribution(p)
    probs = p.probs
    pairs = [
        (i, j)
        for i in range(len(probs))
        for j in range(len(probs))
        if probs[i] - probs[j] > 1e-6
    ]
    hypothesis.assume(pairs)
    i, j = data.draw(st.sampled_from(pairs))
    q = apply_transfer(p, TransferOp(i, j, 0.5 * (probs[i] - probs[j])))
    assert compare(p, q) is MajorizationVerdict.STRICTLY_MAJORIZES


@hypothesis.given(dists, st.data())
def test_transfer_chain_soundness(p, data):
    p = validate_distribution(p)
    q = _random_flattening(p, data)
    ops = transfer_chain(p, q)
    cur = Distribution(p.sorted_desc())
    for op in ops:
        nxt = apply_transfer(cur, op)
        assert compare(cur, nxt) in (
            MajorizationVerdict.STRICTLY_MAJORIZES,
            MajorizationVerdict.EQUIVALENT,
        )
        cur = nxt
    assert np.max(np.abs(cur.probs - q.sorted_desc())) < 1e-9


@hypothesis.given(dists, dists, st.data())
def test_compare_transitive_on_constructed_triples(p, q_seed, data):
    hypothesis.assume(len(validate_distribution(p)) >= 2)
    q = _random_flattening(validate_distribution(p), data)
    r = _random_flattening(q, data)
    if compare(p, q) is MajorizationVerdict.STRICTLY_MAJORIZES and compare(
        q, r
    ) is MajorizationVerdict.STRICTLY_MAJORIZES:
        assert compare(p, r) in (
            MajorizationVerdict.STRICTLY_MAJORIZES,
            MajorizationVerdict.EQUIVALENT,
        )
