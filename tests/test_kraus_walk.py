"""The Kraus-image walk against a test-local copy of the per-column loop it replaced.

``quantum._walk_images`` takes every overlap of a symbol's images from one
matrix product; the reference below takes them one image column at a time.
Both must give the same transitions (floats equal by ``==``) and the same
ambiguity message, or raise the same error with the same message.
"""

from types import MappingProxyType

import numpy as np
import pytest

from machina import quantum
from machina.catalog import d3, d4, q3, q4
from machina.errors import AmbiguousSuccessorError, NotUnifilarError
from machina.minimize import merge
from machina.quantum import PureStateQuantumModel, build_qmachine, classical_equivalent
from machina.tolerances import EQUAL_TOL, ZERO_TOL
from random_models import random_unifilar_model

H = np.sqrt(0.5) * np.array([[1.0, 1.0], [1.0, -1.0]])
KET0, KET1, PLUS = np.array([1.0, 0.0]), np.array([0.0, 1.0]), H[:, 0]


def _column_walk(q):
    """The walk as one overlap vector per image column."""
    trans, ambiguous = {}, None
    bras = q.states.conj().T
    for x in q.alphabet:
        images = q.kraus[x] @ q.states
        for i, label in enumerate(q.labels):
            p = float(np.real(np.vdot(images[:, i], images[:, i])))
            nrm = np.sqrt(p)
            if nrm > EQUAL_TOL:
                overlaps = np.abs(bras @ images[:, i]) / nrm
                if overlaps.max() < 1.0 - EQUAL_TOL:
                    raise NotUnifilarError(
                        f"K[{x!r}] maps state {label!r} outside the state set "
                        f"(best overlap {overlaps.max():.9f})"
                    )
                hits = np.flatnonzero(overlaps > 1.0 - EQUAL_TOL)
                if p > ZERO_TOL and hits.size == 1:
                    trans[(label, x)] = (min(p, 1.0), q.labels[hits[0]])
                elif p > ZERO_TOL and ambiguous is None:
                    ambiguous = f"state {label!r} under K[{x!r}]: {hits.size} matching states"
    return trans, ambiguous


def _outcome(walk, q):
    try:
        trans, ambiguous = walk(q)
    except NotUnifilarError as exc:
        return "raises", str(exc)
    return dict(trans), ambiguous


def _build(states, kraus, labels):
    return PureStateQuantumModel(
        dim=len(states[0]), labels=labels, states=np.array(states).T,
        alphabet=tuple(kraus), kraus=kraus,
    )


def _unwalked(monkeypatch, states, kraus, labels):
    """A model built without its walk, so that a walk that raises can be compared."""
    with monkeypatch.context() as patch:
        patch.setattr(quantum, "_walk_images", lambda q: (MappingProxyType({}), None))
        return _build(states, kraus, labels)


@pytest.mark.parametrize("factory", [d3, d4, q3, q4])
def test_catalog_models_walk_as_by_columns(factory):
    q = factory()
    assert _outcome(quantum._walk_images, q) == _outcome(_column_walk, q)


@pytest.mark.parametrize("seed, n, k", [(11, 20, 2), (12, 35, 3), (13, 48, 3), (14, 60, 4)])
def test_synthesized_models_walk_as_by_columns(seed, n, k):
    q = build_qmachine(merge(random_unifilar_model(np.random.default_rng(seed), n, k)))
    assert q.n >= 20
    got = _outcome(quantum._walk_images, q)
    assert got == _outcome(_column_walk, q)
    assert got[1] is None


# (states as rows, Kraus operators, labels, the error or ambiguity both walks report)
HAND_MADE = {
    # |0> goes to |+>, halfway between the two states
    "non-unifilar": (
        [KET0, KET1], {"0": H}, ("A", "B"),
        "K['0'] maps state 'A' outside the state set (best overlap 0.707106781)",
    ),
    # the first image is dead under the symbol that leaves the state set: the
    # failing label is the second state, the first live column
    "non-unifilar after a dead image": (
        [KET1, KET0], {"0": np.outer(KET1, KET1), "1": np.outer(PLUS, KET0)}, ("A", "B"),
        "K['1'] maps state 'B' outside the state set (best overlap 0.707106781)",
    ),
    # twin memory states match every image twice
    "ambiguous": (
        [KET0, KET0, KET1], {"0": np.eye(2)}, ("A", "B", "C"),
        "state 'A' under K['0']: 2 matching states",
    ),
    # ambiguous under the first symbol, then non-unifilar under the second: the error wins
    "ambiguous, then non-unifilar": (
        [KET0, KET0, KET1], {"0": np.sqrt(0.5) * np.eye(2), "1": np.sqrt(0.5) * H},
        ("A", "B", "C"),
        "K['1'] maps state 'A' outside the state set (best overlap 0.707106781)",
    ),
    # B's image under 0 is live (norm 1e-7 > EQUAL_TOL) but emits p = 1e-14 <= ZERO_TOL
    "live image below ZERO_TOL": (
        [KET0, KET1],
        {"0": np.diag([1.0, 1e-7]), "1": np.diag([0.0, np.sqrt(1.0 - 1e-14)])},
        ("A", "B"),
        None,
    ),
}


@pytest.mark.parametrize("name", HAND_MADE)
def test_hand_made_models_walk_as_by_columns(monkeypatch, name):
    states, kraus, labels, expected = HAND_MADE[name]
    q = _unwalked(monkeypatch, states, kraus, labels)
    got = _outcome(quantum._walk_images, q)
    assert got == _outcome(_column_walk, q)
    assert got[1] == expected
    if got[0] == "raises":
        with pytest.raises(NotUnifilarError) as caught:
            _build(states, kraus, labels)
        assert str(caught.value) == expected
    elif expected is not None:
        with pytest.raises(AmbiguousSuccessorError) as caught:
            classical_equivalent(_build(states, kraus, labels))
        assert str(caught.value) == expected
