"""Built-in example processes and their classical and quantum models.

Classical entries: the biased coin and its two redundant two-state
presentations, the even-odd concatenation grammar and its split variant,
and the cyclic three- and four-state chains whose quantum models drive the
weak-minimality analysis.  Quantum entries: the synthesized overlap models
(q3, q4) and the explicit two-dimensional models (d3, d4).
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .distributions import _number
from .hmm import FinitePredictiveModel
from .quantum import PureStateQuantumModel, build_qmachine


def _check_bias(p: float):
    if not (0.0 < p < 1.0):
        raise ValueError(f"bias must lie strictly between 0 and 1, got {p}")


def biased_coin(p: float = 0.5) -> FinitePredictiveModel:
    """Memoryless binary source: emits 1 with probability p."""
    _check_bias(p)
    trans = {("A", "1"): (p, "A"), ("A", "0"): (1.0 - p, "A")}
    return FinitePredictiveModel(("A",), ("0", "1"), trans)


def biased_coin_split(p: float = 0.5, variant: str = "b") -> FinitePredictiveModel:
    """Two-state presentations of the biased coin.

    Variant "b" remembers the last symbol (stationary (p, 1-p)); variant "c"
    stays in place with probability p and switches otherwise (stationary
    (1/2, 1/2)).  Both merge back to the single-state machine.
    """
    _check_bias(p)
    if variant == "b":
        trans = {
            ("B", "1"): (p, "B"),
            ("B", "0"): (1.0 - p, "C"),
            ("C", "1"): (p, "B"),
            ("C", "0"): (1.0 - p, "C"),
        }
    elif variant == "c":
        trans = {
            ("B", "1"): (p, "B"),
            ("B", "0"): (1.0 - p, "C"),
            ("C", "1"): (p, "C"),
            ("C", "0"): (1.0 - p, "B"),
        }
    else:
        raise ValueError(f"variant must be 'b' or 'c', got {variant!r}")
    return FinitePredictiveModel(("B", "C"), ("0", "1"), trans)


def even_odd(p: float = 0.5) -> FinitePredictiveModel:
    """Minimal machine for the odd-1-runs / even-0-runs grammar.

    States track the parity of the current run: A = odd count of 1s (run may
    end), B = even count of 1s (must continue), C = odd count of 0s (must
    continue), D = even count of 0s (run may end).  The branch bias p applies
    at both choice points.
    """
    _check_bias(p)
    trans = {
        ("A", "1"): (p, "B"),
        ("A", "0"): (1.0 - p, "C"),
        ("B", "1"): (1.0, "A"),
        ("C", "0"): (1.0, "D"),
        ("D", "0"): (p, "C"),
        ("D", "1"): (1.0 - p, "A"),
    }
    return FinitePredictiveModel(("A", "B", "C", "D"), ("0", "1"), trans)


def even_odd_split(p: float = 0.5) -> FinitePredictiveModel:
    """Five-state presentation with state C split into E and F.

    E receives the 0-transition from A, F the one from D; both copies keep
    C's deterministic 0-edge into D, so the generated process is unchanged.
    """
    _check_bias(p)
    trans = {
        ("A", "1"): (p, "B"),
        ("A", "0"): (1.0 - p, "E"),
        ("B", "1"): (1.0, "A"),
        ("E", "0"): (1.0, "D"),
        ("F", "0"): (1.0, "D"),
        ("D", "0"): (p, "F"),
        ("D", "1"): (1.0 - p, "A"),
    }
    return FinitePredictiveModel(("A", "B", "E", "F", "D"), ("0", "1"), trans)


def mbw3() -> FinitePredictiveModel:
    """Three-state cyclic chain: stay probability 2/3, hop probability 1/6.

    A Markov chain over its own alphabet (the next state is the emitted
    symbol), and already minimal.
    """
    names = ("A", "B", "C")
    trans = {}
    for s in names:
        for x in names:
            trans[(s, x)] = (2.0 / 3.0 if x == s else 1.0 / 6.0, x)
    return FinitePredictiveModel(names, names, trans)


def mbw4() -> FinitePredictiveModel:
    """Four-state chain paired with the explicit qubit model d4.

    Each state stays with probability 1/2 and otherwise hops to one of the
    two states in the opposite pair.
    """
    names = ("A", "B", "C", "D")
    rows = {
        "A": {"A": 0.5, "C": 0.25, "D": 0.25},
        "B": {"B": 0.5, "C": 0.25, "D": 0.25},
        "C": {"C": 0.5, "A": 0.25, "B": 0.25},
        "D": {"D": 0.5, "A": 0.25, "B": 0.25},
    }
    trans = {(s, x): (p, x) for s, row in rows.items() for x, p in row.items()}
    return FinitePredictiveModel(names, names, trans)


def _rank_one_model(labels, states: np.ndarray, dual_scale: float) -> PureStateQuantumModel:
    # Kraus operators |eta_x><eta_x| * dual_scale, one per emitted symbol
    kraus = {
        x: dual_scale * np.outer(states[:, i], states[:, i].conj())
        for i, x in enumerate(labels)
    }
    return PureStateQuantumModel(
        dim=states.shape[0], labels=labels, states=states, alphabet=labels, kraus=kraus
    )


def d3() -> PureStateQuantumModel:
    """Two-dimensional model of the three-state chain: unit vectors 120 deg apart."""
    s3 = math.sqrt(3.0) / 2.0
    states = np.array([[1.0, 0.5, 0.5], [0.0, s3, -s3]], dtype=complex)
    return _rank_one_model(("A", "B", "C"), states, math.sqrt(2.0 / 3.0))


def d4() -> PureStateQuantumModel:
    """Two-dimensional model of the four-state chain: the two conjugate bases."""
    r = 1.0 / math.sqrt(2.0)
    states = np.array([[1.0, 0.0, r, r], [0.0, 1.0, r, -r]], dtype=complex)
    return _rank_one_model(("A", "B", "C", "D"), states, r)


@cache
def q3() -> PureStateQuantumModel:
    """Overlap-synthesized quantum model of the three-state chain (built once)."""
    return build_qmachine(mbw3())


@cache
def q4() -> PureStateQuantumModel:
    """Overlap-synthesized quantum model of the four-state chain (built once)."""
    return build_qmachine(mbw4())


_BUILDERS = {
    "biased_coin": (biased_coin, (_number,)),
    "biased_coin_split": (biased_coin_split, (_number, str)),
    "even_odd": (even_odd, (_number,)),
    "even_odd_split": (even_odd_split, (_number,)),
    "mbw3": (mbw3, ()),
    "mbw4": (mbw4, ()),
    "d3": (d3, ()),
    "d4": (d4, ()),
    "q3": (q3, ()),
    "q4": (q4, ()),
}


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


def get_process(spec: str):
    """Resolve ``name[:param[:param]]`` to a catalog model.

    Examples: ``mbw3``, ``biased_coin:0.6``, ``biased_coin_split:0.6:c``.
    """
    name, *raw_args = spec.split(":")
    if name not in _BUILDERS:
        raise ValueError(f"unknown process {name!r}; known: {', '.join(catalog_names())}")
    builder, arg_types = _BUILDERS[name]
    if len(raw_args) > len(arg_types):
        raise ValueError(f"{name} takes at most {len(arg_types)} parameters")
    args = []
    for raw, typ in zip(raw_args, arg_types):
        try:
            args.append(typ(raw))
        except ValueError as exc:
            raise ValueError(f"bad parameter {raw!r} for {name}") from exc
    return builder(*args)
