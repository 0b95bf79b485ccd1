"""Probability vectors under the majorization preorder.

Comparison uses the sorted-prefix-sum criterion; a constructive chain of
two-index transfers certifies any positive comparison, and the Renyi
entropy family supplies the monotones that order-respecting code cares
about.  Vectors of different lengths are always compared by zero-padding
the shorter one, so (1, 0, 0) and (1, 0) are equivalent.
"""

from __future__ import annotations

import bisect
import math
import operator
import os
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from numbers import Real

import numpy as np

from .errors import (
    IllegalTransferError,
    NegativeEntryError,
    NotComparableError,
    NotNormalizedError,
    PaddingError,
)
from .tolerances import EQUAL_TOL, LANDING_TOL, ZERO_TOL

#: alpha values used by every entropy table in the package
ALPHA_GRID = (0.0, 0.5, 1.0, 2.0, math.inf)


def _number(text: str) -> float:
    """machina's number grammar: an ASCII decimal or ``a/b`` fraction without ``_``, read
    by ``float`` or ``Fraction``, which alone would also take digit separators and non-ASCII
    digits.  Other text, a zero denominator and a fraction too large for a double raise
    ``bad number``; range and finiteness are the caller's."""
    try:
        if text.isascii() and "_" not in text:
            return float(Fraction(text)) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise ValueError(f"bad number {text!r}")


def comparison_tolerance() -> float:
    """Active prefix-sum tolerance; the MACHINA_TOL env var overrides ``EQUAL_TOL``."""
    raw = os.environ.get("MACHINA_TOL")
    if raw is None:
        return EQUAL_TOL
    try:
        tol = _number(raw)
    except ValueError:
        tol = math.nan
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"MACHINA_TOL must be a finite nonnegative number, got {raw!r}")
    return tol


@dataclass(frozen=True, eq=False)
class Distribution:
    """A validated, immutable probability vector."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.probs, dtype=float).reshape(-1)
        if arr.size == 0:
            raise NotNormalizedError("empty probability vector")
        if not np.all(arr >= 0):
            raise NegativeEntryError(f"entry {arr.min():g} is not a nonnegative number")
        if not abs(arr.sum() - 1.0) <= EQUAL_TOL:
            raise NotNormalizedError(f"entries sum to {arr.sum():.12g}, not 1")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    def __len__(self) -> int:
        return self.probs.size

    def __iter__(self):
        return iter(self.probs)

    def __getitem__(self, i):
        return self.probs[i]

    def sorted_desc(self) -> np.ndarray:
        return np.sort(self.probs)[::-1]

    def __repr__(self) -> str:
        body = ", ".join(f"{p:.6g}" for p in self.probs)
        return f"Distribution({body})"


def validate_distribution(raw) -> Distribution:
    """Build a :class:`Distribution`, clipping sub-tolerance negative noise.

    Entries in [-ZERO_TOL, 0) are set to 0; anything more negative raises
    :class:`NegativeEntryError`, and a total off unity by more than
    ``EQUAL_TOL`` raises :class:`NotNormalizedError`.
    """
    if isinstance(raw, Distribution):
        return raw
    arr = np.array(raw, dtype=float).reshape(-1)
    if not np.all(arr >= -ZERO_TOL):
        raise NegativeEntryError(f"entry {arr.min():.6g} below -{ZERO_TOL:g}")
    arr[arr < 0] = 0.0
    return Distribution(arr)


def pad_to(d, n: int) -> Distribution:
    """Append zero-probability events until the vector has length ``n``."""
    d = validate_distribution(d)
    size = _index(n)
    if size < len(d):
        raise PaddingError(f"cannot pad length {len(d)} to {n!r}")
    if size == len(d):
        return d
    return Distribution(np.concatenate([d.probs, np.zeros(size - len(d))]))


class MajorizationVerdict(Enum):
    STRICTLY_MAJORIZES = "StrictlyMajorizes"
    STRICTLY_MAJORIZED_BY = "StrictlyMajorizedBy"
    EQUIVALENT = "Equivalent"
    INCOMPARABLE = "Incomparable"

    def __str__(self) -> str:
        return self.value


def _padded_sorted_pair(p: Distribution, q: Distribution):
    n = max(len(p), len(q))
    return pad_to(p, n).sorted_desc(), pad_to(q, n).sorted_desc()


def compare(p, q) -> MajorizationVerdict:
    """Four-way majorization verdict on two distributions.

    Ties within :func:`comparison_tolerance` count as "greater or equal" for
    both directions, so near-equal vectors report Equivalent rather than
    flapping between the strict verdicts.
    """
    p = validate_distribution(p)
    q = validate_distribution(q)
    tol = comparison_tolerance()
    a, b = _padded_sorted_pair(p, q)
    ca, cb = np.cumsum(a), np.cumsum(b)
    p_dominates = bool(np.all(ca >= cb - tol))
    q_dominates = bool(np.all(cb >= ca - tol))
    if p_dominates and q_dominates:
        return MajorizationVerdict.EQUIVALENT
    if p_dominates:
        return MajorizationVerdict.STRICTLY_MAJORIZES
    if q_dominates:
        return MajorizationVerdict.STRICTLY_MAJORIZED_BY
    return MajorizationVerdict.INCOMPARABLE


@dataclass(frozen=True, eq=False)
class LorenzCurve:
    """Cumulative sorted-descending probability, anchored at (0, 0)."""

    k: np.ndarray
    cumulative: np.ndarray

    def __post_init__(self):
        for name in ("k", "cumulative"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def lorenz_curve(d) -> LorenzCurve:
    d = validate_distribution(d)
    cum = np.concatenate([[0.0], np.cumsum(d.sorted_desc())])
    return LorenzCurve(k=np.arange(len(d) + 1), cumulative=cum)


def _significant(x: float) -> str:
    """12 significant digits, as every CSV writer and ``serialize_model`` print a number.

    ``quantum._pairs`` spells the same format as ``%.12g`` inline: it formats a
    whole row of a quantum model file in one ``%`` call, where a call per
    number would cost most of the write.
    """
    return f"{x:.12g}"


def _lorenz_pair(dist_a, dist_b):
    """Verdict and (k, cumulative_a, cumulative_b) rows, the shorter vector zero-padded."""
    n = max(len(dist_a), len(dist_b))
    dist_a, dist_b = pad_to(dist_a, n), pad_to(dist_b, n)
    curve_a, curve_b = lorenz_curve(dist_a), lorenz_curve(dist_b)
    rows = zip(curve_a.k, curve_a.cumulative, curve_b.cumulative)
    return compare(dist_a, dist_b), [(int(k), ca, cb) for k, ca, cb in rows]


def lorenz_pair_csv(dist_a, dist_b) -> str:
    """Two Lorenz curves as CSV: the verdict line, then ``k,cumulative_a,cumulative_b``."""
    verdict, rows = _lorenz_pair(dist_a, dist_b)
    lines = [f"verdict,{verdict}", "k,cumulative_a,cumulative_b"]
    lines += [f"{k},{_significant(ca)},{_significant(cb)}" for k, ca, cb in rows]
    return "\n".join(lines) + "\n"


def renyi_entropy(d, alpha) -> float:
    """Order-``alpha`` Renyi entropy in bits.

    alpha = 1 is the Shannon limit (0 log 0 taken as 0), alpha = 0 counts the
    support (entries above ``ZERO_TOL``), alpha = inf is -log2 of the largest entry.
    Zero entries never enter the power sum, which keeps the value invariant
    under zero-padding for every alpha; the rest is rescaled to sum to one.
    """
    d = validate_distribution(d)
    alpha = float(alpha)
    if not alpha >= 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    p = d.probs[d.probs > ZERO_TOL]
    p /= p.sum()
    if alpha == 0.0:
        return math.log2(p.size)
    if math.isinf(alpha):
        h = -math.log2(float(p.max()))
    elif alpha == 1.0:
        h = float(-(p * np.log2(p)).sum())
    else:
        total = (p**alpha).sum()
        if total >= sys.float_info.min:
            h = float(math.log2(total) / (1.0 - alpha))
        else:
            # the sum underflows at large alpha; scaled by p_max it is at least 1, and
            # alpha / (1 - alpha) stays finite where alpha * log2(p_max) would overflow
            top = float(p.max())
            scaled = math.log2(((p / top) ** alpha).sum()) / (1.0 - alpha)
            h = alpha / (1.0 - alpha) * math.log2(top) + scaled
    # + 0.0 turns the -0.0 of a one-point support into 0.0 and leaves every other value unchanged
    return h + 0.0


def renyi_negentropy(d, alpha) -> float:
    """log2(n) - H_alpha; grows under zero-padding, unlike the entropy."""
    d = validate_distribution(d)
    return math.log2(len(d)) - renyi_entropy(d, alpha)


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """One memory distribution against another: the verdict and the Renyi table."""

    first: Distribution
    second: Distribution
    verdict: MajorizationVerdict
    entropies: tuple[tuple[float, float, float], ...]  # (alpha, H first, H second)

    @classmethod
    def of(cls, first, second, **extra):
        """The report of ``first`` against ``second`` over ``ALPHA_GRID``; ``extra`` fills
        the fields a subclass adds."""
        first, second = validate_distribution(first), validate_distribution(second)
        rows = tuple((a, renyi_entropy(first, a), renyi_entropy(second, a)) for a in ALPHA_GRID)
        return cls(first, second, compare(first, second), rows, **extra)


@dataclass(frozen=True)
class TransferOp:
    """Move ``amount`` of probability from entry ``donor`` to ``recipient``."""

    donor: int
    recipient: int
    amount: float


def _index(v) -> int:
    """``v`` as an index, or -1 (out of every range) for a bool, a float or an array."""
    try:
        return -1 if isinstance(v, bool) else operator.index(v)
    except TypeError:
        return -1


def _transfer(x: list[float], op: TransferOp) -> float:
    """Check one transfer on the Python floats ``x``, apply it in place, and return eps / gap.

    Legal only while it shrinks the disparity: distinct in-range indices, the
    donor above the recipient, and a real amount with 0 < amount < their gap.
    Constant time: every caller keeps its running vector as a list of Python
    floats, the same IEEE doubles as a float64 array without a numpy scalar per
    access; the amount is taken as a ``float`` too, as a float64 array would
    take it.
    """
    i, j, eps = _index(op.donor), _index(op.recipient), op.amount
    n = len(x)
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise IllegalTransferError(f"bad index pair ({op.donor}, {op.recipient}) for length {n}")
    gap = x[i] - x[j]
    if gap <= 0:
        raise IllegalTransferError(f"donor entry {x[i]:.6g} does not exceed recipient {x[j]:.6g}")
    if not isinstance(eps, Real):
        raise IllegalTransferError(f"amount {eps!r} is not a number")
    eps = float(eps)
    if not (0.0 < eps < gap):
        raise IllegalTransferError(f"amount {eps:.6g} outside (0, {gap:.6g})")
    x[i] -= eps
    x[j] += eps
    return eps / gap


def apply_transfer(d, op: TransferOp) -> Distribution:
    """Apply one transfer; legal only while it shrinks the disparity."""
    out = validate_distribution(d).probs.tolist()
    _transfer(out, op)
    return Distribution(out)


def transfer_chain(p, q) -> list[TransferOp]:
    """Constructive certificate that ``p`` majorizes ``q``.

    Classic greedy T-transform construction on the sorted vectors: repeatedly
    move mass from the last over-full coordinate to the first under-full one
    after it, matching one coordinate per step.  Indices in the returned ops
    refer to positions in the *sorted-descending* padded vectors, so replay
    must start from ``p`` sorted descending.  At most n - 1 ops.

    Cost: one pass classifies every entry as over-full (x - y > ``ZERO_TOL``)
    or under-full (x - y < -``ZERO_TOL``) into two ascending index lists; each
    op then finds its recipient by bisection, O(log n), and re-classifies only
    the two entries it touched, on Python floats.  An op moves at most both
    gaps, so the donor never turns under-full nor the recipient over-full (up
    to one ulp): the lists only shrink, and each choice is the one a full
    rescan of x - y would make.
    """
    p = validate_distribution(p)
    q = validate_distribution(q)
    verdict = compare(p, q)
    if verdict not in (
        MajorizationVerdict.STRICTLY_MAJORIZES,
        MajorizationVerdict.EQUIVALENT,
    ):
        raise NotComparableError(f"verdict is {verdict}, need majorization")
    xs, ys = _padded_sorted_pair(p, q)
    diff = (xs - ys).tolist()
    over = [i for i, d in enumerate(diff) if d > ZERO_TOL]
    under = [i for i, d in enumerate(diff) if d < -ZERO_TOL]
    x, y = xs.tolist(), ys.tolist()
    ops: list[TransferOp] = []
    for _ in range(max(len(x) - 1, 0)):
        if not over:
            break
        j = over[-1]
        at = bisect.bisect_right(under, j)
        if at == len(under):
            break
        k = under[at]
        op = TransferOp(j, k, min(x[j] - y[j], y[k] - x[k]))
        _transfer(x, op)
        ops.append(op)
        if not x[j] - y[j] > ZERO_TOL:
            over.pop()
        if not x[k] - y[k] < -ZERO_TOL:
            del under[at]
    if max(map(abs, map(operator.sub, x, y))) > LANDING_TOL:
        raise NotComparableError("transfer construction failed to land on target")
    return ops


def replay_chain(p, ops) -> Distribution:
    """Apply a transfer chain starting from ``p`` sorted descending.

    A chain from ``transfer_chain(p, q)`` indexes the vectors padded to the
    longer length, so pass ``pad_to(p, max(len(p), len(q)))`` when q is the
    longer; an index past the end of ``p`` raises ``IllegalTransferError``.

    Cost: one sort, then one constant-time checked step per op on Python floats.
    """
    x = validate_distribution(p).sorted_desc().tolist()
    for op in ops:
        _transfer(x, op)
    return Distribution(x)


def chain_to_doubly_stochastic(ops, start, n: int | None = None) -> np.ndarray:
    """Product of the 2x2-block T-transform matrices realizing a chain.

    Each factor is [[1-lam, lam], [lam, 1-lam]] on the (donor, recipient)
    block with lam = eps / (x_i - x_j) evaluated on the running vector, so
    the starting distribution is required; the chain alone does not pin the
    mixing fractions.  The result D is doubly stochastic and maps the sorted
    start onto the sorted target; every factor is orthostochastic.
    """
    start = validate_distribution(start)
    x = pad_to(start, len(start) if n is None else n).sorted_desc().tolist()
    d = np.eye(len(x))
    for op in ops:
        lam = _transfer(x, op)
        # left-multiplying by the factor mixes rows i and j only
        mix = lam * (d[op.donor] - d[op.recipient])
        d[op.donor] -= mix
        d[op.recipient] += mix
    return d
