"""Pure-state quantum generators of classical processes.

A model holds one unit vector per memory label and one Kraus operator per
symbol; the operators must resolve the identity and map each memory state
onto (a multiple of) another.  For a given unifilar HMM the matching
quantum model is synthesized from the fixed point of the state-overlap
recursion

    G[s, s'] = sum_x sqrt(P(x|s) P(x|s')) G[f(s, x), f(s', x)],

solved by Anderson acceleration over the overlaps above the diagonal until
the recursion's residual max|Phi(G) - G| is below ``STEP_TOL``; a residual
that is not finite, or the iteration cap, raises ``NoConvergenceError``.
The states are then any vectors realizing G and the Kraus operators the
least-squares solutions of K S = S'_x on the state span.  The memory
cost of a model is the Renyi entropy of the eigenvalue spectrum of its
stationary density matrix, which always majorizes the stationary state of
the classical read-off, the unifilar HMM of the Kraus images.  A model keeps
that HMM (built on first use, so its stationary state is solved once) and
its spectrum, but not the dim x dim density.
The file grammar is read by ``hmm._read_model_file``, the reader of both kinds.
Each state line and Kraus row is converted in one ``float`` pass; a record
that pass cannot read is re-read token by token, which words every message.
"""

from __future__ import annotations

import logging
import re
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .distributions import (
    ALPHA_GRID,
    Distribution,
    MajorizationVerdict,
    compare,
    pad_to,
    renyi_entropy,
    validate_distribution,
)
from .errors import (
    AmbiguousSuccessorError,
    CompletenessViolationError,
    DimensionMismatchError,
    InvalidModelError,
    ModelFormatError,
    NoConvergenceError,
    NotHermitianError,
    NotPSDError,
    NotUnifilarError,
    UnknownSymbolError,
)
from .hmm import (
    FinitePredictiveModel,
    LinearRep,
    _name_list,
    _parse_number,
    _read_model_file,
)
from .minimize import is_epsilon_machine
from .tolerances import EIG_TOL, EQUAL_TOL, STEP_TOL, ZERO_TOL

log = logging.getLogger(__name__)

GRAM_MAX_ITER = 100_000
ANDERSON_DEPTH = 8  # past residuals the overlap solve mixes


@dataclass(frozen=True, eq=False)
class PureStateQuantumModel:
    """Unifilar pure-state quantum model.

    ``states`` is a dim x n complex matrix whose columns are the memory
    vectors, one per label; ``kraus``, stored read-only, maps each symbol to
    a dim x dim operator.  Invariants (unit norms, completeness, unifilarity)
    are enforced at construction.
    """

    dim: int
    labels: tuple[str, ...]
    states: np.ndarray
    alphabet: tuple[str, ...]
    kraus: Mapping[str, np.ndarray]
    _read_off: tuple = field(init=False, repr=False)  # found by _walk_images

    def __post_init__(self):
        labels = tuple(self.labels)
        alphabet = tuple(self.alphabet)
        states = np.array(self.states, dtype=complex)
        if states.shape != (self.dim, len(labels)):
            raise InvalidModelError(
                f"state matrix shape {states.shape} != ({self.dim}, {len(labels)})"
            )
        if not np.all(np.isfinite(states)):
            raise InvalidModelError("state matrix has a non-finite entry")
        if len(labels) < self.dim:
            raise InvalidModelError("need at least as many labels as dimensions")
        if len(set(labels)) != len(labels) or len(set(alphabet)) != len(alphabet):
            raise InvalidModelError("labels and alphabet must be unique")
        for x in self.kraus:
            if x not in alphabet:
                raise UnknownSymbolError(f"Kraus operator for undeclared symbol {x!r}")
        kraus = {}
        for x in alphabet:
            if x not in self.kraus:
                raise InvalidModelError(f"missing Kraus operator for symbol {x!r}")
            k_mat = np.array(self.kraus[x], dtype=complex)
            if k_mat.shape != (self.dim, self.dim):
                raise InvalidModelError(f"Kraus operator for {x!r} has shape {k_mat.shape}")
            if not np.all(np.isfinite(k_mat)):
                raise InvalidModelError(f"Kraus operator for {x!r} has a non-finite entry")
            k_mat.setflags(write=False)
            kraus[x] = k_mat
        states.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "kraus", MappingProxyType(kraus))
        norm_defect = np.max(np.abs(np.linalg.norm(states, axis=0) - 1.0))
        if not norm_defect <= EQUAL_TOL:
            raise InvalidModelError(f"state norms deviate from 1 by {norm_defect:.3g}")
        # the Frobenius norm bounds the 2-norm, so only a residual it cannot clear needs the SVD
        defect = _completeness_defect(self)
        if not np.linalg.norm(defect) <= EQUAL_TOL:
            resid = float(np.linalg.norm(defect, 2))
            if not resid <= EQUAL_TOL:
                raise CompletenessViolationError(f"completeness residual {resid:.3g}")
        object.__setattr__(self, "_read_off", _walk_images(self))

    def __reduce__(self):
        # a read-only table does not pickle; rebuild (and revalidate) from a copy
        args = (self.dim, self.labels, self.states, self.alphabet, dict(self.kraus))
        return PureStateQuantumModel, args

    @property
    def n(self) -> int:
        return len(self.labels)

    def linear_rep(self) -> LinearRep:
        """Word-probability view: stationary rho, one Kraus map per symbol, the trace."""
        ops = {x: _KrausMap(k) for x, k in self.kraus.items()}
        return LinearRep(stationary_density(self), ops, lambda r: np.trace(r).real)

    def memory(self) -> Distribution:
        """What the model pays for memory: the spectrum of its stationary density."""
        return self._memory

    @cached_property
    def _memory(self) -> Distribution:
        # one spectrum per instance, as a classical model keeps its stationary state
        return memory_spectrum(self)

    @cached_property
    def _classical(self) -> FinitePredictiveModel:
        # a cached_property that raises stores nothing: an ambiguity raises on every call
        trans, ambiguous = self._read_off
        if ambiguous is not None:
            raise AmbiguousSuccessorError(ambiguous)
        return FinitePredictiveModel(self.labels, self.alphabet, trans)


class _KrausMap:
    """rho -> K rho K^dag as ``rho @ op``: what kron(K, conj(K)) does to vec(rho),
    in O(dim^3) time and O(dim^2) memory instead of O(dim^4) for both."""

    __array_ufunc__ = None  # so ``ndarray @ op`` defers to __rmatmul__

    def __init__(self, k: np.ndarray):
        self.k, self.k_dag = k, k.conj().T

    def __rmatmul__(self, rho: np.ndarray) -> np.ndarray:
        return self.k @ rho @ self.k_dag


def _completeness_defect(q: PureStateQuantumModel) -> np.ndarray:
    return sum(k.conj().T @ k for k in q.kraus.values()) - np.eye(q.dim)


def completeness_residual(q: PureStateQuantumModel) -> float:
    """Operator-norm distance of sum(K^dag K) from the identity."""
    return float(np.linalg.norm(_completeness_defect(q), 2))


def _walk_images(q: PureStateQuantumModel) -> tuple[Mapping, str | None]:
    """Check unifilarity; read off the images K|s> with p = <Ks|Ks> above ``ZERO_TOL`` as
    read-only transitions {(label, symbol): (p, successor label)}, symbol by symbol,
    plus the first ambiguity's message or None."""
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
    return MappingProxyType(trans), ambiguous


# -------------------------------------------------------- overlap recursion

def gram_fixed_point(m: FinitePredictiveModel) -> np.ndarray:
    """Fixed point of the state-overlap recursion, diagonal pinned to one.

    With the diagonal pinned, the recursion maps the n(n-1)/2 overlaps above
    the diagonal affinely onto themselves; Anderson acceleration (type II,
    depth ``ANDERSON_DEPTH``) solves that map from the identity.  It stops
    once the recursion's own residual, the largest entry of Phi(G) - G, is
    below ``STEP_TOL``, and returns Phi(G) symmetrized with a unit diagonal.
    A residual that is not finite, or no convergence within
    ``GRAM_MAX_ITER`` iterations, raises ``NoConvergenceError``.

    Well-defined for any unifilar input; minimality is only needed for the
    result to define a faithful quantum model, so a non-minimal input just
    earns a warning.  Its refinement stays because it is the only signal:
    ``biased_coin_split(0.6, "c")`` is not minimal, yet its fixed point is the
    identity and its model reads off unambiguously.
    """
    if not is_epsilon_machine(m):
        warnings.warn(
            "input model has probabilistically equivalent states; "
            "overlap recursion still runs",
            stacklevel=2,
        )
    n = len(m.states)
    rows, cols = np.triu_indices(n, 1)
    size = rows.size
    # slot of each overlap in [upper overlaps..., 1.0]; the diagonal reads the pinned 1.0
    slot = np.full((n, n), size)
    slot[rows, cols] = slot[cols, rows] = np.arange(size)
    mapped = np.maximum(m.succ, 0)  # a missing transition (-1) reads state 0 at weight 0
    gather = slot[mapped[rows].T, mapped[cols].T]  # k x size
    roots = np.sqrt(m.probs)
    weights = roots[rows].T * roots[cols].T
    padded, terms = np.ones(size + 1), np.empty_like(weights)
    depth = min(ANDERSON_DEPTH, size)
    d_res, d_img = np.empty((depth, size)), np.empty((depth, size))
    x = np.zeros(size)
    for iteration in range(1, GRAM_MAX_ITER + 1):
        padded[:size] = x
        np.take(padded, gather, out=terms)
        np.multiply(terms, weights, out=terms)
        img = terms.sum(axis=0)
        res = img - x
        r = np.max(np.abs(res), initial=0.0)
        if not np.isfinite(r):
            raise NoConvergenceError(
                f"overlap recursion residual is not finite ({r}) at iteration {iteration}"
            )
        if r < STEP_TOL:
            log.debug("overlap recursion converged in %d iterations", iteration)
            gram = np.eye(n)
            gram[rows, cols] = gram[cols, rows] = img
            return gram
        if iteration == 1:
            x = img
        else:
            newest = (iteration - 2) % depth  # overwrites the oldest difference
            np.subtract(res, res_prev, out=d_res[newest])
            np.subtract(img, img_prev, out=d_img[newest])
            used = min(iteration - 1, depth)
            hist = d_res[:used]
            # coef minimizes |res - coef @ hist|, solved on the used x used normal equations
            coef = np.linalg.lstsq(hist @ hist.T, hist @ res, rcond=None)[0]
            x = img - coef @ d_img[:used]
        res_prev, img_prev = res, img
    raise NoConvergenceError(f"overlap recursion not converged after {GRAM_MAX_ITER} iterations")


def embed_states(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectors with the prescribed pairwise overlaps, and their pseudoinverse.

    Eigendecomposes the Hermitian overlap matrix and keeps the eigenvalues
    above ``EIG_TOL`` in descending order; returns S = sqrt(W) U^dag
    (dim x n), whose columns reproduce the overlaps, and U W^{-1/2} (n x dim).
    """
    gram = np.asarray(gram)
    if not np.max(np.abs(gram - gram.conj().T)) <= EQUAL_TOL:
        raise NotHermitianError("overlap matrix is not Hermitian")
    w, u = np.linalg.eigh(gram)
    if not w.min() >= -EIG_TOL:
        raise NotPSDError(f"overlap matrix has eigenvalue {w.min():.3g}")
    order = np.argsort(w)[::-1]
    w, u = w[order], u[:, order]
    keep = w > EIG_TOL
    root, vecs = np.sqrt(w[keep]), u[:, keep]
    return np.diag(root) @ vecs.conj().T, vecs @ np.diag(1.0 / root)


def build_qmachine(m: FinitePredictiveModel) -> PureStateQuantumModel:
    """Quantum model of a minimal machine via the overlap fixed point.

    States come from embedding the fixed-point overlaps; each Kraus operator
    is the least-squares solution of K S = S'_x, with the pseudoinverse taken
    through the overlap eigendecomposition (rank tolerance ``EIG_TOL``).
    """
    states, pinv = embed_states(gram_fixed_point(m))
    kraus = {}
    for j, x in enumerate(m.alphabet):
        live = np.flatnonzero(m.succ[:, j] >= 0)
        target = np.zeros_like(states)
        target[:, live] = np.sqrt(m.probs[live, j]) * states[:, m.succ[live, j]]
        kraus[x] = target @ pinv
    return PureStateQuantumModel(
        dim=states.shape[0], labels=m.states, states=states, alphabet=m.alphabet, kraus=kraus
    )


# -------------------------------------------------------- stationary objects

def stationary_density(q: PureStateQuantumModel, pi=None) -> np.ndarray:
    """Stationary density matrix: the pi-weighted mix of the state projectors.

    ``pi`` defaults to the stationary state of the classical read-off.
    """
    pi = classical_equivalent(q).memory() if pi is None else validate_distribution(pi)
    if len(pi) != q.n:
        raise DimensionMismatchError(f"stationary length {len(pi)} != {q.n} labels")
    rho = (q.states * pi.probs) @ q.states.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    if not abs(np.trace(rho).real - 1.0) <= EQUAL_TOL:
        raise InvalidModelError(f"density trace {np.trace(rho).real:.12g} != 1")
    return rho


def spectrum(density: np.ndarray, pad_to_n: int) -> Distribution:
    """Eigenvalues of a density matrix, descending, zero-padded to ``pad_to_n``."""
    density = np.asarray(density)
    if not np.max(np.abs(density - density.conj().T)) <= EQUAL_TOL:
        raise NotHermitianError("density matrix is not Hermitian")
    vals = np.linalg.eigvalsh(density)[::-1].copy()
    vals[(vals < 0) & (vals > -EIG_TOL)] = 0.0
    return pad_to(validate_distribution(vals), pad_to_n)


def classical_equivalent(q: PureStateQuantumModel) -> FinitePredictiveModel:
    """Unifilar HMM read off a quantum model, built once and kept by the model.

    Emission probabilities are the quadratic forms <s|K^dag K|s>; the
    successor is the unique label whose state matches the normalized image
    up to a global phase; more than one match raises ``AmbiguousSuccessorError``.
    """
    return q._classical


def memory_spectrum(q: PureStateQuantumModel) -> Distribution:
    """Spectrum of the stationary density, padded to the number of labels."""
    return spectrum(stationary_density(q), q.n)


# hmm.word_distribution takes this model kind too; this name stays because
# benchmarks/tests/test_bench.py:200 counts its calls
def quantum_word_distribution(q: PureStateQuantumModel, length: int) -> dict:
    """All positive-probability words of exactly ``length`` symbols."""
    return q.linear_rep().words(length)


@dataclass(frozen=True, eq=False)
class AdvantageReport:
    """Stationary spectrum versus the classical stationary state."""

    spectrum: Distribution
    stationary: Distribution
    verdict: MajorizationVerdict
    entropies: tuple[tuple[float, float, float], ...]  # (alpha, S quantum, H classical)


def strong_advantage_report(q: PureStateQuantumModel, pi=None) -> AdvantageReport:
    """Compare the memory spectrum against the classical stationary state.

    The spectrum majorizes (or ties) the stationary state, so every Renyi
    memory of the quantum model is at most the classical one.  ``pi``
    defaults to the stationary state of the classical read-off; pass the
    source model's stationary state instead when the read-off is ambiguous
    (duplicate memory vectors after synthesizing a non-minimal input).
    """
    pi = classical_equivalent(q).memory() if pi is None else validate_distribution(pi)
    lam = spectrum(stationary_density(q, pi), q.n)
    verdict = compare(lam, pi)
    rows = tuple((a, renyi_entropy(lam, a), renyi_entropy(pi, a)) for a in ALPHA_GRID)
    return AdvantageReport(spectrum=lam, stationary=pi, verdict=verdict, entropies=rows)


def quantum_models_equal(a: PureStateQuantumModel, b: PureStateQuantumModel) -> bool:
    """Entrywise equality of labels, states, and Kraus operators within ``EQUAL_TOL``."""
    if a.labels != b.labels or a.alphabet != b.alphabet or a.dim != b.dim:
        return False
    pairs = [(a.states, b.states)] + [(a.kraus[x], b.kraus[x]) for x in a.alphabet]
    return all(float(np.max(np.abs(u - v))) <= EQUAL_TOL for u, v in pairs)


# ---------------------------------------------------------------- file format

_PAIR = re.compile(r"\(([^(),]*),([^(),]*)\)")
_KRAUS_ROW = re.compile(r"(?<=\))\s*/")  # a '/' inside an entry is a fraction


def _parse_pairs(text: str, lineno: int) -> np.ndarray:
    """Entries of a run of pairs, token by token: the one definition of the
    number grammar and of every message; the fallback of ``_fast_pairs``."""
    pieces = _PAIR.split(text)  # text, re, im, text, re, im, ..., text
    if stray := [s.strip() for s in pieces[::3] if s.strip()]:
        raise ModelFormatError(f"expected '(re,im)' pairs, got stray text {stray[0]!r}", lineno)
    del pieces[::3]
    # a view keeps a -0 imaginary part, which re + 1j * im would turn into +0
    return np.array([_parse_number(tok, lineno) for tok in pieces]).view(complex)


def _fast_pairs(text: str) -> np.ndarray | None:
    """Entries of a run of pairs in one ``map(float, ...)`` pass, or None if
    ``_parse_pairs`` must read it.  Past the guards (ASCII, no ``_``, no
    fraction, no stray text) ``_parse_number`` is ``float`` plus a finiteness
    check, so the values match."""
    if not text.isascii() or "_" in text or "/" in text:
        return None
    pieces = _PAIR.split(text)
    if "".join(pieces[::3]).strip():
        return None
    del pieces[::3]
    try:
        values = np.array(list(map(float, pieces)))
    except ValueError:
        return None
    return values.view(complex) if np.isfinite(values).all() else None


def _kraus_matrix(body: str, dim: int, sym: str, lineno: int) -> np.ndarray:
    """A Kraus body, row by row; a body the fast path cannot read in full is
    re-read by the per-token path, so its message is the per-token one."""
    chunks = body.split("/")
    if len(chunks) == dim:  # cut at every '/': right unless an entry is a fraction
        mat = np.empty((dim, dim), dtype=complex)
        for i, chunk in enumerate(chunks):
            row = _fast_pairs(chunk)
            if row is None or len(row) != dim:
                break
            mat[i] = row
        else:
            return mat
    rows = [_parse_pairs(chunk, lineno) for chunk in _KRAUS_ROW.split(body)]
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise ModelFormatError(f"kraus for {sym!r} is not {dim}x{dim}", lineno)
    return np.array(rows, dtype=complex)


def parse_quantum_model(text: str) -> PureStateQuantumModel:
    """Parse the line-oriented quantum model format."""
    records = _read_model_file(text, "quantum", ("dim", "alphabet"), ("state", "kraus"))
    header = next(records)
    lineno, rest = header["dim"]
    if not (rest.isascii() and rest.isdigit()):
        raise ModelFormatError(f"bad dimension {rest!r}", lineno)
    dim = int(rest)
    if dim < 1:
        raise ModelFormatError("dimension must be positive", lineno)
    alphabet = _name_list(header["alphabet"], "alphabet", "symbols")
    labels: list[str] = []
    state_cols: list[np.ndarray] = []
    kraus: dict[str, np.ndarray] = {}
    for lineno, head, rest in records:
        if head == "state":
            fields = rest.split(None, 1)
            if len(fields) != 2:
                raise ModelFormatError("expected 'state: LABEL (re,im) ...'", lineno)
            label, body = fields
            if label in labels:
                raise ModelFormatError(f"duplicate state {label!r}", lineno)
            entries = _fast_pairs(body)
            if entries is None:
                entries = _parse_pairs(body, lineno)
            if len(entries) != dim:
                raise ModelFormatError(f"state {label!r} has {len(entries)} != {dim} entries", lineno)
            labels.append(label)
            state_cols.append(entries)
        else:
            fields = rest.split(None, 1)
            if len(fields) != 2:
                raise ModelFormatError("expected 'kraus: SYMBOL rows'", lineno)
            sym, body = fields
            if sym not in alphabet:
                raise UnknownSymbolError(f"line {lineno}: unknown symbol {sym!r}")
            if sym in kraus:
                raise ModelFormatError(f"duplicate kraus for {sym!r}", lineno)
            kraus[sym] = _kraus_matrix(body, dim, sym, lineno)
    missing = [x for x in alphabet if x not in kraus]
    if missing:
        raise ModelFormatError(f"missing kraus operators for {missing}")
    states = np.array(state_cols, dtype=complex).T
    return PureStateQuantumModel(
        dim=dim, labels=tuple(labels), states=states, alphabet=alphabet, kraus=kraus
    )


def _pairs(values: np.ndarray) -> str:
    # one % call per row; %.12g prints what distributions._significant prints
    parts = np.ascontiguousarray(values).view(float).tolist()
    return " ".join(["(%.12g,%.12g)"] * len(values)) % tuple(parts)


def serialize_quantum_model(q: PureStateQuantumModel) -> str:
    """Emit the quantum model file; row-major, 12 significant digits."""
    lines = [
        "model: quantum",
        f"dim: {q.dim}",
        "alphabet: " + " ".join(q.alphabet),
    ]
    lines += [f"state: {label}  {_pairs(col)}" for label, col in zip(q.labels, q.states.T)]
    lines += [f"kraus: {x}  " + " / ".join(map(_pairs, q.kraus[x])) for x in q.alphabet]
    return "\n".join(lines) + "\n"
