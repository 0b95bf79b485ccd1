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
Each step solves the normal equations of its residual history, kept from
step to step, with ``np.linalg.solve``, and takes the plain step when
LAPACK finds them exactly singular.
The states are then any vectors realizing G and the Kraus operators the
least-squares solutions of K S = S'_x on the state span; one overlap
product per symbol checks that each Kraus image lands on one state.  The
memory cost of a model is the Renyi entropy of the eigenvalue spectrum of
its stationary density matrix, which always majorizes the stationary state
of the classical read-off, the unifilar HMM of the Kraus images.  A model keeps
that HMM (built on first use, so its stationary state is solved once) and
its spectrum, but not the dim x dim density.
The file grammar is read by ``hmm._read_model_file``, the reader of both kinds.
The writer prints a state line or a whole Kraus body in one ``%`` call, and a line
spaced that way is read in one counted ``np.fromstring`` call, once its skeleton (the
text left when the numerals are deleted) is the writer's.  Any other line is cut into
rows, a Kraus row ending at each ``/`` after a pair's ``)``: each row is tokenized once by
a regex, ``hmm._parse_number`` reads every token and words every message, and a Kraus
body's shape is judged once all its rows are read.
"""

from __future__ import annotations

import logging
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .distributions import ComparisonReport, Distribution, pad_to, validate_distribution
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
        if self.dim < 1:
            raise InvalidModelError("dimension must be positive")
        labels = tuple(self.labels)
        alphabet = tuple(self.alphabet)
        states = np.array(self.states, dtype=complex)
        if states.shape != (self.dim, len(labels)):
            raise InvalidModelError(
                f"state matrix shape {states.shape} != ({self.dim}, {len(labels)})"
            )
        _check_entries(states, "state matrix")
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
            _check_entries(k_mat, f"Kraus operator for {x!r}")
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


def _check_entries(mat: np.ndarray, what: str) -> None:
    """Refuse a non-finite entry or a real or imaginary part above 1 + ``EQUAL_TOL``: no
    entry of a unit vector or of a Kraus operator in a complete set is longer than 1."""
    big = np.max(np.abs(mat.ravel("K").view(float)), initial=0.0)  # a C or F matrix: no copy
    if not np.isfinite(big):
        raise InvalidModelError(f"{what} has a non-finite entry")
    if big > 1.0 + EQUAL_TOL:
        raise InvalidModelError(f"{what} has a real or imaginary part of modulus {big:.3g} > 1")


def _completeness_defect(q: PureStateQuantumModel) -> np.ndarray:
    return sum(k.conj().T @ k for k in q.kraus.values()) - np.eye(q.dim)


def completeness_residual(q: PureStateQuantumModel) -> float:
    """Operator-norm distance of sum(K^dag K) from the identity."""
    return float(np.linalg.norm(_completeness_defect(q), 2))


def _walk_images(q: PureStateQuantumModel) -> tuple[Mapping, str | None]:
    """Check unifilarity; read off the images K|s> with p = <Ks|Ks> above ``ZERO_TOL`` as
    read-only transitions {(label, symbol): (p, successor label)}, symbol by symbol,
    plus the first ambiguity's message or None.

    One ``bras @ images`` per symbol gives every overlap; p stays one ``np.vdot`` per
    column, since a vectorised sum of squares rounds some p differently."""
    trans, ambiguous = {}, None
    bras = q.states.conj().T
    for x in q.alphabet:
        images = q.kraus[x] @ q.states
        p = np.array([np.vdot(images[:, i], images[:, i]).real for i in range(q.n)])
        nrm = np.sqrt(p)
        live = np.flatnonzero(nrm > EQUAL_TOL)
        overlaps = np.abs(bras @ images[:, live]) / nrm[live]  # n x live
        best = overlaps.max(axis=0)
        stray = np.flatnonzero(best < 1.0 - EQUAL_TOL)
        if stray.size:
            raise NotUnifilarError(
                f"K[{x!r}] maps state {q.labels[live[stray[0]]]!r} outside the state set "
                f"(best overlap {best[stray[0]]:.9f})"
            )
        hits = np.count_nonzero(overlaps > 1.0 - EQUAL_TOL, axis=0)
        succ = overlaps.argmax(axis=0)  # the one hit, where there is one
        emits = p[live] > ZERO_TOL
        for i, count, j in zip(live[emits].tolist(), hits[emits].tolist(), succ[emits].tolist()):
            if count == 1:
                trans[(q.labels[i], x)] = (min(float(p[i]), 1.0), q.labels[j])
            elif ambiguous is None:
                ambiguous = f"state {q.labels[i]!r} under K[{x!r}]: {count} matching states"
    return MappingProxyType(trans), ambiguous


# -------------------------------------------------------- overlap recursion

def gram_fixed_point(m: FinitePredictiveModel) -> np.ndarray:
    """Fixed point of the state-overlap recursion, diagonal pinned to one.

    With the diagonal pinned, the recursion maps the n(n-1)/2 overlaps above
    the diagonal affinely onto themselves; Anderson acceleration (type II,
    depth ``ANDERSON_DEPTH``) solves that map from the identity.  A step's
    mixing weights solve the normal equations of the last residual
    differences by ``np.linalg.solve``; the normal matrix is kept across
    steps, and a step renews only its newest row and column.  When LAPACK
    reports the matrix exactly singular, that step is the plain one,
    Phi(x) itself.  It stops once the recursion's own residual, the largest
    entry of Phi(G) - G, is below ``STEP_TOL``, and returns Phi(G)
    symmetrized with a unit diagonal.
    A residual that is not finite, or no convergence within
    ``GRAM_MAX_ITER`` iterations, raises ``NoConvergenceError``.

    Well-defined for any unifilar input; minimality is needed only for the
    result to be the faithful q-machine, and ``is_epsilon_machine(m)`` tells a
    caller whether it holds.
    """
    n = len(m.states)
    rows, cols = np.triu_indices(n, 1)
    size = rows.size
    # slot of each overlap in [upper overlaps..., 1.0]; the diagonal reads the pinned 1.0
    slot = np.full((n, n), size)
    slot[rows, cols] = slot[cols, rows] = np.arange(size)
    mapped = np.maximum(m.succ, 0).T  # a missing transition (-1) reads state 0 at weight 0
    roots = np.sqrt(m.probs).T
    # k x size in C order, so that the sum over symbols adds whole rows, not 3-4 strided entries
    gather = slot[np.take(mapped, rows, axis=1), np.take(mapped, cols, axis=1)]
    weights = np.take(roots, rows, axis=1) * np.take(roots, cols, axis=1)
    padded, terms = np.ones(size + 1), np.empty_like(weights)
    depth = min(ANDERSON_DEPTH, size)
    d_res, d_img = np.empty((depth, size)), np.empty((depth, size))
    normal = np.empty((depth, depth))  # d_res @ d_res.T; a step renews one row and column
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
            normal[newest, :used] = normal[:used, newest] = hist @ d_res[newest]
            # coef minimizes |res - coef @ hist|: the used x used normal equations
            try:
                coef = np.linalg.solve(normal[:used, :used], hist @ res)
            except np.linalg.LinAlgError:  # an exactly singular history: the plain step
                x = img
            else:
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


def strong_advantage_report(q: PureStateQuantumModel) -> ComparisonReport:
    """Compare the memory spectrum (``first``) against the classical stationary state.

    The spectrum majorizes (or ties) the stationary state, so every Renyi
    memory of the quantum model is at most the classical one.  Both sides are
    the ones the model and its classical read-off keep.
    """
    return ComparisonReport.of(q.memory(), classical_equivalent(q).memory())


def quantum_models_equal(a: PureStateQuantumModel, b: PureStateQuantumModel) -> bool:
    """Entrywise equality of labels, states, and Kraus operators within ``EQUAL_TOL``."""
    if a.labels != b.labels or a.alphabet != b.alphabet or a.dim != b.dim:
        return False
    pairs = [(a.states, b.states)] + [(a.kraus[x], b.kraus[x]) for x in a.alphabet]
    return all(float(np.max(np.abs(u - v))) <= EQUAL_TOL for u, v in pairs)


# ---------------------------------------------------------------- file format

_PAIR = re.compile(r"\(([^(),]*),([^(),]*)\)")
_NUMERALS = str.maketrans("", "", "0123456789.eE+-")
_MARKS = str.maketrans("(),/", "    ")


def _read_block(text: str, rows: int, cols: int) -> np.ndarray | None:
    """A state line (one row) or a Kraus body spaced as the writer spaces it, as a rows x
    cols complex array from one C parse; ``None`` for any other text, which the row reader
    then reads or refuses with its messages.

    No slot may be empty, and with its numerals deleted the text must read
    ``(,) (,) / (,) (,)`` (here 2 x 2): once the marks are blanked, each slot is one run of
    numerals between blanks.  ``fromstring`` raises on a run it reads only in part, but it
    stops after ``count`` numbers, which also sizes its buffer once: a ``nan`` put after the
    text must be the one number read past the slots, so a number outside the pairs or junk
    after the last number declines.  So do non-finite entries, which the row reader names."""
    pairs = rows * cols
    # a writer's line has more than 4 characters per pair, so a short text claiming a large
    # dim builds no large skeleton
    if (
        len(text) < 4 * pairs
        or "(," in text
        or ",)" in text
        or text.translate(_NUMERALS) != " / ".join([" ".join(["(,)"] * cols)] * rows)
    ):
        return None
    try:
        values = np.fromstring(text.translate(_MARKS) + " nan", sep=" ", count=2 * pairs + 1)
    except ValueError:
        return None
    if not np.isnan(values[-1]) or not np.isfinite(values[:-1]).all():
        return None
    return values[:-1].view(complex).reshape(rows, cols)


def _read_pairs(text: str, lineno: int) -> np.ndarray:
    """A run of pairs as complex entries, for a line ``_read_block`` declines.

    ``_PAIR.split`` finds the pairs, and the text between them must be blank; each token
    is then read by ``_parse_number``, which reads decimals and fractions and words every
    message."""
    tokens = _PAIR.split(text)  # text, re, im, text, re, im, ..., text
    if "".join(tokens[::3]).strip():
        stray = next(filter(None, map(str.strip, tokens[::3])))
        raise ModelFormatError(f"expected '(re,im)' pairs, got stray text {stray!r}", lineno)
    del tokens[::3]
    # a view keeps a -0 imaginary part, which re + 1j * im would turn into +0
    return np.array([_parse_number(tok, lineno) for tok in tokens]).view(complex)


def _kraus_rows(body: str) -> list[str]:
    """A Kraus body cut at each '/' after a pair's ')'; any other '/' is a fraction's."""
    rows: list[str] = []
    for chunk in body.split("/"):
        if rows and not rows[-1].rstrip().endswith(")"):
            rows[-1] += "/" + chunk
        else:
            rows.append(chunk)
    return rows


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
        fields = rest.split(None, 1)
        if head == "state":
            if len(fields) != 2:
                raise ModelFormatError("expected 'state: LABEL (re,im) ...'", lineno)
            label, body = fields
            if label in labels:
                raise ModelFormatError(f"duplicate state {label!r}", lineno)
            block = _read_block(body, 1, dim)
            entries = _read_pairs(body, lineno) if block is None else block[0]
            if len(entries) != dim:
                raise ModelFormatError(f"state {label!r} has {len(entries)} != {dim} entries", lineno)
            labels.append(label)
            state_cols.append(entries)
        else:
            if len(fields) != 2:
                raise ModelFormatError("expected 'kraus: SYMBOL rows'", lineno)
            sym, body = fields
            if sym not in alphabet:
                raise UnknownSymbolError(f"line {lineno}: unknown symbol {sym!r}")
            if sym in kraus:
                raise ModelFormatError(f"duplicate kraus for {sym!r}", lineno)
            k_mat = _read_block(body, dim, dim)
            if k_mat is None:
                # every row is read before the shape is judged, and the dim x dim array is
                # built only from dim rows of dim entries, so a short text costs what it holds
                rows = [_read_pairs(row, lineno) for row in _kraus_rows(body)]
                if len(rows) != dim or any(len(row) != dim for row in rows):
                    raise ModelFormatError(f"kraus for {sym!r} is not {dim}x{dim}", lineno)
                k_mat = np.array(rows)
            kraus[sym] = k_mat
    missing = [x for x in alphabet if x not in kraus]
    if missing:
        raise ModelFormatError(f"missing kraus operators for {missing}")
    states = np.array(state_cols, dtype=complex).T
    return PureStateQuantumModel(
        dim=dim, labels=tuple(labels), states=states, alphabet=alphabet, kraus=kraus
    )


def _pairs(values: np.ndarray) -> str:
    # a row, or a matrix with its rows joined by " / ", in one % call; per row, a Kraus body's
    # row strings and temporaries raised the benchmark's peak RSS.  %.12g prints what
    # distributions._significant prints.  +0.0 is the one double whose bits are all zero, so
    # when no imaginary part has a bit set, every pair prints its imaginary part as 0
    values = np.atleast_2d(values)
    if not values.imag.view(np.int64).any():
        pair, parts = "(%.12g,0)", values.real.ravel().tolist()
    else:
        pair, parts = "(%.12g,%.12g)", np.ascontiguousarray(values).view(float).ravel().tolist()
    rows, cols = values.shape
    return " / ".join([" ".join([pair] * cols)] * rows) % tuple(parts)


def serialize_quantum_model(q: PureStateQuantumModel) -> str:
    """Emit the quantum model file; row-major, 12 significant digits."""
    lines = [
        "model: quantum",
        f"dim: {q.dim}",
        "alphabet: " + " ".join(q.alphabet),
    ]
    lines += [f"state: {label}  {_pairs(col)}" for label, col in zip(q.labels, q.states.T)]
    lines += [f"kraus: {x}  {_pairs(q.kraus[x])}" for x in q.alphabet]
    lines.append("")  # the final newline, without a copy of the whole text to add it
    return "\n".join(lines)
