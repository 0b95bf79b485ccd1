"""Unifilar hidden Markov models: validation, file format, stationary state,
word probabilities, and state splitting.

A model is a set of states, a symbol alphabet, and one probability-labeled
transition per (state, symbol) pair.  Unifilarity is baked into the data
layout: the transition table maps (state, symbol) to a single successor.
The summed transition matrix must be row-stochastic and its positive part
strongly connected.

The name-keyed dict ``trans`` is the validated constructor input, and it
stays as the name-keyed view behind ``prob``, ``successor`` and pickling.
Construction turns it into the one table that every algorithm reads: the
read-only n x k arrays ``probs`` (emission probability of symbol j in state
i) and ``succ`` (the successor's index, -1 where there is no transition).
A transition at or below ``ZERO_TOL`` is no edge: the constructor drops it
from ``trans`` and the table, so ``succ >= 0`` exactly where ``probs > 0``.

Word probabilities go through a linear representation (start, ops, final):
the probability of x1..xk is final(start @ ops[x1] @ ... @ ops[xk]).  An
HMM's representation is its stationary row vector (or a one-hot start
state), its symbol matrices, and the sum of all entries.  A pure-state
quantum model's is its density matrix rho, the Kraus maps rho -> K rho K^dag
(the superoperators kron(K, conj(K)) acting on vec(rho)), and the trace (see
``PureStateQuantumModel.linear_rep``), so one :class:`LinearRep` computes
words for both model kinds.  ``memory()`` is what a model pays for memory (an
HMM's stationary state, a quantum model's stationary spectrum);
``word_probability``, ``word_distribution`` and ``renyi_memory`` take either kind.

The stationary state is solved by blocked GTH state elimination on the summed
matrix with its rows scaled to sum to 1: no step subtracts, so each entry is
accurate to its last digits, and no ``np.linalg`` routine is called.  A
residual max|pi T - pi| above ``EIG_TOL`` against that scaled chain, or a
negative entry, raises ``NoConvergenceError``.  A classical model solves once
and keeps the result for ``memory()`` and ``linear_rep()``; a quantum model
keeps its classical read-off, so its stationary state is solved once too.

One reader, ``_read_model_file``, owns the model-file grammar of both kinds;
``parse_model`` here and ``quantum.parse_quantum_model`` read its output.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .distributions import (
    Distribution, _index, _plain, _significant, renyi_entropy, validate_distribution,
)
from .errors import (
    DuplicateTransitionError,
    ModelFormatError,
    NoConvergenceError,
    NotIrreducibleError,
    NotStochasticError,
    NotUnifilarError,
    UnknownStateError,
    UnknownSymbolError,
    UnreachableCopyError,
)
from .tolerances import EIG_TOL, EQUAL_TOL, ZERO_TOL


@dataclass(frozen=True, eq=False)
class FinitePredictiveModel:
    """Irreducible unifilar HMM over a finite alphabet.

    ``trans`` maps (state, symbol) to (probability, successor state); it is
    stored read-only.  Instances are validated on construction and immutable.
    """

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    trans: Mapping[tuple[str, str], tuple[float, str]]
    #: probs[i, j] = P(alphabet[j] | states[i]); 0 where there is no transition
    probs: np.ndarray = field(init=False, repr=False)
    #: succ[i, j] = index of the successor of states[i] on alphabet[j], or -1
    succ: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        states = tuple(self.states)
        alphabet = tuple(self.alphabet)
        if not states or len(set(states)) != len(states):
            raise ModelFormatError("states must be nonempty and unique")
        if not alphabet or len(set(alphabet)) != len(alphabet):
            raise ModelFormatError("alphabet must be nonempty and unique")
        index = {s: i for i, s in enumerate(states)}
        column = {x: j for j, x in enumerate(alphabet)}
        cleaned: dict[tuple[str, str], tuple[float, str]] = {}
        probs = np.zeros((len(states), len(alphabet)))
        succ = np.full((len(states), len(alphabet)), -1)
        for (s, x), (p, nxt) in self.trans.items():
            if s not in index:
                raise UnknownStateError(f"transition from undeclared state {s!r}")
            if nxt not in index:
                raise UnknownStateError(f"transition into undeclared state {nxt!r}")
            if x not in column:
                raise UnknownSymbolError(f"transition on undeclared symbol {x!r}")
            p = float(p)
            if not (-ZERO_TOL <= p <= 1.0 + EQUAL_TOL):
                raise NotStochasticError(f"probability {p:.6g} outside [0, 1]")
            if p <= ZERO_TOL:
                continue  # not an edge of the machine: neither in trans nor in the table
            cleaned[(s, x)] = (p, nxt)
            i, j = index[s], column[x]
            probs[i, j], succ[i, j] = p, index[nxt]
        probs.setflags(write=False)
        succ.setflags(write=False)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "trans", MappingProxyType(cleaned))
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "succ", succ)
        for s, row in zip(states, probs.sum(axis=1).tolist()):
            if not abs(row - 1.0) <= EQUAL_TOL:
                raise NotStochasticError(f"state {s!r} emits total probability {row:.12g}")
        self._check_irreducible()

    def __reduce__(self):
        # a read-only table does not pickle; rebuild (and revalidate) from a copy
        return FinitePredictiveModel, (self.states, self.alphabet, dict(self.trans))

    def _check_irreducible(self):
        # every state reachable from the first one, forward and then backward
        live = self.succ >= 0
        heads, tails = np.nonzero(live)[0].tolist(), self.succ[live].tolist()
        for src, dst in ((heads, tails), (tails, heads)):
            graph: list[list[int]] = [[] for _ in self.states]
            for i, j in zip(src, dst):
                graph[i].append(j)
            seen, stack = {0}, [0]
            while stack:
                for j in graph[stack.pop()]:
                    if j not in seen:
                        seen.add(j)
                        stack.append(j)
            if len(seen) != len(self.states):
                missing = min(s for i, s in enumerate(self.states) if i not in seen)
                raise NotIrreducibleError(
                    f"positive-transition graph not strongly connected (e.g. {missing!r})"
                )

    # -- convenience views -------------------------------------------------

    def prob(self, state: str, symbol: str) -> float:
        entry = self.trans.get((state, symbol))
        return 0.0 if entry is None else entry[0]

    def successor(self, state: str, symbol: str) -> str | None:
        entry = self.trans.get((state, symbol))
        return None if entry is None else entry[1]

    def symbol_matrix(self, symbol: str) -> np.ndarray:
        """Transition matrix for one symbol: T[i, j] = P(symbol | i) if j follows."""
        if symbol not in self.alphabet:
            raise UnknownSymbolError(f"symbol {symbol!r} not in alphabet")
        j = self.alphabet.index(symbol)
        rows = np.flatnonzero(self.succ[:, j] >= 0)
        mat = np.zeros((len(self.states), len(self.states)))
        mat[rows, self.succ[rows, j]] = self.probs[rows, j]
        return mat

    def linear_rep(self, start: str | None = None) -> LinearRep:
        """Word-probability view: stationary mix (or one state), symbol matrices, sum."""
        if start is None:
            vec = self.memory().probs
        elif start in self.states:
            vec = np.zeros(len(self.states))
            vec[self.states.index(start)] = 1.0
        else:
            raise UnknownStateError(f"unknown start state {start!r}")
        ops = {x: self.symbol_matrix(x) for x in self.alphabet}
        return LinearRep(vec, ops, np.ndarray.sum)

    def memory(self) -> Distribution:
        """What the model pays for memory: its stationary state distribution."""
        return self._stationary

    @cached_property
    def _stationary(self) -> Distribution:
        # one solve per instance: the model and the Distribution are both immutable
        return stationary(self)

    def total_matrix(self) -> np.ndarray:
        rows, cols = np.nonzero(self.succ >= 0)
        mat = np.zeros((len(self.states), len(self.states)))
        np.add.at(mat, (rows, self.succ[rows, cols]), self.probs[rows, cols])
        return mat


def models_equal(a: FinitePredictiveModel, b: FinitePredictiveModel) -> bool:
    """Structural equality: same names, same topology, probabilities within ``EQUAL_TOL``."""
    if a.states != b.states or a.alphabet != b.alphabet:
        return False
    return (
        np.array_equal(a.succ, b.succ)
        and float(np.max(np.abs(a.probs - b.probs))) <= EQUAL_TOL
    )


def stationary(m: FinitePredictiveModel) -> Distribution:
    """Left fixed vector of the summed transition matrix, rows scaled to sum to 1.

    The constructor lets a row sum miss 1 by ``EQUAL_TOL``; the chain solved,
    and the one the residual is measured against, has every row scaled to 1.
    Solved by blocked GTH state elimination (Grassmann, Taksar & Heyman,
    Oper. Res. 33(5), 1985), see ``_gth``: every step adds or multiplies
    nonnegative numbers, so each entry is accurate to a few units in its last
    place even on nearly decoupled chains (O'Cinneide, Numer. Math. 65, 1993).
    A solution whose residual exceeds ``EIG_TOL``, or with a negative (or
    NaN) entry, raises ``NoConvergenceError``.
    """
    t_mat = m.total_matrix()
    pi = _gth(t_mat)
    residual = _stationary_residual(pi, t_mat)
    if not (residual <= EIG_TOL and pi.min() >= 0.0):
        msg = f"stationary solve missed: residual {residual:.3g}, smallest entry {pi.min():.3g}"
        raise NoConvergenceError(msg)
    return validate_distribution(pi)


def _stationary_residual(pi: np.ndarray, t_mat: np.ndarray) -> float:
    """max |pi T^ - pi|, where T^ is ``t_mat`` with each row scaled to sum to 1."""
    return float(np.max(np.abs((pi / t_mat.sum(axis=1)) @ t_mat - pi)))


#: states eliminated per block in ``_gth``: each pivot costs a few numpy calls on
#: arrays of this size, and the rest of the work is matrix products
_GTH_BLOCK = 32


def _gth(t_mat: np.ndarray) -> np.ndarray:
    """Stationary row vector of the irreducible ``t_mat`` with its rows scaled to
    sum to 1, by blocked GTH elimination; sums to 1.

    States are eliminated from the last block to the first.  With C the states
    before a block K, the chain on C is the stochastic complement
    P_CC + P_CK (I - P_KK)^-1 P_KC.  GTH inside K factors I - P_KK as
    (I - N_U) D (I - N_L) with strictly triangular N_U, N_L >= 0, where each
    pivot in D is the row's mass to the uneliminated states: its off-diagonal
    mass within K plus ``aug[:, 0]``, the mass to C, never 1 - P_kk.  Both
    inverses are nonnegative Neumann products, so the panels
    L = P_CK (I - N_L)^-1 D^-1 and W = (I - N_U)^-1 and the update
    P_CC += L (W P_KC) subtract nothing.  Back-substitution runs from the
    first block, whose leading state carries the unnormalized mass 1:
    pi_K = (pi_C L) W.
    """
    p = t_mat / t_mat.sum(axis=1, keepdims=True)
    n = len(p)
    starts = range(0, n, _GTH_BLOCK)
    for c in reversed(starts):
        e = min(c + _GTH_BLOCK, n)
        aug = np.empty((e - c, e - c + 1))  # column 0: mass to C; then P_KK
        aug[:, 0] = p[c:e, :c].sum(axis=1)
        aug[:, 1:] = p[c:e, c:e]
        pivots = np.ones(e - c)
        for k in range(e - c - 1, 0 if c == 0 else -1, -1):  # state 0 is never eliminated
            pivots[k] = aug[k, : k + 1].sum()
            col = aug[:k, k + 1]
            col /= pivots[k]
            aug[:k, : k + 1] += col[:, None] * aug[k, : k + 1]
        block = aug[:, 1:]
        w = _neumann(np.triu(block, 1))
        if c:
            panel = p[:c, c:e] @ _neumann(np.tril(block, -1) / pivots[:, None]) / pivots
            p[:c, :c] += panel @ (w @ p[c:e, :c])
            p[:c, c:e] = panel
        p[c:e, c:e] = w
    pi = np.empty(n)
    pi[:_GTH_BLOCK] = p[0, :_GTH_BLOCK]
    for c in starts[1:]:
        e = min(c + _GTH_BLOCK, n)
        pi[c:e] = (pi[:c] @ p[:c, c:e]) @ p[c:e, c:e]
    return pi / pi.sum()


def _neumann(nil: np.ndarray) -> np.ndarray:
    """(I - N)^-1 = (I + N)(I + N^2)(I + N^4)... for a nilpotent b x b ``nil`` >= 0."""
    inv, power = np.eye(len(nil)) + nil, nil
    for _ in range((len(nil) - 1).bit_length() - 1):  # until power^2 reaches N^b = 0
        power = power @ power
        inv += inv @ power
    return inv


@dataclass(frozen=True, eq=False)
class LinearRep:
    """A start state, one operator per symbol, and a final functional.

    The start is a row vector (or a density matrix) that each operator acts
    on from the right by ``@``; ``final`` maps a propagated state to the
    probability it carries.  The probability of a word is
    ``final(start @ ops[x1] @ ... @ ops[xk])``.
    """

    start: np.ndarray
    ops: dict
    final: Callable[[np.ndarray], float]

    def probability(self, word) -> float:
        vec = self.start
        for x in word:
            if x not in self.ops:
                raise UnknownSymbolError(f"symbol {x!r} not in alphabet {tuple(self.ops)}")
            vec = vec @ self.ops[x]
        return float(self.final(vec))

    def words(self, length: int) -> dict:
        """All positive-probability words of exactly ``length`` symbols, {word tuple: probability}.

        Depth-first: each shared prefix is propagated once, and only one
        vector per open branch is held, not a whole level of the word tree.
        """
        length = operator.index(length)  # a length like 2.5 would never be reached
        if length < 0:
            raise ValueError(f"word length must be nonnegative, got {length}")
        final = self.final
        out: dict[tuple, float] = {}
        stack = [((), self.start)]
        while stack:
            prefix, vec = stack.pop()
            if len(prefix) == length:
                out[prefix] = float(final(vec))
                continue
            for x, op in self.ops.items():
                nxt = vec @ op
                if final(nxt) > 0.0:
                    stack.append((prefix + (x,), nxt))
        return out


def word_probability(model, word) -> float:
    """Probability of emitting ``word`` from the stationary state, for either model kind."""
    return model.linear_rep().probability(word)


def word_distribution(model, length: int) -> dict:
    """All positive-probability words of exactly ``length`` symbols, {word tuple: probability}."""
    return model.linear_rep().words(length)


def renyi_memory(model, alpha) -> float:
    """Renyi entropy of ``model.memory()`` in bits, for either model kind."""
    return renyi_entropy(model.memory(), alpha)


def split_state(
    m: FinitePredictiveModel,
    target: str,
    k: int,
    router: dict[tuple[str, str], int] | None = None,
    names: tuple[str, ...] | None = None,
) -> FinitePredictiveModel:
    """Replace ``target`` by ``k`` copies that share its outgoing distribution.

    ``router`` maps every incoming transition (from_state, symbol) of the
    target onto a copy index; self-loops re-enter whichever copy the router
    assigns to (target, symbol).  The split model generates the identical
    process, with the copies probabilistically equivalent by construction.
    """
    if target not in m.states:
        raise UnknownStateError(f"unknown state {target!r}")
    if _index(k) < 1:
        raise ValueError(f"k must be an integer of at least 1, got {k!r}")
    if k == 1:
        return m
    incoming = _incoming(m, target)
    router = dict(router or {})
    if set(router) != set(incoming):
        raise UnreachableCopyError(
            f"router must cover exactly the incoming transitions of {target!r}: {incoming}"
        )
    if any(not (0 <= c < k) for c in router.values()):
        raise UnreachableCopyError(f"router values must lie in 0..{k - 1}")
    missing = set(range(k)) - set(router.values())
    if missing:
        raise UnreachableCopyError(f"copies {sorted(missing)} receive no incoming transition")
    if names is None:
        names = tuple(f"{target}_{i + 1}" for i in range(k))
    if len(names) != k or len(set(names)) != k:
        raise ValueError("need k distinct copy names")
    if set(names) & (set(m.states) - {target}):
        raise ValueError("copy names collide with existing states")

    new_states: list[str] = []
    for s in m.states:
        new_states.extend(names if s == target else (s,))
    new_trans: dict[tuple[str, str], tuple[float, str]] = {}
    for i, j, p, t in _live_transitions(m):
        s, x, succ = m.states[i], m.alphabet[j], m.states[t]
        for copy in names if s == target else (s,):
            new_trans[(copy, x)] = (p, names[router[(s, x)]] if succ == target else succ)
    return FinitePredictiveModel(tuple(new_states), m.alphabet, new_trans)


def _incoming(m: FinitePredictiveModel, target: str) -> list[tuple[str, str]]:
    """The (state, symbol) pairs of the positive transitions into ``target``, sorted."""
    k = m.states.index(target)
    return sorted((m.states[i], m.alphabet[j]) for i, j, _, t in _live_transitions(m) if t == k)


def _live_transitions(m: FinitePredictiveModel):
    """Each positive transition as (i, j, p, t), row by row: state i emits symbol j
    with probability p and moves to state t."""
    rows, cols = np.nonzero(m.succ >= 0)
    return zip(rows.tolist(), cols.tolist(), m.probs[rows, cols].tolist(),
               m.succ[rows, cols].tolist())


# ---------------------------------------------------------------- file format

def _parse_number(token: str, lineno: int) -> float:
    """An ASCII decimal or ``a/b`` fraction; anything else (nan, inf, ``_``) is an error."""
    try:
        if not _plain(token):
            raise ValueError(token)
        value = float(Fraction(token)) if "/" in token else float(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ModelFormatError(f"bad number {token!r}", lineno) from exc
    if not math.isfinite(value):
        raise ModelFormatError(f"non-finite number {token!r}", lineno)
    return value


def _directives(text: str):
    """Yield (line number, head, rest) for each ``head: rest`` line, comments stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            head, _, rest = line.partition(":")
            yield lineno, head.strip(), rest.strip()


def _model_kind(lines) -> tuple[int | None, str]:
    """Line number and KIND of the first of ``lines``, which must be ``model: KIND``."""
    lineno, head, kind = next(lines, (None, None, None))
    if head != "model":
        raise ModelFormatError("file must start with a 'model:' line", lineno)
    return lineno, kind


def _read_model_file(text: str, kind: str, names: tuple, record_heads: tuple):
    """The one reader of the model-file grammar: ``model: KIND`` first, then each of
    ``names`` exactly once and records with ``record_heads``, in any order, the first
    head at least once.  Yields the header ``{name: (lineno, value)}`` once its last
    line is read, then each record as (lineno, head, rest) in file order; only records
    read before that are held.
    """
    lines = _directives(text)
    lineno, found = _model_kind(lines)
    if found != kind:
        raise ModelFormatError(f"expected 'model: {kind}', got {found!r}", lineno)
    header = {"model": (lineno, found)}
    early = []
    seen_first = False
    for lineno, head, rest in lines:
        if head in record_heads:
            seen_first = seen_first or head == record_heads[0]
            if early is None:
                yield lineno, head, rest
            else:
                early.append((lineno, head, rest))
        elif head in header:
            raise ModelFormatError(f"duplicate {head} line", lineno)
        elif head in names:
            header[head] = (lineno, rest)
            if len(header) > len(names):
                yield header
                yield from early
                early = None
        else:
            raise ModelFormatError(f"unrecognized directive {head!r}", lineno)
    if early is not None:
        missing = next(name for name in names if name not in header)
        raise ModelFormatError(f"missing {missing} line")
    if not seen_first:
        raise ModelFormatError(f"missing {record_heads[0]} line")


def _name_list(line: tuple[int, str], what: str, items: str) -> tuple[str, ...]:
    """The distinct names listed on a header line such as ``alphabet: 0 1``."""
    lineno, rest = line
    names = tuple(rest.split())
    if not names or len(set(names)) != len(names):
        raise ModelFormatError(f"{what} must list distinct {items}", lineno)
    return names


def parse_model(text: str) -> FinitePredictiveModel:
    """Parse the line-oriented classical model format.

    Syntax problems raise :class:`ModelFormatError` with the line number;
    semantic problems raise the matching validation error.
    """
    records = _read_model_file(text, "classical", ("alphabet", "states"), ("t",))
    header = next(records)
    alphabet = _name_list(header["alphabet"], "alphabet", "symbols")
    states = _name_list(header["states"], "states", "labels")
    declared = set(states)
    trans: dict[tuple[str, str], tuple[float, str]] = {}
    for lineno, _, rest in records:
        fields = rest.split()
        if len(fields) != 4:
            raise ModelFormatError("expected 't: FROM SYMBOL PROB TO'", lineno)
        src, sym, prob_tok, dst = fields
        if src not in declared:
            raise UnknownStateError(f"line {lineno}: unknown state {src!r}")
        if dst not in declared:
            raise UnknownStateError(f"line {lineno}: unknown state {dst!r}")
        if sym not in alphabet:
            raise UnknownSymbolError(f"line {lineno}: unknown symbol {sym!r}")
        p = _parse_number(prob_tok, lineno)
        if not (0 <= p <= 1 + EQUAL_TOL):
            raise ModelFormatError(f"probability {prob_tok!r} outside [0, 1]", lineno)
        key = (src, sym)
        if key in trans:
            prev_p, prev_dst = trans[key]
            if prev_dst != dst:
                raise NotUnifilarError(
                    f"line {lineno}: ({src}, {sym}) already goes to {prev_dst!r}"
                )
            raise DuplicateTransitionError(f"line {lineno}: duplicate transition ({src}, {sym})")
        trans[key] = (p, dst)
    return FinitePredictiveModel(states, alphabet, trans)


def serialize_model(m: FinitePredictiveModel) -> str:
    """Emit the model file; declaration order, 12 significant digits."""
    lines = [
        "model: classical",
        "alphabet: " + " ".join(m.alphabet),
        "states: " + " ".join(m.states),
    ]
    for i, j, p, t in _live_transitions(m):
        lines.append(f"t: {m.states[i]} {m.alphabet[j]} {_significant(p)} {m.states[t]}")
    return "\n".join(lines) + "\n"
