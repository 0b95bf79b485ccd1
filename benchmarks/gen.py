"""Seeded generator of minimal unifilar machines and their redundant lifts.

Models come out as text in the classical model file format, so the program
under test sees them only through ``parse_model``.  States are named
``s0, s1, ...`` and symbols ``0, 1, ...``, so any size can be drawn.

A generated machine is minimal by construction: the probability of symbol
``0`` differs between any two states by at least a fixed share of the
band it is drawn from, far above the merge tolerance, so no two states are
probabilistically equivalent.  Symbol ``0`` also walks the states in a
cycle ``s0 -> s1 -> ... -> s0``, which makes the machine irreducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ModelSpec:
    """A unifilar model as plain data: (state, symbol) -> (prob, successor)."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    trans: dict[tuple[str, str], tuple[float, str]]

    def to_text(self) -> str:
        lines = [
            "model: classical",
            "alphabet: " + " ".join(self.alphabet),
            "states: " + " ".join(self.states),
        ]
        for s in self.states:
            for x in self.alphabet:
                entry = self.trans.get((s, x))
                if entry is not None:
                    lines.append(f"t: {s} {x} {entry[0]:.12g} {entry[1]}")
        return "\n".join(lines) + "\n"


def _emission_rows(
    rng: np.random.Generator, n: int, k: int, spread: float, support: int
) -> np.ndarray:
    """n x k emission table whose first column is well separated between rows.

    Row i puts probability ``c * (1 + spread * u_i)`` on symbol 0, where
    c = 1/k and the u_i are a shuffled evenly spaced grid on [-1, 1] with
    jitter below a quarter cell, so any two rows differ there by at least
    ``c * spread / n``.  The rest goes to ``support - 1`` of the other
    symbols, chosen at random per row when ``support < k``, each within
    ``spread`` (relative) of an equal share; the other entries are 0.
    """
    c = 1.0 / k
    cell = 2.0 / n
    grid = -1.0 + cell * (rng.permutation(n) + 0.5)
    u = grid + rng.uniform(-0.25, 0.25, size=n) * cell
    first = c * (1.0 + spread * u)
    rows = np.empty((n, k))
    rows[:, 0] = first
    weights = 1.0 + spread * rng.uniform(-1.0, 1.0, size=(n, k - 1))
    if support < k:
        for row in weights:
            row[rng.permutation(k - 1)[support - 1:]] = 0.0
    weights /= weights.sum(axis=1, keepdims=True)
    rows[:, 1:] = (1.0 - first)[:, None] * weights
    return rows


def minimal_machine(
    rng: np.random.Generator,
    n_states: int,
    n_symbols: int,
    spread: float = 0.8,
    support: int | None = None,
) -> ModelSpec:
    """Random minimal machine in which every state emits ``support`` symbols.

    ``spread`` in (0, 1) sets how far emissions stray from uniform: 0.8
    gives well-separated states, a few hundredths gives states that the
    overlap recursion takes thousands of iterations to tell apart.
    ``support`` (default: all symbols) counts symbol 0, which every state
    emits; a small support makes most pairs of states emit disjoint
    symbols, so the overlap recursion converges in tens of iterations.
    """
    support = n_symbols if support is None else support
    if n_states < 2 or n_symbols < 2 or not (0.0 < spread < 1.0):
        raise ValueError("need n_states >= 2, n_symbols >= 2 and 0 < spread < 1")
    if not 2 <= support <= n_symbols:
        raise ValueError("need 2 <= support <= n_symbols")
    states = tuple(f"s{i}" for i in range(n_states))
    alphabet = tuple(str(x) for x in range(n_symbols))
    rows = _emission_rows(rng, n_states, n_symbols, spread, support)
    succ = rng.integers(n_states, size=(n_states, n_symbols))
    succ[:, 0] = (np.arange(n_states) + 1) % n_states
    trans = {
        (s, x): (float(rows[i, j]), states[succ[i, j]])
        for i, s in enumerate(states)
        for j, x in enumerate(alphabet)
        if rows[i, j] > 0.0
    }
    return ModelSpec(states, alphabet, trans)


def lift(rng: np.random.Generator, m: ModelSpec, copies: int) -> ModelSpec:
    """Redundant presentation with ``copies`` copies of every state.

    Copy c of state s moves on symbol x to copy perm[s, x](c) of the
    successor, where each perm is a random permutation; every copy therefore
    keeps an incoming edge.  The cycle edges carry the identity except the
    closing edge, which shifts copies by one, so the lifted cycle visits
    every copy and the lift stays irreducible.  States are declared in a
    shuffled order.  ``merge`` of the lift returns ``len(m.states)`` states.
    """
    if copies < 1:
        raise ValueError("copies must be at least 1")
    first = m.alphabet[0]
    last = m.states[-1]

    def name(s: str, c: int) -> str:
        return f"{s}.{c}"

    trans = {}
    for (s, x), (p, t) in m.trans.items():
        if x == first:
            shift = 1 if s == last else 0
            perm = [(c + shift) % copies for c in range(copies)]
        else:
            perm = rng.permutation(copies).tolist()
        for c in range(copies):
            trans[(name(s, c), x)] = (p, name(t, perm[c]))
    states = [name(s, c) for s in m.states for c in range(copies)]
    order = rng.permutation(len(states))
    return ModelSpec(tuple(states[i] for i in order), m.alphabet, trans)
