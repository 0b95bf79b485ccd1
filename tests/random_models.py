"""Seeded generators of random minimal machines and their redundant splits.

Used by the randomized theorem suites: draw a random unifilar irreducible
model, merge it down to its minimal machine, then optionally re-inflate it
with random state splits that preserve the generated process.
"""

from __future__ import annotations

import numpy as np

from machina.hmm import FinitePredictiveModel, _incoming, split_state
from machina.minimize import merge


def random_unifilar_model(
    rng: np.random.Generator, n_states: int, n_symbols: int
) -> FinitePredictiveModel:
    """Random irreducible unifilar model with well-separated probabilities.

    States are named ``s0, s1, ...`` and symbols ``0, 1, ...``.  Each
    state's first drawn symbol leads to the next state on a random ring
    through all states, so every draw is irreducible at any size.
    """
    states = tuple(f"s{i}" for i in range(n_states))
    alphabet = tuple(str(j) for j in range(n_symbols))
    ring = rng.permutation(n_states)
    ring_next = np.empty(n_states, dtype=int)
    ring_next[ring] = np.roll(ring, -1)
    trans = {}
    for i, s in enumerate(states):
        support = 1 + int(rng.integers(n_symbols))
        symbols = rng.choice(n_symbols, size=support, replace=False)
        probs = rng.dirichlet(np.ones(support))
        probs = (probs + 0.15) / (1.0 + 0.15 * support)  # keep entries off zero
        succs = [ring_next[i], *rng.integers(n_states, size=support - 1)]
        for x_i, p, succ in zip(symbols, probs, succs):
            trans[(s, alphabet[int(x_i)])] = (float(p), states[int(succ)])
    return FinitePredictiveModel(states, alphabet, trans)


def random_epsilon_machine(
    rng: np.random.Generator, max_states: int = 6, max_symbols: int = 3
) -> FinitePredictiveModel:
    """Random minimal machine: merge a random unifilar model."""
    n_states = 2 + int(rng.integers(max_states - 1))
    n_symbols = 2 + int(rng.integers(max_symbols - 1))
    return merge(random_unifilar_model(rng, n_states, n_symbols))


def random_split(rng: np.random.Generator, m: FinitePredictiveModel) -> FinitePredictiveModel | None:
    """One random legal state split, or None if no state can be split."""
    candidates = []
    for target in m.states:
        incoming = _incoming(m, target)
        if len(incoming) >= 2:
            candidates.append((target, incoming))
    if not candidates:
        return None
    target, incoming = candidates[int(rng.integers(len(candidates)))]
    k = 2 + int(rng.integers(min(3, len(incoming)) - 1))
    # surjective router: each copy claims one incoming edge, rest at random
    order = rng.permutation(len(incoming))
    router = {}
    for rank, edge_i in enumerate(order):
        copy = rank if rank < k else int(rng.integers(k))
        router[incoming[int(edge_i)]] = copy
    existing = set(m.states)
    names = []
    suffix = 1
    while len(names) < k:
        name = f"{target}_{suffix}"
        if name not in existing:
            names.append(name)
            existing.add(name)
        suffix += 1
    return split_state(m, target, k, router, tuple(names))


def random_refinement(
    rng: np.random.Generator, m: FinitePredictiveModel, max_splits: int = 3
) -> FinitePredictiveModel:
    """Apply 1..max_splits random splits; returns m itself if none are legal."""
    out = m
    n_splits = 1 + int(rng.integers(max_splits))
    for _ in range(n_splits):
        nxt = random_split(rng, out)
        if nxt is None:
            break
        out = nxt
    return out
