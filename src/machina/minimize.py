"""State merging for unifilar HMMs.

Two states are probabilistically equivalent when they assign the same
probability to every future word.  Moore-style signature refinement finds
the coarsest partition whose blocks agree on per-symbol emission
probabilities and land in a common block after each symbol; merging those
blocks yields the minimal machine for the generated process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import (
    ALPHA_GRID,
    Distribution,
    MajorizationVerdict,
    compare,
    renyi_entropy,
)
from .hmm import FinitePredictiveModel, stationary
from .tolerances import EQUAL_TOL, ZERO_TOL


@dataclass(frozen=True, eq=False)
class StatePartition:
    """Disjoint blocks covering the state set, plus the index of each state."""

    blocks: tuple[frozenset[str], ...]
    block_of: dict[str, int]

    def block_names(self) -> tuple[str, ...]:
        return tuple(min(block) for block in self.blocks)

    def is_discrete(self) -> bool:
        return all(len(block) == 1 for block in self.blocks)


def _first_appearance(keys: np.ndarray) -> np.ndarray:
    """Dense labels for the rows of ``keys``, numbered in order of first appearance."""
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse.reshape(-1)]


def _group_by_emissions(probs: np.ndarray) -> np.ndarray:
    # union of every pair of rows within EQUAL_TOL entrywise; a class is labeled by
    # its smallest member while the unions run
    labels = np.arange(len(probs))
    for row in probs:
        joined = labels[np.all(np.abs(probs - row) <= EQUAL_TOL, axis=1)]
        labels[np.isin(labels, joined)] = joined.min()
    return _first_appearance(labels)


def refine_partition(m: FinitePredictiveModel) -> StatePartition:
    """Coarsest partition stable under emissions and per-symbol successors.

    Blocks come out in order of their first member in ``m.states``.
    """
    labels = _group_by_emissions(m.probs)
    live = m.probs > ZERO_TOL
    for _ in range(len(m.states)):
        # where live is False, succ may be -1; the label read there is masked
        signature = np.column_stack([labels, np.where(live, labels[m.succ], -1)])
        new_labels = _first_appearance(signature)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    members: list[list[str]] = [[] for _ in range(labels.max() + 1)]
    for s, b in zip(m.states, labels.tolist()):
        members[b].append(s)
    return StatePartition(
        blocks=tuple(map(frozenset, members)), block_of=dict(zip(m.states, labels.tolist()))
    )


def is_epsilon_machine(m: FinitePredictiveModel) -> bool:
    """True iff all states are probabilistically distinct."""
    return refine_partition(m).is_discrete()


def merge(m: FinitePredictiveModel) -> FinitePredictiveModel:
    """Quotient model over the equivalence blocks.

    Blocks are named after their lexicographically smallest member and kept
    in first-appearance order, so the output is deterministic and merging is
    idempotent.
    """
    return _quotient(m, refine_partition(m))


def _quotient(m: FinitePredictiveModel, part: StatePartition) -> FinitePredictiveModel:
    names = part.block_names()
    trans: dict[tuple[str, str], tuple[float, str]] = {}
    for block, name in zip(part.blocks, names):
        rep = min(block)
        for x in m.alphabet:
            p = m.prob(rep, x)
            if p > ZERO_TOL:
                succ_block = part.block_of[m.successor(rep, x)]
                trans[(name, x)] = (p, names[succ_block])
    return FinitePredictiveModel(names, m.alphabet, trans)


@dataclass(frozen=True, eq=False)
class MinimalityReport:
    """Comparison of a model against its merged minimal machine."""

    machine: FinitePredictiveModel
    partition: StatePartition
    machine_stationary: Distribution
    model_stationary: Distribution
    verdict: MajorizationVerdict
    entropies: tuple[tuple[float, float, float], ...]  # (alpha, H machine, H model)

    @property
    def already_minimal(self) -> bool:
        return self.partition.is_discrete()


def strong_minimality_report(m: FinitePredictiveModel) -> MinimalityReport:
    """Merge, then compare stationary distributions and entropy tables.

    The merged machine's stationary state should majorize (or tie) the
    model's, hence never exceed it in any Renyi memory.
    """
    part = refine_partition(m)
    machine = _quotient(m, part)
    pi_machine = stationary(machine)
    pi_model = stationary(m)
    verdict = compare(pi_machine, pi_model)
    rows = tuple(
        (a, renyi_entropy(pi_machine, a), renyi_entropy(pi_model, a)) for a in ALPHA_GRID
    )
    return MinimalityReport(
        machine=machine,
        partition=part,
        machine_stationary=pi_machine,
        model_stationary=pi_model,
        verdict=verdict,
        entropies=rows,
    )


def canonical_encoding(m: FinitePredictiveModel) -> tuple:
    """Relabeling-invariant encoding; equal encodings mean isomorphic machines.

    BFS from every state in alphabet order, take the minimal transition table
    (rounded to the digits of ``EQUAL_TOL``).  For small machines (smoke tests).
    """
    ndigits = round(-np.log10(EQUAL_TOL))
    best = None
    for root in m.states:
        order = [root]
        seen = {root}
        cursor = 0
        while cursor < len(order):
            s = order[cursor]
            cursor += 1
            for x in m.alphabet:
                succ = m.successor(s, x)
                if succ is not None and succ not in seen:
                    seen.add(succ)
                    order.append(succ)
        if len(order) != len(m.states):
            continue
        index = {s: i for i, s in enumerate(order)}
        enc = tuple(
            tuple(
                (x, round(m.prob(s, x), ndigits), index[m.successor(s, x)])
                for x in m.alphabet
                if m.prob(s, x) > ZERO_TOL
            )
            for s in order
        )
        if best is None or enc < best:
            best = enc
    if best is None:
        raise ValueError("no state reaches the whole machine")
    return best
