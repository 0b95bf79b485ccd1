"""State merging for unifilar HMMs.

Two states are probabilistically equivalent when they assign the same
probability to every future word.  Moore-style signature refinement of the
model's ``probs``/``succ`` arrays finds the coarsest partition whose blocks
agree on per-symbol emission probabilities and land in a common block after
each symbol, and labels each state index with its block; merging those
blocks yields the minimal machine for the generated process.

Grouping the emission rows costs one sort plus pairwise checks inside runs of
close first entries; it unions pairs within ``EQUAL_TOL``, so it still chains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import ComparisonReport
from .hmm import FinitePredictiveModel, _live_transitions
from .tolerances import EQUAL_TOL


@dataclass(frozen=True, eq=False)
class StatePartition:
    """Disjoint blocks covering the state set; ``labels[i]`` is the block of state i."""

    blocks: tuple[frozenset[str], ...]
    labels: np.ndarray  # read-only
    spread: float  # largest max - min of one emission probability within a block

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
    # union of every pair of rows within EQUAL_TOL entrywise.  Exact duplicates share a
    # distinct row; distinct rows come out sorted by first entry, and a pair within
    # tolerance never spans a gap above it there, so pairs are tested only inside runs
    rows, inverse = np.unique(probs, axis=0, return_inverse=True)
    bounds = np.flatnonzero(np.diff(rows[:, 0], prepend=-np.inf, append=np.inf) > EQUAL_TOL)
    labels = np.arange(len(rows))
    for start, stop in zip(bounds[:-1], bounds[1:]):
        if stop - start == 1:
            continue
        run, block = rows[start:stop], labels[start:stop]  # block writes through to labels
        for row in run:
            joined = block[np.all(np.abs(run - row) <= EQUAL_TOL, axis=1)]
            block[np.isin(block, joined)] = joined.min()
    return _first_appearance(labels[inverse.reshape(-1)])


def refine_partition(m: FinitePredictiveModel) -> StatePartition:
    """Coarsest partition stable under emissions and per-symbol successors.

    Blocks come out in order of their first member in ``m.states``.  The model keeps
    its partition, so each model is refined once.
    """
    return m._partition


def _refine(m: FinitePredictiveModel) -> StatePartition:
    labels = _group_by_emissions(m.probs)
    live = m.succ >= 0
    for _ in range(len(m.states)):
        # where there is no transition, succ is -1; the label read there is masked
        signature = np.column_stack([labels, np.where(live, labels[m.succ], -1)])
        new_labels = _first_appearance(signature)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    members: list[list[str]] = [[] for _ in range(labels.max() + 1)]
    for s, b in zip(m.states, labels.tolist()):
        members[b].append(s)
    shape = (len(members), len(m.alphabet))
    hi, lo = np.zeros(shape), np.ones(shape)
    np.maximum.at(hi, labels, m.probs)
    np.minimum.at(lo, labels, m.probs)
    labels.setflags(write=False)
    return StatePartition(tuple(map(frozenset, members)), labels, float(np.max(hi - lo)))


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
    name_of = [names[b] for b in part.labels.tolist()]
    # a block takes the row of its smallest member, the one it is named after
    trans = {
        (name_of[i], m.alphabet[j]): (p, name_of[t])
        for i, j, p, t in _live_transitions(m)
        if m.states[i] == name_of[i]
    }
    return FinitePredictiveModel(names, m.alphabet, trans)


@dataclass(frozen=True, eq=False)
class MinimalityReport(ComparisonReport):
    """Comparison of a merged minimal machine (``first``) against the model (``second``)."""

    machine: FinitePredictiveModel
    partition: StatePartition

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
    return MinimalityReport.of(machine.memory(), m.memory(), machine=machine, partition=part)


def canonical_encoding(m: FinitePredictiveModel) -> tuple:
    """Relabeling-invariant encoding; equal encodings mean isomorphic machines.

    BFS from every state in alphabet order, take the minimal transition table
    (rounded to the digits of ``EQUAL_TOL``).  The BFS follows the positive
    transitions that the irreducibility check follows, so every root reaches
    every state.  For small machines (smoke tests).
    """
    ndigits = round(-np.log10(EQUAL_TOL))
    probs = m.probs.tolist()
    succ = m.succ.tolist()

    def encode(root: int) -> tuple:
        order = [root]
        index = {root: 0}
        for s in order:  # grows as the BFS goes
            for t in succ[s]:
                if t >= 0 and t not in index:
                    index[t] = len(order)
                    order.append(t)
        return tuple(
            tuple(
                (x, round(p, ndigits), index[t])
                for x, p, t in zip(m.alphabet, probs[s], succ[s])
                if t >= 0
            )
            for s in order
        )

    return min(encode(root) for root in range(len(m.states)))
