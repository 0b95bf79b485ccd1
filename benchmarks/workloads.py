"""The benchmark's workloads: seeded op lists over machina's public API.

An op is one analysis a user runs: a short fixed chain of public calls on
one input, made through a :class:`tracing.Tracer`, followed by a check of
its result against the paper's claims.  Checks run outside the timed
region and raise :class:`CheckFailed` when a result is wrong.

Sizes follow a fixed schedule in every workload, and the seed draws only
the structure and the probabilities, so the work per op list barely moves
from seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import machina as M
from machina import quantum as Q
from machina.catalog import catalog_names, get_process

from gen import lift, minimal_machine

GOOD = (M.MajorizationVerdict.STRICTLY_MAJORIZES, M.MajorizationVerdict.EQUIVALENT)


class CheckFailed(Exception):
    """An op returned, but its result contradicts what the paper proves."""


def require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable  # run(tracer) -> result
    check: Callable  # check(result); raises CheckFailed


# ------------------------------------------------------------- split_merge

# (minimal states, symbols) per op; the lift doubles the states.  Twelve of
# the 100 ops, spread evenly through the list, lift 200 states to 400, so
# op_p90_ms falls on the largest size; the rest lift 100-112 states.  With
# 800-state lifts a pass took over 20 s, too long for each op to run the
# several times per run that a steady median latency needs.
SPLIT_SIZES = tuple((200 if i % 8 == 4 else 100 + i // 8, 2 + i % 3) for i in range(100))


def _split_merge_op(text: str, n_minimal: int) -> Op:
    def run(tr):
        model = tr.call(M.parse_model, text)
        pi = tr.call(M.stationary, model)
        part = tr.call(M.refine_partition, model)
        machine = tr.call(M.merge, model)
        pi_machine = tr.call(M.stationary, machine)
        verdict = tr.call(M.compare, pi_machine, pi)
        table = [
            (tr.call(M.renyi_entropy, pi_machine, a), tr.call(M.renyi_entropy, pi, a))
            for a in M.ALPHA_GRID
        ]
        chain = tr.call(M.transfer_chain, pi_machine, pi)
        padded = tr.call(M.pad_to, pi_machine, len(pi))
        replayed = tr.call(M.replay_chain, padded, chain)
        out = tr.call(M.serialize_model, machine)
        return model, pi, part, machine, verdict, table, replayed, out

    def check(result):
        model, pi, part, machine, verdict, table, replayed, out = result
        require(verdict in GOOD, f"machine vs presentation: {verdict}")
        require(len(part.blocks) == n_minimal, f"{len(part.blocks)} blocks, want {n_minimal}")
        require(len(machine.states) == n_minimal,
                f"merge gave {len(machine.states)} states, want {n_minimal}")
        require(all(h_m <= h + 1e-9 for h_m, h in table), "machine memory exceeds model memory")
        gap = float(np.max(np.abs(replayed.probs - pi.sorted_desc())))
        require(gap <= 1e-8, f"replayed chain misses the target by {gap:.3g}")
        require(M.models_equal(M.parse_model(out), machine), "machine file round trip differs")

    return Op(f"split_merge/{2 * n_minimal}", run, check)


def split_merge(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for n, k in SPLIT_SIZES:
        text = lift(rng, minimal_machine(rng, n, k), 2).to_text()
        ops.append(_split_merge_op(text, n))
    return ops


# ------------------------------------------------------------------ qsynth

# (states, symbols, spread, support).  Family (a), every fifth op, has
# 64-121 well-separated states, each emitting symbol 0 and one other of 3-4
# symbols; it converges in tens of overlap iterations, and its time goes to
# the dense algebra and the file round trip.  Family (b) has 20-60 states
# that emit every symbol within 10% (relative) of uniform, and needs
# hundreds to thousands of iterations; the count varies a lot from machine
# to machine, so there are many of them and their sum is steady.  At 4%
# build_qmachine rejects a few three-symbol machines (see
# test_near_uniform_machine_builds in tests/test_bench.py).
QSYNTH_SIZES = tuple(
    (64 + 3 * (i // 5), 3 + i % 2, 0.8, 2) if i % 5 == 0 else (20 + i % 41, 2 + i % 2, 0.1, None)
    for i in range(100)
)


def _qsynth_op(text: str, n: int, family: str) -> Op:
    def run(tr):
        model = tr.call(M.parse_model, text)
        q = tr.call(M.build_qmachine, model)
        report = tr.call(M.strong_advantage_report, q)
        out = tr.call(M.serialize_quantum_model, q)
        back = tr.call(M.parse_quantum_model, out)
        return q, report, back

    def check(result):
        q, report, back = result
        require(report.verdict in GOOD, f"spectrum vs stationary: {report.verdict}")
        require(q.n == n, f"quantum model has {q.n} labels, want {n}")
        require(all(s <= h + 1e-9 for _, s, h in report.entropies),
                "quantum memory exceeds classical memory")
        require(Q.quantum_models_equal(back, q), "quantum file round trip differs")

    return Op(f"qsynth/{family}/{n}", run, check)


def qsynth(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    return [
        _qsynth_op(minimal_machine(rng, n, k, spread, support).to_text(), n,
                   "a" if support else "b")
        for n, k, spread, support in QSYNTH_SIZES
    ]


# ----------------------------------------------------------- paper_catalog

COUNTEREXAMPLE_GRID = 10_000
QUANTUM_ENTRIES = ("d3", "d4", "q3", "q4")


def _catalog_specs(rng) -> dict[str, str]:
    """One spec per catalog entry, with seeded bias parameters."""
    p = np.round(rng.uniform(0.2, 0.8, size=4), 3)
    variant = "bc"[int(rng.integers(2))]
    specs = {name: name for name in catalog_names()}
    specs["biased_coin"] = f"biased_coin:{p[0]}"
    specs["biased_coin_split"] = f"biased_coin_split:{p[1]}:{variant}"
    specs["even_odd"] = f"even_odd:{p[2]}"
    specs["even_odd_split"] = f"even_odd_split:{p[3]}"
    return specs


def _memory(tr, model):
    if isinstance(model, Q.PureStateQuantumModel):
        return tr.call(Q.memory_spectrum, model)
    return tr.call(M.stationary, model)


def _require_table(table: dict, what: str):
    total = sum(table.values())
    require(abs(total - 1.0) <= 1e-9, f"{what} word table sums to {total!r}")


def _counterexample_op() -> Op:
    def run(tr):
        return tr.call(M.counterexample_report, COUNTEREXAMPLE_GRID)

    def check(report):
        require(report.passed, "counterexample argument failed")
        require(report.spectrum_verdict == M.MajorizationVerdict.INCOMPARABLE,
                f"d3 vs q3: {report.spectrum_verdict}")
        require(len(report.sweep.thetas) == 2 * COUNTEREXAMPLE_GRID, "sweep size")

    return Op("catalog/counterexample", run, check)


def _words_op(spec: str, length: int) -> Op:
    def run(tr):
        model = tr.call(get_process, spec)
        return tr.call(M.word_distribution, model, length)

    def check(table):
        _require_table(table, spec)
        require(all(len(w) == length for w in table), "word of the wrong length")

    return Op(f"catalog/words/{spec}/{length}", run, check)


def _quantum_words_op(spec: str, length: int) -> Op:
    def run(tr):
        q = tr.call(get_process, spec)
        quantum = tr.call(Q.quantum_word_distribution, q, length)
        classical = tr.call(M.word_distribution, tr.call(Q.classical_equivalent, q), length)
        return quantum, classical

    def check(result):
        quantum, classical = result
        _require_table(quantum, spec)
        _require_table(classical, f"{spec} read-off")
        worst = max(abs(quantum.get(w, 0.0) - classical.get(w, 0.0))
                    for w in set(quantum) | set(classical))
        require(worst <= 1e-9, f"{spec}: quantum and classical tables differ by {worst:.3g}")

    return Op(f"catalog/qwords/{spec}/{length}", run, check)


def _pair_op(spec_a: str, spec_b: str) -> Op:
    incomparable = {spec_a, spec_b} == {"d3", "q3"}

    def run(tr):
        a = _memory(tr, tr.call(get_process, spec_a))
        b = _memory(tr, tr.call(get_process, spec_b))
        verdict = tr.call(M.compare, a, b)
        curves = tr.call(M.lorenz_curve, a), tr.call(M.lorenz_curve, b)
        mixing = None
        if verdict in GOOD:
            chain = tr.call(M.transfer_chain, a, b)
            mixing = tr.call(M.chain_to_doubly_stochastic, chain, a, max(len(a), len(b)))
        return a, b, verdict, curves, mixing

    def check(result):
        a, b, verdict, curves, mixing = result
        if incomparable:
            require(verdict == M.MajorizationVerdict.INCOMPARABLE, f"d3 vs q3: {verdict}")
        for curve in curves:
            require(abs(curve.cumulative[-1] - 1.0) <= 1e-9, "Lorenz curve does not end at 1")
        if mixing is None:
            return
        n = mixing.shape[0]
        require(float(mixing.min()) >= -1e-12, "mixing matrix has a negative entry")
        for axis in (0, 1):
            worst = float(np.max(np.abs(mixing.sum(axis=axis) - 1.0)))
            require(worst <= 1e-9, f"mixing matrix is not doubly stochastic ({worst:.3g})")
        start = M.pad_to(a, n).sorted_desc()
        target = M.pad_to(b, n).sorted_desc()
        miss = float(np.max(np.abs(mixing @ start - target)))
        require(miss <= 1e-8, f"mixing matrix misses the target by {miss:.3g}")

    return Op(f"catalog/pair/{spec_a}/{spec_b}", run, check)


def _minimality_op(spec: str, n_minimal: int) -> Op:
    def run(tr):
        return tr.call(M.strong_minimality_report, tr.call(get_process, spec))

    def check(report):
        require(report.verdict in GOOD, f"{spec}: machine vs model {report.verdict}")
        require(len(report.machine.states) == n_minimal, f"{spec}: wrong machine size")

    return Op(f"catalog/minimality/{spec}", run, check)


def _advantage_op(spec: str) -> Op:
    def run(tr):
        return tr.call(M.strong_advantage_report, tr.call(get_process, spec))

    def check(report):
        require(report.verdict in GOOD, f"{spec}: spectrum vs stationary {report.verdict}")

    return Op(f"catalog/advantage/{spec}", run, check)


def paper_catalog(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    specs = _catalog_specs(rng)
    p = np.round(rng.uniform(0.2, 0.8, size=3), 3)
    ops = [
        _counterexample_op(),
        _words_op("mbw3", 9),
        _words_op(specs["even_odd"], 16),
    ]
    ops += [_quantum_words_op(name, 6) for name in QUANTUM_ENTRIES]
    names = sorted(specs)
    ops += [_pair_op(specs[a], specs[b]) for a in names for b in names if a != b]
    ops += [
        _minimality_op(f"biased_coin_split:{p[0]}:b", 1),
        _minimality_op(f"biased_coin_split:{p[1]}:c", 1),
        _minimality_op(f"even_odd_split:{p[2]}", 4),
    ]
    ops += [_advantage_op(name) for name in QUANTUM_ENTRIES]
    return ops


WORKLOADS = {"split_merge": split_merge, "qsynth": qsynth, "paper_catalog": paper_catalog}
