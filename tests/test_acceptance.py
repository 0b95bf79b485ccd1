"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; tolerances are fixed here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from machina.catalog import biased_coin, d3, d4, even_odd, mbw3, mbw4, q3, q4
from machina.distributions import (
    ALPHA_GRID,
    Distribution,
    MajorizationVerdict,
    TransferOp,
    apply_transfer,
    chain_to_doubly_stochastic,
    compare,
    renyi_entropy,
    replay_chain,
    transfer_chain,
    validate_distribution,
)
from machina.hmm import (
    models_equal,
    parse_model,
    renyi_memory,
    serialize_model,
    stationary,
    word_distribution,
)
from machina.minimize import merge
from machina.quantum import (
    build_qmachine,
    classical_equivalent,
    memory_spectrum,
    parse_quantum_model,
    quantum_models_equal,
    quantum_word_distribution,
    serialize_quantum_model,
)
from machina.qubit_family import candidate, frame_residual, uniqueness_sweep
from random_models import random_epsilon_machine, random_refinement

MAJOR_OR_EQ = (MajorizationVerdict.STRICTLY_MAJORIZES, MajorizationVerdict.EQUIVALENT)


def _report(number: int, text: str):
    print(f"[criterion {number:02d}] PASS {text}")


def _q3_oracle_spectrum() -> np.ndarray:
    gram = np.full((3, 3), 5 / 6)
    np.fill_diagonal(gram, 1.0)
    return np.sort(np.linalg.eigvalsh(gram / 3))[::-1]


def test_criterion_01_three_state_statistical_memory():
    oracle = _q3_oracle_spectrum()
    assert np.allclose(oracle, [8 / 9, 1 / 18, 1 / 18], atol=1e-12)
    s1 = renyi_memory(q3(), 1)
    assert s1 == pytest.approx(0.6144, abs=0.005)
    assert s1 == pytest.approx(renyi_entropy(oracle, 1), abs=1e-9)
    _report(1, f"S1(q3) = {s1:.4f} within 0.6144 +- 0.005; matches Gram eigensolve oracle")


def test_criterion_02_four_state_memories():
    oracle = np.array([1.5 + math.sqrt(2), 0.5, 0.5, 1.5 - math.sqrt(2)]) / 4
    s1 = renyi_memory(q4(), 1)
    s_inf = renyi_memory(q4(), math.inf)
    assert s1 == pytest.approx(1.202, abs=0.01)
    assert s_inf == pytest.approx(0.457, abs=0.01)
    assert s1 == pytest.approx(renyi_entropy(oracle, 1), abs=1e-9)
    assert s_inf == pytest.approx(renyi_entropy(oracle, math.inf), abs=1e-9)
    _report(2, f"S1(q4) = {s1:.4f}, Sinf(q4) = {s_inf:.4f}; matches analytic spectrum")


def test_criterion_03_qubit_model_memories():
    s_d3 = renyi_memory(d3(), 1)
    s_d4 = renyi_memory(d4(), 1)
    s_inf_d4 = renyi_memory(d4(), math.inf)
    assert s_d3 == pytest.approx(1.0, abs=1e-9)
    assert s_d4 == pytest.approx(1.0, abs=1e-9)
    assert s_inf_d4 == pytest.approx(1.0, abs=1e-9)
    _report(3, "S1(d3) = S1(d4) = Sinf(d4) = 1.0 within 1e-9 (rho = I/2)")


def test_criterion_04_spectra_majorize_stationaries():
    v4 = compare(memory_spectrum(q4()), stationary(mbw4()))
    v3 = compare(memory_spectrum(q3()), stationary(mbw3()))
    assert v4 is MajorizationVerdict.STRICTLY_MAJORIZES
    assert v3 is MajorizationVerdict.STRICTLY_MAJORIZES
    _report(4, "spectrum(q4) > pi(mbw4) and spectrum(q3) > pi(mbw3), strictly")


def test_criterion_05_qubit_and_overlap_models_incomparable():
    v4 = compare(memory_spectrum(d4()), memory_spectrum(q4()))
    v3 = compare(memory_spectrum(d3()), memory_spectrum(q3()))
    assert v4 is MajorizationVerdict.INCOMPARABLE
    assert v3 is MajorizationVerdict.INCOMPARABLE
    _report(5, "spectra of d4/q4 and d3/q3 are incomparable")


def test_criterion_06_residual_sweep():
    start = time.monotonic()
    report = uniqueness_sweep(10_000)
    assert report.passed
    for zero, target in zip(sorted(report.zero_thetas), (-math.pi, math.pi)):
        assert abs(zero - target) <= report.spacing
    at_two_thirds = frame_residual(candidate(2 * math.pi / 3)).residual
    assert at_two_thirds == pytest.approx(0.25, abs=1e-6)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(6, f"grid 1e4 sweep: unique zero at +-pi, residual(2pi/3) = {at_two_thirds:.6f} "
               f"({elapsed:.2f}s)")


def test_criterion_07_figure_vectors():
    fig2 = compare([3 / 4, 1 / 8, 1 / 8, 0, 0], [2 / 5, 1 / 5, 1 / 5, 1 / 10, 1 / 10])
    fig3 = compare([3 / 5, 0.1, 0.1, 0.1, 0.1], [1 / 3, 1 / 3, 1 / 3, 0, 0])
    assert fig2 is MajorizationVerdict.STRICTLY_MAJORIZES
    assert fig3 is MajorizationVerdict.INCOMPARABLE
    _report(7, "quoted 5-vectors: StrictlyMajorizes and Incomparable")


def test_criterion_08_minimal_machine_majorizes_splits():
    start = time.monotonic()
    rng = np.random.default_rng(20260810)
    for trial in range(200):
        machine = random_epsilon_machine(rng, max_states=6, max_symbols=3)
        split = random_refinement(rng, machine, max_splits=3)
        verdict = compare(stationary(machine), stationary(split))
        assert verdict in MAJOR_OR_EQ, (trial, verdict)
        recovered = merge(split)
        for length in range(1, 7):
            wd_a = word_distribution(machine, length)
            wd_b = word_distribution(recovered, length)
            keys = set(wd_a) | set(wd_b)
            worst = max(abs(wd_a.get(w, 0.0) - wd_b.get(w, 0.0)) for w in keys)
            assert worst < 1e-9, (trial, length, worst)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(8, f"200 random machines: stationary majorizes every split; merge "
               f"recovers the word measure ({elapsed:.1f}s)")


def test_criterion_09_quantum_advantage_on_random_machines():
    start = time.monotonic()
    rng = np.random.default_rng(314159)
    for trial in range(200):
        machine = random_epsilon_machine(rng, max_states=5, max_symbols=3)
        q = build_qmachine(machine)
        lam = memory_spectrum(q)
        pi = stationary(machine)
        verdict = compare(lam, pi)
        assert verdict in MAJOR_OR_EQ, (trial, verdict)
        for alpha in ALPHA_GRID:
            assert renyi_entropy(lam, alpha) <= renyi_entropy(pi, alpha) + 1e-9, (
                trial,
                alpha,
            )
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(9, f"200 random machines: spectrum majorizes stationary and every "
               f"Renyi memory shrinks ({elapsed:.1f}s)")


def _random_distribution(rng) -> Distribution:
    size = int(rng.integers(2, 9))
    return validate_distribution(rng.dirichlet(np.ones(size)))


def _random_majorizing_pair(rng):
    p = _random_distribution(rng)
    cur = p
    for _ in range(int(rng.integers(1, 5))):
        probs = cur.probs
        pairs = [
            (i, j)
            for i in range(len(probs))
            for j in range(len(probs))
            if probs[i] - probs[j] > 1e-6
        ]
        if not pairs:
            break
        i, j = pairs[int(rng.integers(len(pairs)))]
        frac = 0.05 + 0.9 * rng.random()
        cur = apply_transfer(cur, TransferOp(i, j, frac * (probs[i] - probs[j])))
    return p, cur


def test_criterion_10_schur_concavity_and_monotonicity():
    rng = np.random.default_rng(271828)
    for _ in range(1000):
        p, q = _random_majorizing_pair(rng)
        values_p = [renyi_entropy(p, a) for a in ALPHA_GRID]
        values_q = [renyi_entropy(q, a) for a in ALPHA_GRID]
        assert all(sp <= sq + 1e-9 for sp, sq in zip(values_p, values_q))
        for values in (values_p, values_q):
            assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))
    _report(10, "1000 random pairs: Schur concavity and alpha-monotonicity, no violations")


def test_criterion_11_transfer_chains_and_mixing_matrices():
    rng = np.random.default_rng(1618)
    for _ in range(500):
        p, q = _random_majorizing_pair(rng)
        ops = transfer_chain(p, q)
        final = replay_chain(p, ops)
        assert np.max(np.abs(final.probs - q.sorted_desc())) < 1e-9
        mixing = chain_to_doubly_stochastic(ops, p)
        assert np.max(np.abs(mixing.sum(axis=0) - 1.0)) < 1e-9
        assert np.max(np.abs(mixing.sum(axis=1) - 1.0)) < 1e-9
        assert np.max(np.abs(mixing @ p.sorted_desc() - q.sorted_desc())) < 1e-9
    _report(11, "500 majorizing pairs: chains replay exactly and their matrices "
                "are doubly stochastic")


def test_criterion_12_quantum_classical_word_agreement():
    worst = 0.0
    for factory in (d3, d4, q3, q4):
        q = factory()
        classical = classical_equivalent(q)
        for length in range(1, 7):
            quantum_table = quantum_word_distribution(q, length)
            classical_table = word_distribution(classical, length)
            keys = set(quantum_table) | set(classical_table)
            worst = max(
                worst,
                max(abs(quantum_table.get(w, 0.0) - classical_table.get(w, 0.0)) for w in keys),
            )
    assert worst < 1e-9
    _report(12, f"all catalog quantum models match their classical read-off to "
                f"{worst:.2e} for words up to length 6")


def test_criterion_13_round_trips():
    classical = [mbw3(), mbw4(), even_odd(0.5), even_odd(0.3), biased_coin(0.6)]
    for m in classical:
        assert models_equal(parse_model(serialize_model(m)), m)
    for q in (d3(), d4(), q3(), q4()):
        assert quantum_models_equal(parse_quantum_model(serialize_quantum_model(q)), q)
    for m in (mbw3(), mbw4(), even_odd(0.5), biased_coin(0.6)):
        assert models_equal(classical_equivalent(build_qmachine(m)), m)
    _report(13, "parse/serialize and synthesize/read-off round-trips are identities")
