import numpy as np
import pytest

from machina import minimize
from machina.catalog import (
    biased_coin,
    biased_coin_split,
    even_odd,
    even_odd_split,
    mbw3,
    mbw4,
)
from machina.distributions import MajorizationVerdict, compare
from machina.hmm import FinitePredictiveModel, stationary, word_distribution
from machina.minimize import (
    canonical_encoding,
    is_epsilon_machine,
    merge,
    refine_partition,
    strong_minimality_report,
)
from random_models import (
    random_epsilon_machine,
    random_refinement,
    random_unifilar_model,
)
from machina.tolerances import EQUAL_TOL, ZERO_TOL

MAJOR_OR_EQ = (MajorizationVerdict.STRICTLY_MAJORIZES, MajorizationVerdict.EQUIVALENT)


def test_refine_merges_redundant_coin_states():
    part = refine_partition(biased_coin_split(0.6, "b"))
    assert part.blocks == (frozenset({"B", "C"}),)


def test_refine_even_odd_split_blocks():
    part = refine_partition(even_odd_split(0.5))
    assert set(part.blocks) == {
        frozenset({"A"}),
        frozenset({"B"}),
        frozenset({"D"}),
        frozenset({"E", "F"}),
    }


@pytest.mark.parametrize("model", [mbw3(), mbw4(), even_odd(0.5), biased_coin(0.3)])
def test_minimal_machines_have_singleton_blocks(model):
    assert refine_partition(model).is_discrete()
    assert is_epsilon_machine(model)


@pytest.mark.parametrize("variant", ["b", "c"])
def test_redundant_coin_presentations_are_not_minimal(variant):
    assert not is_epsilon_machine(biased_coin_split(0.6, variant))


def test_merge_coin_split_to_one_state():
    merged = merge(biased_coin_split(0.6, "b"))
    assert len(merged.states) == 1
    assert merged.prob(merged.states[0], "1") == pytest.approx(0.6)


def test_merge_even_odd_split_recovers_four_states():
    merged = merge(even_odd_split(0.5))
    assert len(merged.states) == 4
    assert canonical_encoding(merged) == canonical_encoding(even_odd(0.5))


def test_merge_idempotent():
    m = merge(even_odd_split(0.5))
    again = merge(m)
    assert again.states == m.states
    assert again.trans == m.trans


@pytest.mark.parametrize(
    "model", [biased_coin_split(0.35, "b"), biased_coin_split(0.35, "c"), even_odd_split(0.4)]
)
def test_merge_preserves_word_measure(model):
    merged = merge(model)
    for length in range(1, 7):
        wd_a = word_distribution(model, length)
        wd_b = word_distribution(merged, length)
        for w in set(wd_a) | set(wd_b):
            assert wd_a.get(w, 0.0) == pytest.approx(wd_b.get(w, 0.0), abs=1e-9)


def test_minimality_report_on_coin_split():
    report = strong_minimality_report(biased_coin_split(0.6, "b"))
    assert report.verdict is MajorizationVerdict.STRICTLY_MAJORIZES
    assert np.allclose(report.machine_stationary.probs, [1.0])
    assert np.allclose(np.sort(report.model_stationary.probs), [0.4, 0.6])
    for _, h_machine, h_model in report.entropies:
        assert h_machine == pytest.approx(0.0, abs=1e-12)
        assert h_machine <= h_model + 1e-9


def test_minimality_report_even_odd_split():
    report = strong_minimality_report(even_odd_split(0.5))
    assert report.verdict is MajorizationVerdict.STRICTLY_MAJORIZES
    assert not report.already_minimal


def test_minimality_report_refines_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return refine_partition(*args, **kwargs)

    monkeypatch.setattr(minimize, "refine_partition", counting)
    report = strong_minimality_report(even_odd_split(0.5))
    assert len(calls) == 1
    assert len(report.machine.states) == 4


def test_minimality_report_on_minimal_input():
    report = strong_minimality_report(mbw3())
    assert report.verdict is MajorizationVerdict.EQUIVALENT
    assert report.already_minimal


def test_random_splits_majorized_by_machine():
    rng = np.random.default_rng(42)
    for _ in range(25):
        machine = random_epsilon_machine(rng)
        split = random_refinement(rng, machine)
        assert compare(stationary(machine), stationary(split)) in MAJOR_OR_EQ


def test_two_random_splits_merge_to_isomorphic_machines():
    rng = np.random.default_rng(7)
    for _ in range(10):
        machine = random_epsilon_machine(rng)
        enc = canonical_encoding(machine)
        for _ in range(2):
            split = random_refinement(rng, machine)
            assert canonical_encoding(merge(split)) == enc


def test_random_model_names_scale_past_eleven_states():
    m = random_unifilar_model(np.random.default_rng(0), 20, 5)
    assert m.states == tuple(f"s{i}" for i in range(20))
    assert m.alphabet == ("0", "1", "2", "3", "4")


def test_merge_undoes_random_splits_of_larger_machines():
    rng = np.random.default_rng(2024)
    for _ in range(12):
        n_states, n_symbols = 20 + int(rng.integers(21)), 2 + int(rng.integers(4))
        machine = merge(random_unifilar_model(rng, n_states, n_symbols))
        split = random_refinement(rng, machine)
        assert canonical_encoding(merge(split)) == canonical_encoding(machine)


def _reference_partition(m, tol=EQUAL_TOL):
    """Pairwise union-find over emission rows, then signature refinement by state name."""
    sigs = {s: tuple(m.prob(s, x) for x in m.alphabet) for s in m.states}
    parent = {s: s for s in m.states}

    def find(s):
        while parent[s] != s:
            s = parent[s]
        return s

    for i, a in enumerate(m.states):
        for b in m.states[i + 1 :]:
            if all(abs(pa - pb) <= tol for pa, pb in zip(sigs[a], sigs[b])):
                parent[find(a)] = find(b)
    labels = {s: find(s) for s in m.states}
    while True:
        sig = {
            s: (labels[s], tuple(
                (x, labels[m.successor(s, x)]) for x in m.alphabet if m.prob(s, x) > ZERO_TOL
            ))
            for s in m.states
        }
        new = {s: sig[s] for s in m.states}
        if len(set(new.values())) == len(set(labels.values())):
            break
        labels = new
    blocks: dict = {}
    for s in m.states:
        blocks.setdefault(labels[s], set()).add(s)
    return tuple(frozenset(b) for b in blocks.values())


def _chained_model():
    # a~b and b~c lie within the tolerance, a and c do not; pairwise union joins all three
    trans = {("d", "0"): (0.2, "a"), ("d", "1"): (0.3, "b"), ("d", "2"): (0.5, "c")}
    for s, p in (("a", 0.5), ("b", 0.5 + 0.8e-9), ("c", 0.5 + 1.6e-9)):
        trans[(s, "0")] = (p, "d")
        trans[(s, "1")] = (1.0 - p, "d")
    return FinitePredictiveModel(("a", "b", "c", "d"), ("0", "1", "2"), trans)


def test_refine_partition_matches_name_keyed_reference():
    rng = np.random.default_rng(11)
    models = [_chained_model(), even_odd_split(0.5), biased_coin_split(0.6, "c")]
    for _ in range(10):
        models.append(random_refinement(rng, random_epsilon_machine(rng, max_states=8)))
    assert refine_partition(models[0]).blocks == (frozenset("abc"), frozenset("d"))
    for m in models:
        assert refine_partition(m).blocks == _reference_partition(m)
