import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from machina import cli, minimize
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
    assert np.allclose(report.first.probs, [1.0])
    assert np.allclose(np.sort(report.second.probs), [0.4, 0.6])
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


def test_a_model_is_refined_once(monkeypatch, capsys):
    calls = []
    refine = minimize._refine

    def counting(m):
        calls.append(m)
        return refine(m)

    monkeypatch.setattr(minimize, "_refine", counting)
    # the command checks minimality, and the overlap solve checks it again
    assert cli.main(["qmachine", "--process", "mbw3"]) == 0
    assert len(calls) == 1
    model = even_odd_split(0.5)
    part = refine_partition(model)
    machine = merge(model)
    assert len(calls) == 2 and calls[-1] is model
    assert refine_partition(model) is part and not is_epsilon_machine(model)
    assert len(calls) == 2
    assert len(machine.states) == len(part.blocks) == 4
    refine_partition(even_odd_split(0.5))  # another instance is refined on its own
    assert len(calls) == 3


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


def _pairwise_labels(rows, tol=EQUAL_TOL):
    """Union-find over every pair of rows within tol, numbered by first appearance."""
    parent = list(range(len(rows)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if all(abs(a - b) <= tol for a, b in zip(rows[i], rows[j])):
                parent[find(i)] = find(j)
    number: dict = {}
    return [number.setdefault(find(i), len(number)) for i in range(len(rows))]


def _reference_partition(m, tol=EQUAL_TOL):
    """Pairwise union-find over emission rows, then signature refinement by state name."""
    rows = [[m.prob(s, x) for x in m.alphabet] for s in m.states]
    labels = dict(zip(m.states, _pairwise_labels(rows, tol)))
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


# steps of 0.4e-9 let chains a~b~c cross EQUAL_TOL, and never land on it exactly
JITTER = (0.0, 0.4e-9, -0.4e-9, 0.8e-9, 1.2e-9)


@st.composite
def near_tie_tables(draw):
    k = draw(st.integers(1, 4))
    entries = st.sampled_from((0.0, 0.25, 0.5, 1.0))
    base = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=12))
    size = len(picks) * k
    jitter = draw(st.lists(st.sampled_from(JITTER), min_size=size, max_size=size))
    return np.array([base[b] for b in picks]) + np.reshape(jitter, (len(picks), k))


@hypothesis.settings(derandomize=True, deadline=None)
@hypothesis.given(near_tie_tables())
@hypothesis.example(np.array([[0.5, 0.5]]))  # n = 1
@hypothesis.example(np.array([[0.3], [0.3 + 0.8e-9], [0.3], [0.3 + 1.6e-9]]))  # k = 1, a chain
@hypothesis.example(np.array([[0.2, 0.8], [0.5, 0.5], [0.2, 0.8], [0.5, 0.5]]))  # duplicates
def test_group_by_emissions_is_the_pairwise_union(probs):
    assert minimize._group_by_emissions(probs).tolist() == _pairwise_labels(probs.tolist())


def _lift(rng, m, copies=2):
    """Copy c of s moves on x to copy perm[s, x](c) of the successor; states shuffled.

    The constructor checks that the lift is irreducible.
    """
    name = "{}.{}".format
    trans = {}
    for (s, x), (p, t) in m.trans.items():
        perm = rng.permutation(copies)
        for c in range(copies):
            trans[(name(s, c), x)] = (p, name(t, perm[c]))
    states = [name(s, c) for s in m.states for c in range(copies)]
    return FinitePredictiveModel(tuple(rng.permutation(states)), m.alphabet, trans)


def test_refine_a_400_state_lift_matches_reference():
    rng = np.random.default_rng(400)
    machine = merge(random_unifilar_model(rng, 200, 3))
    assert len(machine.states) == 200
    lift = _lift(rng, machine)
    part = refine_partition(lift)
    assert len(part.blocks) == 200
    assert part.blocks == _reference_partition(lift)
    assert canonical_encoding(merge(lift)) == canonical_encoding(machine)


def test_refine_matches_reference_when_every_state_shares_its_first_entry():
    # one run over the whole table: the grouping falls back to every pair in it
    rng = np.random.default_rng(9)
    n = 40
    states = tuple(f"s{i}" for i in range(n))
    ones = 0.1 * rng.integers(1, 4, size=n) + rng.choice(JITTER, size=n)
    trans = {}
    for i, s in enumerate(states):
        trans[(s, "0")] = (0.5, states[(i + 1) % n])
        trans[(s, "1")] = (float(ones[i]), states[int(rng.integers(n))])
        trans[(s, "2")] = (0.5 - float(ones[i]), states[int(rng.integers(n))])
    machine = merge(FinitePredictiveModel(states, ("0", "1", "2"), trans))
    lift = _lift(rng, machine)
    assert np.ptp(lift.probs[:, 0]) == 0.0
    labels = minimize._group_by_emissions(lift.probs)
    assert labels.tolist() == _pairwise_labels(lift.probs.tolist())
    part = refine_partition(lift)
    assert len(part.blocks) == len(machine.states)
    assert part.blocks == _reference_partition(lift)


def test_partition_spread_shows_the_chain():
    spread = refine_partition(_chained_model()).spread
    assert spread > EQUAL_TOL
    assert spread == pytest.approx(1.6e-9, rel=1e-6)
    assert refine_partition(_lift(np.random.default_rng(1), mbw4())).spread == 0.0
    assert refine_partition(mbw3()).spread == 0.0
