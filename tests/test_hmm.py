import math

import numpy as np
import pytest

from machina.catalog import biased_coin, d3, even_odd, even_odd_split, mbw3, mbw4, q3, q4
from machina.errors import (
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
from machina.hmm import (
    FinitePredictiveModel,
    models_equal,
    parse_model,
    renyi_memory,
    serialize_model,
    split_state,
    stationary,
    word_distribution,
    word_probability,
)

BIASED_COIN_FILE = """\
# one-state source, bias 0.6
model: classical
alphabet: 0 1
states: A
t: A 0 0.4 A
t: A 1 0.6 A
"""

MBW4_FILE = """\
model: classical
alphabet: A B C D
states: A B C D
t: A A 1/2 A
t: A C 1/4 C
t: A D 1/4 D
t: B B 1/2 B
t: B C 1/4 C
t: B D 1/4 D
t: C C 1/2 C
t: C A 1/4 A
t: C B 1/4 B
t: D D 1/2 D
t: D A 1/4 A
t: D B 1/4 B
"""


# ---------------------------------------------------------------- parsing

def test_parse_biased_coin():
    m = parse_model(BIASED_COIN_FILE)
    assert m.states == ("A",)
    assert m.prob("A", "1") == 0.6


def test_parse_fractions_and_stationary():
    m = parse_model(MBW4_FILE)
    assert np.allclose(stationary(m).probs, [0.25] * 4)


def test_parse_rejects_bad_row_sum():
    text = BIASED_COIN_FILE.replace("0.6", "0.5")
    with pytest.raises(NotStochasticError):
        parse_model(text)


def test_parse_unknown_state_has_line_number():
    text = BIASED_COIN_FILE + "t: Z 0 1.0 A\n"
    with pytest.raises(UnknownStateError, match="line 7"):
        parse_model(text)


def test_parse_unknown_symbol():
    text = BIASED_COIN_FILE.replace("t: A 1 0.6 A", "t: A 2 0.6 A")
    with pytest.raises(UnknownSymbolError):
        parse_model(text)


def test_parse_duplicate_transition():
    text = BIASED_COIN_FILE + "t: A 1 0.6 A\n"
    with pytest.raises(DuplicateTransitionError):
        parse_model(text)


def test_parse_two_successors_is_not_unifilar():
    text = (
        "model: classical\nalphabet: 0\nstates: A B\n"
        "t: A 0 0.5 A\nt: A 0 0.5 B\nt: B 0 1.0 A\n"
    )
    with pytest.raises(NotUnifilarError):
        parse_model(text)


def test_parse_garbage():
    with pytest.raises(ModelFormatError):
        parse_model("not a model at all\n")


def test_parse_transition_before_headers():
    with pytest.raises(ModelFormatError, match="line 1"):
        parse_model("t: A 0 1.0 A\nmodel: classical\n")


def test_unreachable_state_rejected():
    text = "model: classical\nalphabet: 0\nstates: A B\nt: A 0 1.0 A\nt: B 0 1.0 A\n"
    with pytest.raises(NotIrreducibleError):
        parse_model(text)


@pytest.mark.parametrize(
    "trans",
    [
        # Z and M cannot be reached from A
        {("A", "0"): (1.0, "A"), ("Z", "0"): (1.0, "A"), ("M", "0"): (1.0, "A")},
        # Z and M are reached from A but cannot return to it
        {
            ("A", "0"): (0.5, "Z"),
            ("A", "1"): (0.5, "M"),
            ("Z", "0"): (1.0, "Z"),
            ("M", "0"): (1.0, "M"),
        },
    ],
    ids=["unreachable", "no-return"],
)
def test_irreducibility_error_names_smallest_stranded_state(trans):
    with pytest.raises(NotIrreducibleError) as info:
        FinitePredictiveModel(("A", "Z", "M"), ("0", "1"), trans)
    assert str(info.value) == "positive-transition graph not strongly connected (e.g. 'M')"


def _two_state(last_edge):
    # A -0-> B, B -0-> A, plus one more edge out of A on symbol 1
    trans = {("A", "0"): (1.0 - last_edge[0], "B"), ("A", "1"): last_edge, ("B", "0"): (1.0, "A")}
    return FinitePredictiveModel(("A", "B"), ("0", "1"), trans)


def test_models_equal_compares_successors_on_live_edges_only():
    assert not models_equal(_two_state((0.5, "A")), _two_state((0.5, "B")))
    assert models_equal(_two_state((0.0, "A")), _two_state((0.0, "B")))
    assert not models_equal(_two_state((0.0, "A")), _two_state((0.5, "A")))


def test_serialize_round_trip_structural():
    for m in (mbw3(), mbw4(), even_odd(0.3), biased_coin(0.6)):
        again = parse_model(serialize_model(m))
        assert models_equal(m, again)


# -------------------------------------------------------------- stationary

def test_stationary_uniform_on_cyclic_chains():
    assert np.allclose(stationary(mbw4()).probs, [1 / 4] * 4, atol=1e-12)
    assert np.allclose(stationary(mbw3()).probs, [1 / 3] * 3, atol=1e-12)


def test_stationary_single_state():
    assert np.allclose(stationary(biased_coin(0.7)).probs, [1.0])


def test_stationary_even_odd():
    # balance equations give (1, p, 1, 1) / (3 + p)
    p = 0.3
    pi = stationary(even_odd(p)).probs
    assert np.allclose(pi, np.array([1, p, 1, 1]) / (3 + p), atol=1e-12)


@pytest.mark.parametrize(
    "perturb", [lambda pi: pi + np.eye(len(pi))[0] * 1e-6, np.negative], ids=["residual", "sign"]
)
def test_stationary_raises_when_the_direct_solve_misses(monkeypatch, perturb):
    # a residual above EIG_TOL, or an entry below -EIG_TOL (-pi has residual 0)
    solve = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: (perturb(solve(*a, **k)[0]),))
    with pytest.raises(NoConvergenceError, match="stationary solve missed"):
        stationary(mbw4())


# ------------------------------------------------------------- word measure

def test_word_probability_iid():
    assert word_probability(biased_coin(0.6), "11") == pytest.approx(0.36, abs=1e-12)


def test_word_probability_empty_word():
    assert word_probability(mbw3(), "") == pytest.approx(1.0)


def test_word_probability_cyclic_chain():
    # sum_x pi_x P(A|x) P(A|A) with uniform pi = 2/9
    assert word_probability(mbw3(), "AA") == pytest.approx(2 / 9, abs=1e-12)


def test_word_probability_from_state():
    assert biased_coin(0.6).linear_rep("A").probability("1") == pytest.approx(0.6)
    with pytest.raises(UnknownStateError):
        biased_coin(0.6).linear_rep("Z")


def test_word_probability_unknown_symbol():
    with pytest.raises(UnknownSymbolError):
        word_probability(biased_coin(0.6), "12")


def test_word_distribution_rejects_negative_length():
    with pytest.raises(ValueError):
        word_distribution(biased_coin(0.6), -1)


@pytest.mark.parametrize(
    "model", [mbw3(), mbw4(), even_odd(0.5), biased_coin(0.6), d3(), q3(), q4()]
)
def test_word_measure_sums_to_one(model):
    for length in range(1, 7):
        total = sum(word_distribution(model, length).values())
        assert total == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("model", [mbw4(), even_odd(0.3), q4()])
def test_word_measure_shift_invariant(model):
    # stationarity: P(w) equals the total probability of x+w over symbols x
    for length in range(1, 6):
        by_suffix = {}
        for word, p in word_distribution(model, length + 1).items():
            suffix = word[1:]
            by_suffix[suffix] = by_suffix.get(suffix, 0.0) + p
        base = word_distribution(model, length)
        keys = set(base) | set(by_suffix)
        for w in keys:
            assert by_suffix.get(w, 0.0) == pytest.approx(base.get(w, 0.0), abs=1e-9)


def test_renyi_memory_values():
    assert renyi_memory(mbw4(), 1) == pytest.approx(2.0, abs=1e-12)
    assert renyi_memory(mbw3(), 1) == pytest.approx(math.log2(3), abs=1e-12)
    assert renyi_memory(biased_coin(0.42), math.inf) == pytest.approx(0.0)


# ----------------------------------------------------------------- splitting

def test_split_biased_coin_alternating_by_symbol():
    coin = biased_coin(0.6)
    split = split_state(coin, "A", 2, {("A", "1"): 0, ("A", "0"): 1})
    assert len(split.states) == 2
    for length in range(0, 9):
        wd_coin = word_distribution(coin, length)
        wd_split = word_distribution(split, length)
        for w in set(wd_coin) | set(wd_split):
            assert wd_split.get(w, 0.0) == pytest.approx(wd_coin.get(w, 0.0), abs=1e-12)


def test_split_even_odd_reproduces_catalog_variant():
    split = split_state(
        even_odd(0.5), "C", 2, {("A", "0"): 0, ("D", "0"): 1}, names=("E", "F")
    )
    assert models_equal(split, even_odd_split(0.5))


def test_split_k1_is_identity():
    m = mbw3()
    assert split_state(m, "A", 1) is m


def test_split_unknown_state():
    with pytest.raises(UnknownStateError):
        split_state(mbw3(), "Z", 2, {})


def test_split_requires_surjective_router():
    with pytest.raises(UnreachableCopyError):
        split_state(biased_coin(0.6), "A", 2, {("A", "1"): 0, ("A", "0"): 0})


def test_split_router_must_cover_incoming():
    with pytest.raises(UnreachableCopyError):
        split_state(biased_coin(0.6), "A", 2, {("A", "1"): 0})


def test_split_preserves_stationary_mass():
    m = even_odd(0.5)
    split = split_state(m, "C", 2, {("A", "0"): 0, ("D", "0"): 1}, names=("E", "F"))
    pi = stationary(m)
    pi_split = stationary(split)
    mass_c = pi.probs[m.states.index("C")]
    mass_copies = sum(
        pi_split.probs[split.states.index(name)] for name in ("E", "F")
    )
    assert mass_copies == pytest.approx(mass_c, abs=1e-12)


def test_index_view_matches_transition_table():
    # a sub-tolerance edge and an explicit zero still appear in the arrays
    trans = {
        ("A", "0"): (1.0 - 1e-13, "B"),
        ("A", "1"): (1e-13, "A"),
        ("B", "0"): (1.0, "A"),
        ("B", "1"): (0.0, "B"),
    }
    for m in (FinitePredictiveModel(("A", "B"), ("0", "1"), trans), even_odd_split(0.5), mbw4()):
        idx = {s: i for i, s in enumerate(m.states)}
        for i, s in enumerate(m.states):
            for j, x in enumerate(m.alphabet):
                p, succ = m.trans.get((s, x), (0.0, None))
                assert m.probs[i, j] == p
                assert m.succ[i, j] == (-1 if succ is None else idx[succ])
        total = np.zeros((len(m.states), len(m.states)))
        for x in m.alphabet:
            ref = np.zeros((len(m.states), len(m.states)))
            for (s, y), (p, succ) in m.trans.items():
                if y == x:
                    ref[idx[s], idx[succ]] = p
            assert np.array_equal(m.symbol_matrix(x), ref)
            total += ref  # summed in alphabet order, as total_matrix sums
        assert np.array_equal(m.total_matrix(), total)
        with pytest.raises(ValueError):
            m.probs[0, 0] = 0.5


# ---------------------------------------------------------------- validation

def test_model_requires_row_stochastic():
    with pytest.raises(NotStochasticError):
        FinitePredictiveModel(("A",), ("0", "1"), {("A", "0"): (0.4, "A")})


def test_model_rejects_undeclared_labels():
    with pytest.raises(UnknownStateError):
        FinitePredictiveModel(("A",), ("0",), {("A", "0"): (1.0, "B")})
