import re

import numpy as np
import pytest

from machina import catalog, quantum
from machina.cli import main
from machina.catalog import (
    biased_coin,
    biased_coin_split,
    catalog_names,
    d3,
    d4,
    even_odd,
    even_odd_split,
    get_process,
    mbw3,
    mbw4,
    q3,
    q4,
)
from machina.distributions import MajorizationVerdict, compare
from machina.hmm import FinitePredictiveModel, stationary, word_distribution
from machina.minimize import is_epsilon_machine, merge
from machina.quantum import (
    PureStateQuantumModel,
    completeness_residual,
    memory_spectrum,
)

CLASSICAL = [mbw3, mbw4, lambda: even_odd(0.5), lambda: even_odd_split(0.5),
             lambda: biased_coin(0.6), lambda: biased_coin_split(0.6, "b"),
             lambda: biased_coin_split(0.6, "c")]
QUANTUM = [d3, d4, q3, q4]


@pytest.mark.parametrize("factory", CLASSICAL)
def test_classical_entries_validate(factory):
    assert isinstance(factory(), FinitePredictiveModel)


@pytest.mark.parametrize("factory", QUANTUM)
def test_quantum_entries_validate(factory):
    q = factory()
    assert isinstance(q, PureStateQuantumModel)
    assert completeness_residual(q) < 1e-9


def test_explicit_qubit_models_are_exactly_complete():
    assert completeness_residual(d3()) < 1e-12
    assert completeness_residual(d4()) < 1e-12


# -------------------------------------------------------------- biased coin

def test_biased_coin_basics():
    coin = biased_coin(0.6)
    assert np.allclose(stationary(coin).probs, [1.0])
    assert coin.prob("A", "1") == 0.6


def test_coin_split_stationaries():
    assert np.allclose(stationary(biased_coin_split(0.6, "b")).probs, [0.6, 0.4])
    assert np.allclose(stationary(biased_coin_split(0.6, "c")).probs, [0.5, 0.5])


@pytest.mark.parametrize("variant", ["b", "c"])
def test_coin_splits_generate_the_coin(variant):
    coin = biased_coin(0.37)
    alt = biased_coin_split(0.37, variant)
    for length in range(0, 9):
        wd_coin = word_distribution(coin, length)
        wd_alt = word_distribution(alt, length)
        for w in set(wd_coin) | set(wd_alt):
            assert wd_alt.get(w, 0.0) == pytest.approx(wd_coin.get(w, 0.0), abs=1e-12)


def test_coin_split_merges_to_one_state():
    assert len(merge(biased_coin_split(0.8, "b")).states) == 1


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        biased_coin(0.0)
    with pytest.raises(ValueError):
        biased_coin_split(0.5, "z")


# ----------------------------------------------------------------- even-odd

def _complete_blocks_ok(word: str) -> bool:
    for m in re.finditer(r"1+", word):
        if m.start() > 0 and m.end() < len(word) and len(m.group()) % 2 == 0:
            return False
    for m in re.finditer(r"0+", word):
        if m.start() > 0 and m.end() < len(word) and len(m.group()) % 2 == 1:
            return False
    return True


def test_even_odd_is_minimal():
    assert is_epsilon_machine(even_odd(0.5))
    assert is_epsilon_machine(even_odd(0.3))


def test_even_odd_grammar_on_enumerated_words():
    table = word_distribution(even_odd(0.5), 10)
    assert table  # nonempty
    for word, p in table.items():
        assert p > 0
        assert _complete_blocks_ok("".join(word)), word


def test_grammar_violations_have_zero_probability():
    table = word_distribution(even_odd(0.5), 4)
    words = {"".join(w) for w in table}
    assert "0110" not in words  # complete even 1-run
    assert "1010" not in words  # complete odd 0-run


def test_even_odd_split_merges_back():
    merged = merge(even_odd_split(0.5))
    assert len(merged.states) == 4


def test_even_odd_split_word_equality():
    eo = even_odd(0.5)
    split = even_odd_split(0.5)
    for length in range(1, 9):
        wd_a = word_distribution(eo, length)
        wd_b = word_distribution(split, length)
        for w in set(wd_a) | set(wd_b):
            assert wd_a.get(w, 0.0) == pytest.approx(wd_b.get(w, 0.0), abs=1e-12)


def test_even_odd_split_strictly_majorized():
    verdict = compare(stationary(even_odd(0.5)), stationary(even_odd_split(0.5)))
    assert verdict is MajorizationVerdict.STRICTLY_MAJORIZES


# -------------------------------------------------------------- cyclic chains

def test_mbw3_transition_magnitudes():
    m = mbw3()
    for s in m.states:
        for x in m.alphabet:
            assert m.prob(s, x) == pytest.approx(2 / 3 if s == x else 1 / 6)
            assert m.successor(s, x) == x


def test_mbw4_rows():
    m = mbw4()
    assert m.prob("A", "A") == 0.5
    assert m.prob("A", "C") == 0.25
    assert m.prob("A", "B") == 0.0
    assert m.prob("C", "A") == 0.25
    assert m.prob("C", "D") == 0.0


@pytest.mark.parametrize("factory", [mbw3, mbw4])
def test_chains_are_minimal(factory):
    assert is_epsilon_machine(factory())


# ------------------------------------------------------------ quantum models

def test_q3_gram_offdiagonal():
    g = q3().states.conj().T @ q3().states
    off = g[~np.eye(3, dtype=bool)]
    assert np.allclose(np.real(off), 5 / 6, atol=1e-9)


def test_qubit_model_spectra():
    assert np.allclose(memory_spectrum(d3()).probs, [0.5, 0.5, 0.0], atol=1e-12)
    assert np.allclose(memory_spectrum(d4()).probs, [0.5, 0.5, 0.0, 0.0], atol=1e-12)


# ------------------------------------------------------------ figure verdicts

def test_machine_majorizes_coin_presentation():
    verdict = compare(
        stationary(biased_coin(0.6)), stationary(biased_coin_split(0.6, "b"))
    )
    assert verdict is MajorizationVerdict.STRICTLY_MAJORIZES


def test_spectrum_majorizes_four_state_stationary():
    verdict = compare(memory_spectrum(q4()), stationary(mbw4()))
    assert verdict is MajorizationVerdict.STRICTLY_MAJORIZES


def test_qubit_models_incomparable_with_overlap_models():
    assert compare(memory_spectrum(d4()), memory_spectrum(q4())) is MajorizationVerdict.INCOMPARABLE
    assert compare(memory_spectrum(d3()), memory_spectrum(q3())) is MajorizationVerdict.INCOMPARABLE


# ----------------------------------------------------------------- registry

def test_get_process_by_name():
    assert isinstance(get_process("mbw3"), FinitePredictiveModel)
    assert isinstance(get_process("q4"), PureStateQuantumModel)


def test_get_process_with_parameters():
    coin = get_process("biased_coin:0.6")
    assert coin.prob("A", "1") == 0.6
    alt = get_process("biased_coin_split:0.6:c")
    assert np.allclose(stationary(alt).probs, [0.5, 0.5])


def test_get_process_errors():
    with pytest.raises(ValueError):
        get_process("nonesuch")
    with pytest.raises(ValueError):
        get_process("biased_coin:zardoz")
    with pytest.raises(ValueError):
        get_process("mbw3:1:2")


def test_catalog_names_are_sorted():
    names = catalog_names()
    assert list(names) == sorted(names)
    assert "mbw3" in names and "q4" in names


def test_overlap_models_are_built_once_per_process(monkeypatch, capsys):
    calls = []
    solve = quantum.gram_fixed_point

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(quantum, "gram_fixed_point", counting)
    catalog.q3.cache_clear()
    assert main(["lorenz", "q3", "q3"]) == 0
    assert len(calls) == 1
    assert get_process("q3") is get_process("q3")
