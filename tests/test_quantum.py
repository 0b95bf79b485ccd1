import copy
import itertools
import math
import pickle
import re

import numpy as np
import pytest

from machina import quantum
from machina.catalog import (
    biased_coin,
    biased_coin_split,
    d3,
    d4,
    even_odd,
    mbw3,
    mbw4,
    q3,
    q4,
)
from machina.cli import main
from machina.distributions import MajorizationVerdict
from machina.errors import (
    AmbiguousSuccessorError,
    CompletenessViolationError,
    DimensionMismatchError,
    InvalidModelError,
    ModelFormatError,
    NotHermitianError,
    NotPSDError,
    NotUnifilarError,
    UnknownSymbolError,
)
from machina.hmm import (
    FinitePredictiveModel,
    models_equal,
    renyi_memory,
    stationary,
    word_distribution,
    word_probability,
)
from machina.minimize import is_epsilon_machine, merge
from machina.quantum import (
    PureStateQuantumModel,
    build_qmachine,
    classical_equivalent,
    completeness_residual,
    embed_states,
    gram_fixed_point,
    memory_spectrum,
    parse_quantum_model,
    quantum_models_equal,
    quantum_word_distribution,
    serialize_quantum_model,
    spectrum,
    stationary_density,
    strong_advantage_report,
)
from machina.tolerances import EQUAL_TOL
from random_models import random_unifilar_model

# overlaps forced by the recursion on the cyclic chains
Q3_OFFDIAG = 5 / 6
Q4_PAIR = 0.5
Q4_CROSS = 1 / math.sqrt(2)


def _gram_of(q: PureStateQuantumModel) -> np.ndarray:
    return q.states.conj().T @ q.states


# -------------------------------------------------------- overlap recursion

def test_gram_fixed_point_three_state_chain():
    g = gram_fixed_point(mbw3())
    expected = np.full((3, 3), Q3_OFFDIAG)
    np.fill_diagonal(expected, 1.0)
    assert np.allclose(g, expected, atol=1e-12)


def test_gram_fixed_point_four_state_chain():
    g = gram_fixed_point(mbw4())
    expected = np.array(
        [
            [1.0, Q4_PAIR, Q4_CROSS, Q4_CROSS],
            [Q4_PAIR, 1.0, Q4_CROSS, Q4_CROSS],
            [Q4_CROSS, Q4_CROSS, 1.0, Q4_PAIR],
            [Q4_CROSS, Q4_CROSS, Q4_PAIR, 1.0],
        ]
    )
    assert np.allclose(g, expected, atol=1e-12)


def test_gram_fixed_point_single_state():
    assert np.allclose(gram_fixed_point(biased_coin(0.6)), [[1.0]])


def test_redundant_input_with_identity_gram_is_flagged_only_by_is_epsilon_machine():
    # B and C are equivalent, yet any G[B, C] solves its own equation, so the
    # fixed point from the identity stays there and the model reads off cleanly;
    # synthesis does not warn (UserWarning is an error under this suite)
    m = biased_coin_split(0.6, "c")
    assert not is_epsilon_machine(m)
    assert np.array_equal(gram_fixed_point(m), np.eye(2))
    assert len(classical_equivalent(build_qmachine(m)).states) == 2


# ---------------------------------------------------------------- embedding

def test_embed_three_state_overlaps():
    g = gram_fixed_point(mbw3())
    states, pinv = embed_states(g)
    assert states.shape == (3, 3)  # eigenvalues 8/3, 1/6, 1/6 all positive
    assert np.allclose(states.conj().T @ states, g, atol=1e-9)
    assert np.allclose(states @ pinv, np.eye(3), atol=1e-9)


def test_embed_identity_gram():
    states, pinv = embed_states(np.eye(4))
    assert states.shape == (4, 4)
    assert np.allclose(states.conj().T @ states, np.eye(4), atol=1e-12)
    assert np.allclose(states @ pinv, np.eye(4), atol=1e-12)


def test_embed_rank_two_gram():
    g = _gram_of(d3())
    states, pinv = embed_states(np.real(g))
    assert states.shape == (2, 3) and pinv.shape == (3, 2)
    assert np.allclose(states @ pinv, np.eye(2), atol=1e-9)


def test_embed_rejects_indefinite():
    with pytest.raises(NotPSDError):
        embed_states(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_embed_rejects_nonhermitian():
    with pytest.raises(NotHermitianError):
        embed_states(np.array([[1.0, 0.5], [0.0, 1.0]]))


# ----------------------------------------------------------------- synthesis

def test_build_qmachine_three_state_entropy():
    q = build_qmachine(mbw3())
    assert renyi_memory(q, 1) == pytest.approx(0.61, abs=0.005)


def test_build_qmachine_four_state_entropies():
    q = build_qmachine(mbw4())
    assert renyi_memory(q, 1) == pytest.approx(1.2, abs=0.01)
    assert renyi_memory(q, math.inf) == pytest.approx(0.46, abs=0.01)


@pytest.mark.parametrize("p", [1e-13, 1e-12, 0.0, -1e-13])
def test_a_transition_at_or_below_zero_tol_leaves_the_quantum_model_alone(p):
    base = even_odd(0.5)
    trans = dict(base.trans)
    trans[("B", "0")] = (p, "C")  # B emits only 1
    m = FinitePredictiveModel(base.states, base.alphabet, trans)
    assert np.array_equal(gram_fixed_point(m), gram_fixed_point(base))
    assert quantum_models_equal(build_qmachine(m), build_qmachine(base))


def test_build_qmachine_single_state_is_trivial():
    q = build_qmachine(biased_coin(0.6))
    assert q.dim == 1
    assert renyi_memory(q, 1) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("factory", [q3, q4, d3, d4])
def test_completeness_residual_tiny(factory):
    assert completeness_residual(factory()) < 1e-9


@pytest.mark.parametrize("factory", [q3, q4, d3, d4])
def test_channel_fixes_stationary_density(factory):
    q = factory()
    rho = stationary_density(q, stationary(classical_equivalent(q)))
    pushed = sum(q.kraus[x] @ rho @ q.kraus[x].conj().T for x in q.alphabet)
    assert np.max(np.abs(pushed - rho)) < 1e-8


def test_qmachine_gram_matches_prescription():
    np.testing.assert_allclose(_gram_of(q3()).real, gram_fixed_point(mbw3()), atol=1e-9)
    np.testing.assert_allclose(_gram_of(q4()).real, gram_fixed_point(mbw4()), atol=1e-9)


# -------------------------------------------------------- stationary objects

def test_stationary_density_is_maximally_mixed_for_qubit_models():
    for factory in (d3, d4):
        q = factory()
        rho = stationary_density(q, stationary(classical_equivalent(q)))
        assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)


def test_stationary_density_single_state():
    q = build_qmachine(biased_coin(0.5))
    rho = stationary_density(q, [1.0])
    assert np.allclose(rho, [[1.0]])


def test_stationary_density_dimension_check():
    with pytest.raises(DimensionMismatchError):
        stationary_density(d3(), [0.5, 0.5])


def test_spectrum_three_state_model():
    lam = memory_spectrum(q3())
    assert np.allclose(lam.probs, [8 / 9, 1 / 18, 1 / 18], atol=1e-9)


def test_spectrum_four_state_model():
    lam = memory_spectrum(q4())
    expected = np.array([1.5 + math.sqrt(2), 0.5, 0.5, 1.5 - math.sqrt(2)]) / 4
    assert np.allclose(lam.probs, expected, atol=1e-9)


def test_spectrum_pads_to_label_count():
    lam = memory_spectrum(d4())
    assert np.allclose(lam.probs, [0.5, 0.5, 0.0, 0.0], atol=1e-12)


def test_spectrum_of_maximally_mixed():
    lam = spectrum(np.eye(2) / 2, 2)
    assert np.allclose(lam.probs, [0.5, 0.5])


def test_spectrum_rejects_nonhermitian():
    with pytest.raises(NotHermitianError):
        spectrum(np.array([[0.5, 0.1], [0.0, 0.5]]), 2)


# --------------------------------------------------------------- entropies

def test_vn_renyi_qubit_models():
    assert renyi_memory(d3(), 1) == pytest.approx(1.0, abs=1e-9)
    assert renyi_memory(d4(), 1) == pytest.approx(1.0, abs=1e-9)
    assert renyi_memory(d4(), math.inf) == pytest.approx(1.0, abs=1e-9)


def test_vn_renyi_q3():
    assert renyi_memory(q3(), 1) == pytest.approx(0.6144, abs=0.005)


# ------------------------------------------------------- classical read-off

@pytest.mark.parametrize(
    "q_factory, m_factory",
    [(d3, mbw3), (d4, mbw4), (q3, mbw3), (q4, mbw4)],
)
def test_classical_equivalent_recovers_chain(q_factory, m_factory):
    assert models_equal(classical_equivalent(q_factory()), m_factory())


@pytest.mark.parametrize("factory", [mbw3, mbw4, lambda: even_odd(0.5), lambda: biased_coin(0.6)])
def test_round_trip_through_synthesis(factory):
    m = factory()
    assert models_equal(classical_equivalent(build_qmachine(m)), m)


def test_ambiguous_successor_detected():
    # two identical memory states make the image match twice
    states = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    kraus = {"0": np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)}
    q = PureStateQuantumModel(
        dim=2, labels=("A", "B"), states=states, alphabet=("0",), kraus=kraus
    )
    with pytest.raises(AmbiguousSuccessorError):
        classical_equivalent(q)


QUBIT_HEAD = "model: quantum\ndim: 2\nalphabet: 0\n"
HADAMARD_FILE = QUBIT_HEAD + (
    "state: A  (1,0) (0,0)\nstate: B  (0,0) (1,0)\n"
    "kraus: 0  (0.707106781187,0) (0.707106781187,0) / (0.707106781187,0) (-0.707106781187,0)\n"
)
TWIN_STATES_FILE = QUBIT_HEAD + (
    "state: A  (1,0) (0,0)\nstate: B  (1,0) (0,0)\nkraus: 0  (1,0) (0,0) / (0,0) (1,0)\n"
)


def test_qubit_validation_errors_and_their_exit_codes(tmp_path, capsys):
    leaves = "K['0'] maps state 'A' outside the state set (best overlap 0.707106781)"
    twins = "state 'A' under K['0']: 2 matching states"
    with pytest.raises(NotUnifilarError, match=re.escape(leaves)):
        parse_quantum_model(HADAMARD_FILE)
    with pytest.raises(AmbiguousSuccessorError, match=re.escape(twins)):
        classical_equivalent(parse_quantum_model(TWIN_STATES_FILE))
    hadamard, twin = tmp_path / "hadamard.qm", tmp_path / "twin.qm"
    hadamard.write_text(HADAMARD_FILE)
    twin.write_text(TWIN_STATES_FILE)
    assert main(["validate", str(hadamard)]) == 1
    assert leaves in capsys.readouterr().err
    assert main(["validate", str(twin)]) == 1
    assert capsys.readouterr() == ("", f"error: {twins}\n")
    assert main(["entropy", str(twin)]) == 1
    assert capsys.readouterr().err == f"error: {twins}\n"


def test_repeated_dim_line_is_a_parse_error(tmp_path, capsys):
    for second in ("dim: 3", "dim: 2"):
        text = HADAMARD_FILE.replace("alphabet:", second + "\nalphabet:")
        with pytest.raises(ModelFormatError, match="^line 3: duplicate dim line$"):
            parse_quantum_model(text)
        path = tmp_path / "twice.qm"
        path.write_text(text)
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == "error: line 3: duplicate dim line\n"


def test_kraus_images_are_walked_once_per_model(monkeypatch):
    calls = []
    walk = quantum._walk_images
    monkeypatch.setattr(quantum, "_walk_images", lambda q: calls.append(q) or walk(q))
    q = d3()
    memory_spectrum(q)
    strong_advantage_report(q)
    assert len(calls) == 1
    calls.clear()
    q = build_qmachine(merge(random_unifilar_model(np.random.default_rng(7), 24, 3)))
    strong_advantage_report(q)
    parse_quantum_model(serialize_quantum_model(q))
    assert len(calls) == 2


# -------------------------------------------------------------- word measure

def test_quantum_empty_word():
    assert word_probability(q3(), "") == pytest.approx(1.0, abs=1e-12)


def test_quantum_word_matches_classical_value():
    assert word_probability(q3(), "AA") == pytest.approx(2 / 9, abs=1e-9)


def _ring_qmachine(n: int = 40):
    """Quantum model of an n-state minimal ring machine; its dimension is n."""
    from machina.hmm import FinitePredictiveModel

    states = tuple(f"s{i}" for i in range(n))
    trans = {}
    for i, s in enumerate(states):
        p = 0.1 + 0.8 * i / (n - 1)
        trans[(s, "0")] = (p, states[(i + 1) % n])
        trans[(s, "1")] = (1 - p, states[(7 * i + 1) % n])
    q = build_qmachine(FinitePredictiveModel(states, ("0", "1"), trans))
    assert q.dim == n
    return q


@pytest.mark.parametrize("factory", [d3, d4, q3, q4, _ring_qmachine])
def test_word_probabilities_follow_kraus_evolution(factory):
    # reference: rho -> K rho K^dag one symbol at a time, then the trace
    q = factory()
    rho0 = stationary_density(q)
    expected = {}
    for length in (1, 2, 3):
        for word in itertools.product(q.alphabet, repeat=length):
            rho = rho0
            for x in word:
                rho = q.kraus[x] @ rho @ q.kraus[x].conj().T
            expected[word] = np.trace(rho).real
            assert word_probability(q, word) == expected[word]
    # enumeration keeps a word when it and all of its prefixes have positive probability
    kept = {
        w: p for w, p in expected.items()
        if len(w) == 3 and all(expected[w[:i]] > 0.0 for i in (1, 2, 3))
    }
    assert quantum_word_distribution(q, 3) == kept


@pytest.mark.parametrize("factory", [d3, d4, q3, q4])
def test_quantum_words_match_classical_equivalent(factory):
    q = factory()
    classical = classical_equivalent(q)
    for length in range(1, 5):
        quantum_table = quantum_word_distribution(q, length)
        classical_table = word_distribution(classical, length)
        keys = set(quantum_table) | set(classical_table)
        worst = max(
            abs(quantum_table.get(w, 0.0) - classical_table.get(w, 0.0)) for w in keys
        )
        assert worst < 1e-9


# ----------------------------------------------------------------- verdicts

@pytest.mark.parametrize("factory", [q3, q4, d3, d4])
def test_spectrum_majorizes_stationary(factory):
    report = strong_advantage_report(factory())
    assert report.verdict in (
        MajorizationVerdict.STRICTLY_MAJORIZES,
        MajorizationVerdict.EQUIVALENT,
    )
    for _, s_q, h_c in report.entropies:
        assert s_q <= h_c + 1e-9


@pytest.mark.parametrize("factory", [q3, q4, d3, d4])
def test_strong_advantage_report_compares_the_kept_distributions(factory):
    q = factory()
    report = strong_advantage_report(q)
    assert report.first is q.memory()
    assert report.second is classical_equivalent(q).memory()


def test_orthonormal_states_give_equivalent_verdict():
    # alternating emitter: states never share a (symbol, successor) pair, so
    # the overlap recursion fixes the identity and there is no advantage
    from machina.hmm import FinitePredictiveModel

    m = FinitePredictiveModel(
        ("P", "Q"), ("0", "1"), {("P", "0"): (1.0, "Q"), ("Q", "1"): (1.0, "P")}
    )
    q = build_qmachine(m)
    assert np.allclose(q.states.conj().T @ q.states, np.eye(2), atol=1e-12)
    report = strong_advantage_report(q)
    assert report.verdict is MajorizationVerdict.EQUIVALENT


# ---------------------------------------------------------------- file format

@pytest.mark.parametrize("factory", [d3, d4, q3, q4])
def test_quantum_file_round_trip(factory):
    q = factory()
    text = serialize_quantum_model(q)
    again = parse_quantum_model(text)
    assert quantum_models_equal(q, again)
    assert serialize_quantum_model(again) == text  # d3 and d4 carry -0 imaginary parts


def test_quantum_models_equal_is_absolute_within_equal_tol():
    # a phase of 5e-6 on the first basis vector moves a state entry by 5e-6,
    # which np.allclose's default rtol of 1e-5 would have forgiven
    q = d3()
    phase = np.diag([np.exp(5e-6j), 1.0])
    kraus = {x: phase @ k @ phase.conj().T for x, k in q.kraus.items()}
    turned = PureStateQuantumModel(q.dim, q.labels, phase @ q.states, q.alphabet, kraus)
    assert np.max(np.abs(turned.states - q.states)) == pytest.approx(5e-6)
    assert not quantum_models_equal(q, turned)
    assert quantum_models_equal(q, q)


SWAP_FILE = QUBIT_HEAD + (
    "state: A  (1,0) (0,0)\nstate: B  (0,0) (1,0)\nkraus: 0  (0,0) (1,0) / (1,0) (0,0)\n"
)


@pytest.mark.parametrize(
    "line, body, stray",
    [
        ("state: A", "(1,0)(0,0)", None),
        ("state: A", "( 1 , 0 ) (0,0)", None),
        ("kraus: 0", "(0,0) (2/2,0) / (1,0) (0/1,0)", None),
        ("state: A", "(1,0) (0,0) junk", "junk"),
        ("state: A", "(1,0,0) (0,0)", "(1,0,0)"),
        ("kraus: 0", "(0,0) (1,0) / (1,0) (0,0", "(0,0"),
        ("state: A", "1 0 0 0", "1 0 0 0"),
    ],
    ids=["adjacent", "blanks", "kraus-fraction", "trailing", "three-entries", "unterminated", "bare"],
)
def test_state_and_kraus_lines_share_one_pair_grammar(tmp_path, capsys, line, body, stray):
    lineno = 6 if line.startswith("kraus") else 4
    text = re.sub(f"^{line} .*$", f"{line}  {body}", SWAP_FILE, flags=re.M)
    path = tmp_path / "swap.qm"
    path.write_text(text)
    if stray is None:
        assert quantum_models_equal(parse_quantum_model(text), parse_quantum_model(SWAP_FILE))
        assert main(["validate", str(path)]) == 0
        return
    message = f"line {lineno}: expected '(re,im)' pairs, got stray text {stray!r}"
    with pytest.raises(ModelFormatError, match=f"^{re.escape(message)}$"):
        parse_quantum_model(text)
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_kraus_operator_for_an_undeclared_symbol_is_rejected():
    states = np.eye(2, dtype=complex)
    kraus = {"0": np.eye(2, dtype=complex), "Z": np.zeros((2, 2), dtype=complex)}
    with pytest.raises(UnknownSymbolError, match="^Kraus operator for undeclared symbol 'Z'$"):
        PureStateQuantumModel(dim=2, labels=("A", "B"), states=states, alphabet=("0",), kraus=kraus)


def test_a_zero_dimension_is_refused():
    with pytest.raises(InvalidModelError, match="^dimension must be positive$"):
        PureStateQuantumModel(0, (), np.zeros((0, 0)), ("a",), {"a": np.zeros((0, 0))})


def test_quantum_model_validation_rejects_incompleteness():
    states = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    kraus = {"0": 0.5 * np.eye(2, dtype=complex)}
    with pytest.raises(CompletenessViolationError):
        PureStateQuantumModel(
            dim=2, labels=("A", "B"), states=states, alphabet=("0",), kraus=kraus
        )


@pytest.mark.parametrize("excess, accepted", [(0.6, True), (1.5, False)])
def test_completeness_is_judged_by_the_two_norm(excess, accepted):
    # residual (excess * EQUAL_TOL) I in dim 4, whose Frobenius norm is twice that
    eps = excess * EQUAL_TOL
    kraus = {"0": np.sqrt(1 + eps) * np.eye(4, dtype=complex)}
    assert np.linalg.norm(kraus["0"].conj().T @ kraus["0"] - np.eye(4)) > EQUAL_TOL

    def build():
        return PureStateQuantumModel(4, tuple("ABCD"), np.eye(4), ("0",), kraus)

    if accepted:
        assert completeness_residual(build()) == pytest.approx(eps, rel=1e-5)
    else:
        with pytest.raises(CompletenessViolationError, match="^completeness residual 1.5e-09$"):
            build()


def test_transition_tables_are_read_only_and_copy_by_value():
    m, q = mbw3(), q3()
    with pytest.raises(TypeError):
        m.trans[("A", "A")] = (0.1, "B")
    with pytest.raises(TypeError):
        q.kraus["A"] = np.eye(q.dim)
    assert m.probs[0, 0] == pytest.approx(2 / 3)
    for again in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
        assert again is not m and models_equal(again, m)
    for again in (pickle.loads(pickle.dumps(q)), copy.deepcopy(q)):
        assert again is not q and quantum_models_equal(again, q)
