import math

import numpy as np
import pytest

from machina.catalog import d3, mbw3
from machina.distributions import MajorizationVerdict
from machina.errors import (
    CompletenessViolationError,
    SingularThetaError,
    UniquenessViolatedError,
    UnphysicalThetaError,
)
from machina.hmm import word_distribution
from machina.quantum import classical_equivalent, quantum_word_distribution
from machina.qubit_family import (
    analytic_residual,
    as_quantum_model,
    candidate,
    counterexample_report,
    frame_residual,
    sweep_csv,
    transition_magnitudes,
    uniqueness_sweep,
)

MAGNITUDE_TARGET = np.full((3, 3), 1 / 6) + np.eye(3) / 2


def _grid(n=1000):
    return np.linspace(math.pi / 3 + 1e-3, math.pi, n)


# ---------------------------------------------------------------- candidates

def test_endpoint_candidate_is_the_explicit_model():
    c = candidate(math.pi)
    assert c.alpha == pytest.approx(0.5, abs=1e-12)
    assert c.beta == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
    states = np.array(c.states).T
    assert np.allclose(states, d3().states, atol=1e-12)


def test_endpoint_gram_matches_explicit_model():
    states = np.array(candidate(math.pi).states).T
    gram_candidate = states.conj().T @ states
    gram_d3 = d3().states.conj().T @ d3().states
    assert np.max(np.abs(gram_candidate - gram_d3)) < 1e-12


def test_right_angle_candidate_overlap():
    assert candidate(math.pi / 2).alpha == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_unphysical_band_rejected():
    with pytest.raises(UnphysicalThetaError):
        candidate(0.1)
    with pytest.raises(UnphysicalThetaError):
        candidate(-1.0)


def test_band_edge_is_singular():
    with pytest.raises(SingularThetaError):
        candidate(math.pi / 3 + 1e-9)
    with pytest.raises(SingularThetaError):
        candidate(-(math.pi / 3) - 1e-8)


def test_theta_outside_range():
    for theta in (4.0, math.nan):
        with pytest.raises(ValueError):
            candidate(theta)


def test_array_input_checks_every_angle():
    with pytest.raises(UnphysicalThetaError, match="theta 0.1 "):
        candidate(np.array([2.0, 0.1]))
    with pytest.raises(ValueError, match="got nan"):
        candidate(np.array([2.0, np.nan]))
    with pytest.raises(ValueError, match="one-angle candidate"):
        as_quantum_model(candidate(np.array([3.0, math.pi])))


def test_phase_budget_sums_to_pi():
    for theta in (math.pi, 2.5, -2.0, 1.2, -math.pi):
        c = candidate(theta)
        assert c.phi1 + c.phi2 + c.phi3 == pytest.approx(math.pi, abs=1e-12)


@pytest.mark.parametrize("theta", [math.pi, 2 * math.pi / 3, -2.5, 1.3, -1.1])
def test_transition_magnitudes_everywhere(theta):
    table = transition_magnitudes(candidate(theta))
    assert np.max(np.abs(table - MAGNITUDE_TARGET)) < 1e-9


# ---------------------------------------------------------------- residuals

def test_residual_vanishes_only_at_endpoint():
    check = frame_residual(candidate(math.pi))
    assert check.residual < 1e-12
    assert check.analytic < 1e-12
    assert check.operator < 1e-12


def test_residual_value_at_two_thirds_pi():
    # csc^2(pi/3) = 4/3, so the closed form gives (10/3)/(8/3) - 1 = 1/4
    check = frame_residual(candidate(2 * math.pi / 3))
    assert check.residual == pytest.approx(0.25, abs=1e-9)
    assert check.analytic == pytest.approx(0.25, abs=1e-12)


def test_residual_matches_closed_form_on_grid():
    for theta in _grid(1000)[:-1]:
        check = frame_residual(candidate(float(theta)))
        assert abs(check.residual - check.analytic) < 1e-9


def test_operator_residual_sign_of_zero_agrees():
    for theta in _grid(500):
        check = frame_residual(candidate(float(theta)))
        assert (check.operator < 1e-9) == (check.analytic < 1e-9)


def test_residual_monotone_decreasing_toward_endpoint():
    values = [analytic_residual(float(t)) for t in _grid(400)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_negative_branch_mirrors_positive():
    for theta in (1.5, 2.0, 3.0):
        pos = frame_residual(candidate(theta))
        neg = frame_residual(candidate(-theta))
        assert pos.residual == pytest.approx(neg.residual, abs=1e-12)


# ------------------------------------------------------------- model checks

def test_endpoint_candidate_generates_the_chain():
    q = as_quantum_model(candidate(math.pi))
    assert q.dim == 2
    chain = mbw3()
    assert classical_equivalent(q).alphabet == chain.alphabet
    for length in range(1, 7):
        quantum_table = quantum_word_distribution(q, length)
        chain_table = word_distribution(chain, length)
        keys = set(quantum_table) | set(chain_table)
        worst = max(abs(quantum_table.get(w, 0.0) - chain_table.get(w, 0.0)) for w in keys)
        assert worst < 1e-9


def test_interior_candidate_is_not_a_model():
    with pytest.raises(CompletenessViolationError):
        as_quantum_model(candidate(2.0))


# ------------------------------------------------------------------- sweep

def test_sweep_finds_unique_zero():
    report = uniqueness_sweep(2000)
    assert report.passed
    assert len(report.zero_thetas) == 2
    for zero, target in zip(sorted(report.zero_thetas), (-math.pi, math.pi)):
        assert abs(zero - target) <= report.spacing


def test_sweep_rejects_small_grids():
    with pytest.raises(ValueError, match="^grid must have at least 100 points, got 50$"):
        uniqueness_sweep(50)
    for size in (150.5, 150.0):
        with pytest.raises(ValueError, match=f"^grid must be an integer, got {size}$"):
            uniqueness_sweep(size)


def test_sweep_csv_shape():
    report = uniqueness_sweep(200)
    text = sweep_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == "theta,matrix_residual,analytic_residual"
    assert len(lines) == 1 + 2 * 200


def test_sweep_residuals_positive_away_from_endpoints():
    report = uniqueness_sweep(500)
    away = np.abs(np.abs(report.thetas) - math.pi) > 0.01
    assert np.all(report.residuals[away] > 1e-5)


def test_spurious_interior_zero_is_detected(monkeypatch):
    import machina.qubit_family as qf

    real = qf.frame_residual

    def leaky(c):
        check = real(c)
        return qf.CompletenessCheck(
            residual=np.where(np.abs(c.theta - 2.0) < 0.01, 0.0, check.residual),
            analytic=check.analytic,
            offdiag=check.offdiag,
            operator=check.operator,
        )

    monkeypatch.setattr(qf, "frame_residual", leaky)
    with pytest.raises(UniquenessViolatedError):
        qf.uniqueness_sweep(500)


# ---------------------------------------------------------- counterexample

def test_counterexample_report_passes():
    report = counterexample_report(1000)
    assert report.passed
    assert report.spectrum_verdict is MajorizationVerdict.INCOMPARABLE
    assert report.s1_d3 == pytest.approx(1.0, abs=1e-9)
    assert report.s0_d3 == pytest.approx(1.0, abs=1e-9)
    assert report.s1_q3 == pytest.approx(0.6144, abs=0.005)
    assert report.s0_q3 == pytest.approx(math.log2(3), abs=1e-9)
    assert report.steps[-1].startswith("no strongly minimal")
