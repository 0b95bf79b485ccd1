"""Exhaustive check that the three-state cyclic chain has a unique qubit model.

After gauge fixing, every two-dimensional pure-state candidate for the
chain is parametrized by one phase angle theta in [-pi, -pi/3] or
[pi/3, pi]: the memory vectors are

    eta_A = |0>,  eta_B = a|0> + b|1>,  eta_C = a|0> + e^{i theta} b|1>,

with a = |csc(theta/2)| / 2 and b = sqrt(1 - a^2), and the dual vectors are
forced by the required transition amplitudes together with the phase budget
phi1 + phi2 + phi3 = pi.  Every candidate reproduces the per-step
transition probabilities exactly; what fails away from theta = +-pi is
completeness of the dual frame.  The witness of that failure is the
weight the duals place on |1>,

    sum_x |<eps_x|1>|^2 = (2 + csc^2(theta/2)) / (4 - csc^2(theta/2)),

which equals one only at theta = +-pi.  The frame also picks up an
off-diagonal defect sum_x <0|eps_x><eps_x|1> away from +-pi; both are
reported, and both vanish only at the single physical point, which is the
explicit model d3.

The family is written once, on arrays: ``candidate`` takes one angle or an
array of angles, and every function below works over the leading angle
axes, so a spot check at one angle runs the same code as the sweep.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .catalog import d3, q3
from .distributions import MajorizationVerdict, _significant, compare, renyi_entropy
from .errors import (
    MachinaError,
    SingularThetaError,
    UniquenessViolatedError,
    UnphysicalThetaError,
)
from .quantum import PureStateQuantumModel, memory_spectrum
from .tolerances import EQUAL_TOL, SINGULAR_MARGIN, ZERO_THRESHOLD

PHYSICAL_MIN = math.pi / 3.0
SWEEP_OFFSET = 1e-3

_STAY = math.sqrt(2.0 / 3.0)
_HOP = 1.0 / math.sqrt(6.0)
_MAGNITUDES = np.full((3, 3), 1.0 / 6.0) + np.eye(3) / 2.0
_BLOCK = 256  # angles per sweep step; bounds the sweep's temporary arrays


@dataclass(frozen=True, eq=False)
class CandidateModel2D:
    """Gauge-fixed qubit candidates; every field leads with the shape of ``theta``."""

    theta: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray
    phi3: np.ndarray
    states: np.ndarray  # ...x3x2: eta_A, eta_B, eta_C
    duals: np.ndarray   # ...x3x2: (<eps_x|0>, <eps_x|1>) per x


@dataclass(frozen=True, eq=False)
class CompletenessCheck:
    """How far the dual frame is from resolving the identity, per angle.

    ``residual`` is the diagonal defect max_i |(M - I)_{ii}| of
    M = sum_x |eps_x><eps_x|; it coincides with ``analytic`` (the closed
    form above minus one) to machine precision.  ``offdiag`` is |M_01| and
    ``operator`` the induced infinity norm of M - I; all of them are zero
    exactly when the candidate is a valid model.
    """

    residual: np.ndarray
    analytic: np.ndarray
    offdiag: np.ndarray
    operator: np.ndarray


def _first(mask: np.ndarray, theta: np.ndarray) -> float | None:
    hits = np.flatnonzero(mask)
    return float(theta.flat[hits[0]]) if hits.size else None


def candidate(theta: float | np.ndarray) -> CandidateModel2D:
    """Build the candidates at phase angle(s) ``theta``, a float or an array.

    Raises ValueError outside [-pi, pi] (NaN included), UnphysicalThetaError
    inside (-pi/3, pi/3) where the overlap parameter would exceed one, and
    SingularThetaError within 1e-6 of the band edge where beta vanishes and
    the duals blow up; each names the first offending angle.
    """
    theta = np.asarray(theta, dtype=float)
    if (bad := _first(~(np.abs(theta) <= math.pi), theta)) is not None:
        raise ValueError(f"theta must lie in [-pi, pi], got {bad}")
    if (bad := _first(np.abs(theta) < PHYSICAL_MIN, theta)) is not None:
        raise UnphysicalThetaError(
            f"theta {bad:.6g} gives overlap parameter > 1; need |theta| >= pi/3"
        )
    if (bad := _first(np.abs(theta) - PHYSICAL_MIN < SINGULAR_MARGIN, theta)) is not None:
        raise SingularThetaError(f"theta {bad:.6g} too close to the band edge")
    alpha = 0.5 * np.abs(1.0 / np.sin(theta / 2.0))
    beta = np.sqrt(1.0 - alpha * alpha)
    phi2 = theta
    phi3 = (-theta + np.copysign(math.pi, theta)) / 2.0
    phi1 = math.pi - phi2 - phi3
    states = np.zeros(theta.shape + (3, 2), dtype=complex)
    states[..., 0, 0] = 1.0
    states[..., 1:, 0] = alpha[..., None]
    states[..., 1, 1] = beta
    states[..., 2, 1] = np.exp(1j * theta) * beta
    duals = np.empty_like(states)
    duals[..., 0, 0] = _STAY
    duals[..., 0, 1] = (_STAY / beta) * (0.5 * np.exp(1j * phi1) - alpha)
    duals[..., 1, 0] = _HOP * np.exp(-1j * phi1)
    duals[..., 1, 1] = (_STAY / beta) * (1.0 - 0.5 * alpha * np.exp(-1j * phi1))
    duals[..., 2, 0] = _HOP * np.exp(1j * phi3)
    duals[..., 2, 1] = (_STAY / (2.0 * beta)) * (np.exp(-1j * phi2) - alpha * np.exp(1j * phi3))
    model = CandidateModel2D(
        theta=theta,
        alpha=alpha,
        beta=beta,
        phi1=phi1,
        phi2=phi2,
        phi3=phi3,
        states=states,
        duals=duals,
    )
    worst = np.max(np.abs(transition_magnitudes(model) - _MAGNITUDES))
    if worst > EQUAL_TOL:
        raise MachinaError(f"internal: transition magnitudes off by {worst:.3g}")
    return model


def transition_magnitudes(c: CandidateModel2D) -> np.ndarray:
    """|<eps_x|eta_y>|^2 tables (...x3x3); 2/3 on the diagonal, 1/6 off, for every theta."""
    amplitudes = (c.duals[..., :, None, :] * c.states[..., None, :, :]).sum(axis=-1)
    return np.abs(amplitudes) ** 2


def completeness_matrix(c: CandidateModel2D) -> np.ndarray:
    """Frame operators of the duals, sum_x |eps_x><eps_x| (...x2x2)."""
    ket = c.duals.conj()
    # summed over x in order, so each angle's bytes match a sum of outer products
    return (ket[..., :, None] * ket.conj()[..., None, :]).sum(axis=-3)


def analytic_residual(theta: float | np.ndarray) -> float | np.ndarray:
    """Closed form for the |1>-weight defect of the dual frame."""
    csc2 = 1.0 / np.sin(theta / 2.0) ** 2
    return (2.0 + csc2) / (4.0 - csc2) - 1.0


def frame_residual(c: CandidateModel2D) -> CompletenessCheck:
    """Defects of the dual frame operators from the identity, see :class:`CompletenessCheck`."""
    defect = np.abs(completeness_matrix(c) - np.eye(2))
    return CompletenessCheck(
        residual=np.max(np.diagonal(defect, axis1=-2, axis2=-1), axis=-1),
        analytic=analytic_residual(c.theta),
        offdiag=defect[..., 0, 1],
        operator=np.max(defect.sum(axis=-1), axis=-1),
    )


def as_quantum_model(c: CandidateModel2D) -> PureStateQuantumModel:
    """Promote a one-angle candidate to a full model; only theta = +-pi passes validation."""
    if c.theta.ndim:
        raise ValueError(f"expected a one-angle candidate, got angles of shape {c.theta.shape}")
    states = c.states.T
    labels = ("A", "B", "C")
    kraus = {x: np.outer(states[:, i], c.duals[i]) for i, x in enumerate(labels)}
    return PureStateQuantumModel(dim=2, labels=labels, states=states, alphabet=labels, kraus=kraus)


@dataclass(frozen=True, eq=False)
class SweepReport:
    """Residual table over the physical band, both signs of theta."""

    thetas: np.ndarray
    residuals: np.ndarray
    analytic: np.ndarray
    spacing: float
    zero_thetas: tuple[float, ...]
    passed: bool


def uniqueness_sweep(grid_size: int = 10_000) -> SweepReport:
    """Scan the completeness residual over theta in +-[pi/3 + 1e-3, pi].

    Near theta = +-pi the closed form is quadratically flat (about
    (theta -+ pi)^2 / 6), so sub-threshold residuals legitimately extend
    sqrt(6 * threshold) away from the endpoint; only a near-zero outside
    that neighborhood signals a bug and raises UniquenessViolatedError.
    The residual minimum on each sign must land within one grid cell of
    +-pi for the sweep to pass.
    """
    if isinstance(grid_size, bool) or not isinstance(grid_size, numbers.Integral):
        raise ValueError(f"grid must be an integer, got {grid_size}")
    if grid_size < 100:
        raise ValueError(f"grid must have at least 100 points, got {grid_size}")
    pos = np.linspace(PHYSICAL_MIN + SWEEP_OFFSET, math.pi, grid_size)
    spacing = float(pos[1] - pos[0])
    thetas = np.concatenate([-pos[::-1], pos])
    residuals = np.empty_like(thetas)
    analytic = np.empty_like(thetas)
    for start in range(0, thetas.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        check = frame_residual(candidate(thetas[block]))
        residuals[block] = check.residual
        analytic[block] = check.analytic
    flat_zone = math.sqrt(6.0 * ZERO_THRESHOLD) + spacing
    near_endpoint = np.abs(np.abs(thetas) - math.pi) <= flat_zone
    offenders = np.flatnonzero((residuals <= ZERO_THRESHOLD) & ~near_endpoint)
    if offenders.size:
        th = thetas[offenders[0]]
        raise UniquenessViolatedError(
            f"unexpected near-zero residual {residuals[offenders[0]]:.3g} at theta {th:.6g}"
        )
    negative = thetas < 0
    zero_thetas = []
    passed = True
    for side in (negative, ~negative):
        idx = np.flatnonzero(side)
        best = idx[np.argmin(residuals[idx])]
        zero_thetas.append(float(thetas[best]))
        passed &= abs(abs(thetas[best]) - math.pi) <= spacing
    return SweepReport(
        thetas=thetas,
        residuals=residuals,
        analytic=analytic,
        spacing=spacing,
        zero_thetas=tuple(zero_thetas),
        passed=bool(passed),
    )


def sweep_csv(report: SweepReport) -> str:
    lines = ["theta,matrix_residual,analytic_residual"]
    for th, r, a in zip(report.thetas, report.residuals, report.analytic):
        lines.append(",".join(map(_significant, (th, r, a))))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True, eq=False)
class CounterexampleReport:
    """The full no-strong-minimum argument for the three-state chain."""

    sweep: SweepReport
    spectrum_verdict: MajorizationVerdict
    s1_d3: float
    s1_q3: float
    s0_d3: float
    s0_q3: float
    passed: bool
    steps: tuple[str, ...]


def counterexample_report(grid_size: int = 10_000) -> CounterexampleReport:
    """Assemble the three sub-checks behind the no-strong-minimum conclusion.

    (i) the residual sweep certifies d3 as the only qubit model; (ii) the
    memory spectra of d3 and q3 are incomparable; (iii) d3 wins on
    topological memory while q3 wins on statistical memory.  Together: no
    single model majorizes all models of this process.
    """
    sweep = uniqueness_sweep(grid_size)
    model_d3 = d3()
    model_q3 = q3()
    spec_d3 = memory_spectrum(model_d3)
    spec_q3 = memory_spectrum(model_q3)
    verdict = compare(spec_d3, spec_q3)
    s1_d3 = renyi_entropy(spec_d3, 1)
    s1_q3 = renyi_entropy(spec_q3, 1)
    s0_d3 = renyi_entropy(spec_d3, 0)
    s0_q3 = renyi_entropy(spec_q3, 0)
    checks = [
        (sweep.passed, f"unique qubit model: residual zero only at theta = +-pi "
                       f"(grid {grid_size}, spacing {sweep.spacing:.3g})"),
        (verdict == MajorizationVerdict.INCOMPARABLE,
         f"spectra of d3 and q3: {verdict}"),
        (s1_d3 > s1_q3 and s0_d3 < s0_q3,
         f"split optima: S1(d3)={s1_d3:.4f} > S1(q3)={s1_q3:.4f} while "
         f"S0(d3)={s0_d3:.4f} < S0(q3)={s0_q3:.4f}"),
    ]
    steps = tuple(("PASS " if ok else "FAIL ") + text for ok, text in checks)
    passed = all(ok for ok, _ in checks)
    conclusion = (
        "no strongly minimal pure-state model exists for the three-state chain"
        if passed
        else "argument incomplete; see failing step"
    )
    return CounterexampleReport(
        sweep=sweep,
        spectrum_verdict=verdict,
        s1_d3=s1_d3,
        s1_q3=s1_q3,
        s0_d3=s0_d3,
        s0_q3=s0_q3,
        passed=passed,
        steps=steps + (conclusion,),
    )
