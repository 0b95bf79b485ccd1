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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .catalog import d3, q3
from .distributions import MajorizationVerdict, compare, renyi_entropy
from .errors import (
    MachinaError,
    SingularThetaError,
    UniquenessViolatedError,
    UnphysicalThetaError,
)
from .quantum import PureStateQuantumModel, memory_spectrum
from .tolerances import EQUAL_TOL

PHYSICAL_MIN = math.pi / 3.0
SINGULAR_MARGIN = 1e-6
SWEEP_OFFSET = 1e-3
ZERO_THRESHOLD = 1e-6

_STAY = math.sqrt(2.0 / 3.0)
_HOP = 1.0 / math.sqrt(6.0)


@dataclass(frozen=True, eq=False)
class CandidateModel2D:
    """One gauge-fixed qubit candidate for the three-state chain."""

    theta: float
    alpha: float
    beta: float
    phi1: float
    phi2: float
    phi3: float
    states: tuple[tuple[complex, complex], ...]  # eta_A, eta_B, eta_C
    duals: tuple[tuple[complex, complex], ...]   # (<eps_x|0>, <eps_x|1>) per x


@dataclass(frozen=True)
class CompletenessCheck:
    """How far the dual frame is from resolving the identity.

    ``residual`` is the diagonal defect max_i |(M - I)_{ii}| of
    M = sum_x |eps_x><eps_x|; it coincides with ``analytic`` (the closed
    form above minus one) to machine precision.  ``offdiag`` is |M_01| and
    ``operator`` the induced infinity norm of M - I; all of them are zero
    exactly when the candidate is a valid model.
    """

    residual: float
    analytic: float
    offdiag: float
    operator: float


def candidate(theta: float) -> CandidateModel2D:
    """Build the candidate at phase angle ``theta``.

    Raises UnphysicalThetaError inside (-pi/3, pi/3) where the overlap
    parameter would exceed one, and SingularThetaError within 1e-6 of the
    band edge where beta vanishes and the duals blow up.
    """
    if not (-math.pi <= theta <= math.pi):
        raise ValueError(f"theta must lie in [-pi, pi], got {theta}")
    if abs(theta) < PHYSICAL_MIN:
        raise UnphysicalThetaError(
            f"theta {theta:.6g} gives overlap parameter > 1; need |theta| >= pi/3"
        )
    if abs(theta) - PHYSICAL_MIN < SINGULAR_MARGIN:
        raise SingularThetaError(f"theta {theta:.6g} too close to the band edge")
    alpha = 0.5 * abs(1.0 / math.sin(theta / 2.0))
    beta = math.sqrt(1.0 - alpha * alpha)
    phi2 = theta
    phi3 = (-theta + math.copysign(math.pi, theta)) / 2.0
    phi1 = math.pi - phi2 - phi3
    eta_a = (1.0 + 0.0j, 0.0j)
    eta_b = (complex(alpha), complex(beta))
    eta_c = (complex(alpha), cmath.exp(1j * theta) * beta)
    duals = (
        (complex(_STAY), (_STAY / beta) * (0.5 * cmath.exp(1j * phi1) - alpha)),
        (
            _HOP * cmath.exp(-1j * phi1),
            (_STAY / beta) * (1.0 - 0.5 * alpha * cmath.exp(-1j * phi1)),
        ),
        (
            _HOP * cmath.exp(1j * phi3),
            (_STAY / (2.0 * beta)) * (cmath.exp(-1j * phi2) - alpha * cmath.exp(1j * phi3)),
        ),
    )
    model = CandidateModel2D(
        theta=theta,
        alpha=alpha,
        beta=beta,
        phi1=phi1,
        phi2=phi2,
        phi3=phi3,
        states=(eta_a, eta_b, eta_c),
        duals=duals,
    )
    worst = _magnitude_defect(model)
    if worst > EQUAL_TOL:
        raise MachinaError(f"internal: transition magnitudes off by {worst:.3g}")
    return model


def transition_magnitudes(c: CandidateModel2D) -> np.ndarray:
    """|<eps_x|eta_y>|^2 table; 2/3 on the diagonal, 1/6 off, for every theta."""
    out = np.empty((3, 3))
    for i, (u, v) in enumerate(c.duals):
        for j, (e0, e1) in enumerate(c.states):
            out[i, j] = abs(u * e0 + v * e1) ** 2
    return out


def _magnitude_defect(c: CandidateModel2D) -> float:
    table = transition_magnitudes(c)
    target = np.full((3, 3), 1.0 / 6.0) + np.eye(3) / 2.0
    return float(np.max(np.abs(table - target)))


def phase_constraint_residual(c: CandidateModel2D) -> float:
    """Cancellation expression for the degenerate transition-amplitude matrix.

    Evaluates |8 + e^{i(phi1+phi2+phi3)} + e^{-i(phi1+phi2+phi3)} - 2*3|,
    which the phase budget drives to zero at machine precision.
    """
    total = c.phi1 + c.phi2 + c.phi3
    value = 8.0 + cmath.exp(1j * total) + cmath.exp(-1j * total) - 2.0 * 3.0
    return abs(value)


def completeness_matrix(c: CandidateModel2D) -> np.ndarray:
    """Frame operator of the duals, sum_x |eps_x><eps_x|."""
    acc = np.zeros((2, 2), dtype=complex)
    for u, v in c.duals:
        ket = np.array([u, v]).conj()
        acc += np.outer(ket, ket.conj())
    return acc


def analytic_residual(theta: float) -> float:
    """Closed form for the |1>-weight defect of the dual frame."""
    csc2 = 1.0 / math.sin(theta / 2.0) ** 2
    return (2.0 + csc2) / (4.0 - csc2) - 1.0


def frame_residual(c: CandidateModel2D) -> CompletenessCheck:
    """Defects of the dual frame operator from the identity, see :class:`CompletenessCheck`."""
    defect = completeness_matrix(c) - np.eye(2)
    diag = float(np.max(np.abs(np.diag(defect))))
    off = float(abs(defect[0, 1]))
    operator = float(np.max(np.sum(np.abs(defect), axis=1)))
    return CompletenessCheck(
        residual=diag,
        analytic=analytic_residual(c.theta),
        offdiag=off,
        operator=operator,
    )


def as_quantum_model(c: CandidateModel2D) -> PureStateQuantumModel:
    """Promote a candidate to a full model; only theta = +-pi passes validation."""
    states = np.array(c.states, dtype=complex).T
    labels = ("A", "B", "C")
    kraus = {}
    for x, (u, v), col in zip(labels, c.duals, range(3)):
        ket = states[:, col]
        bra = np.array([u, v])
        kraus[x] = np.outer(ket, bra)
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
    if grid_size < 100:
        raise ValueError(f"grid must have at least 100 points, got {grid_size}")
    pos = np.linspace(PHYSICAL_MIN + SWEEP_OFFSET, math.pi, grid_size)
    spacing = float(pos[1] - pos[0])
    thetas = np.concatenate([-pos[::-1], pos])
    residuals = np.empty_like(thetas)
    analytic = np.empty_like(thetas)
    for i, th in enumerate(thetas):
        check = frame_residual(candidate(float(th)))
        residuals[i] = check.residual
        analytic[i] = check.analytic
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
        lines.append(f"{th:.12g},{r:.12g},{a:.12g}")
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
