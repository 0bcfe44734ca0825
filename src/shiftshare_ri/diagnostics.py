"""Numeric checks of the asymptotic regularity conditions.

These diagnostics report finite-sample magnitudes of the conditions
under which the simulated studentized statistic is approximately
standard normal: sector-level moment sums for the T1 asymptotics,
simulated-regressor strength and error-coupling terms for T2, sector
concentration, and the realized distance of the simulated statistic
from the normal.

The theory's composite residual (structural error plus effect
heterogeneity plus deviation from the null) is unobservable term by
term; everything here substitutes the null residual e_b, which equals
that composite when the null holds.  Off the null the magnitudes are
still computable but lose that interpretation.

Reported warning thresholds are heuristics for flagging, not sharp
results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .design import ShiftShareDesign, null_residuals
from .errors import ConfigError, NumericDegeneracyError
from .estimator import sector_residual_sums
from .ri import Statistic, TestSpec, generate_draws, ri_test
from .schemes import SimulationScheme

# Heuristic flag levels, documented in the README.
WARN_COND3 = 0.1
WARN_HHI = 0.15
WARN_STRENGTH = 1e-12

_normal_cdf = np.frompyfunc(lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0)), 1, 1)


def compute_vj(S: np.ndarray) -> float:
    """Scaling sequence: sum over sectors of the squared column sums."""
    S = np.asarray(S, dtype=np.float64)
    return float((S.sum(axis=0) ** 2).sum())


@dataclass(frozen=True)
class ConcentrationReport:
    """Sector importance shares and their Herfindahl index.

    importance[j] is the squared column sum over v_J; the shares sum
    to one, and hhi near 1 means a single sector dominates.
    """

    hhi: float
    importance: np.ndarray


def concentration_report(S: np.ndarray) -> ConcentrationReport:
    S = np.asarray(S, dtype=np.float64)
    col = S.sum(axis=0) ** 2
    importance = col / col.sum()
    importance.flags.writeable = False
    return ConcentrationReport(hhi=float((importance**2).sum()), importance=importance)


def _omega(design: ShiftShareDesign, b: float) -> np.ndarray:
    a = sector_residual_sums(design.S, null_residuals(design, b).e_b)
    return a / np.sqrt(compute_vj(design.S))


def prop2_conditions(
    design: ShiftShareDesign,
    b: float,
    scheme: SimulationScheme,
    n_draws: int = 2000,
    seed: int = 0,
) -> tuple[float, float, float]:
    """Moment sums governing normality of the simulated T1 statistic.

    With omega_j the v_J-scaled sector residual sums and per-coordinate
    draw moments from the scheme:

    * cond1 = sum omega_j E[g*_j]        (should be near 0),
    * cond2 = sum omega_j^2 E[g*_j^2]    (should be away from 0),
    * cond3 = sum omega_j^4 E[g*_j^4]    (should be near 0).
    """
    e_b = null_residuals(design, b).e_b
    m1, m2, m4 = scheme.moments(design.g, S=design.S, e_b=e_b, n_mc=n_draws, seed=seed)
    w = _omega(design, b)
    return (
        float((w * m1).sum()),
        float((w**2 * m2).sum()),
        float((w**4 * m4).sum()),
    )


def prop3_conditions(
    design: ShiftShareDesign,
    b: float,
    scheme: SimulationScheme,
    n_draws: int = 500,
    seed: int = 0,
) -> tuple[float, float, float]:
    """Simulated-regressor conditions for the T2 pipeline, Monte Carlo
    averaged over draws of g*.

    * p3_strength: mean of (1/N) sum_i (s_i'g*)^2; must stay away
      from 0 for the re-estimated coefficient to be well behaved.
    * p3_cross: mean |cross-coupling term| over its required rate
      N/sqrt(v_J); values well below 1 support the approximation.
    * p3_quad: mean quadratic term over its rate N^2/v_J.
    """
    e_b = null_residuals(design, b).e_b
    a = sector_residual_sums(design.S, e_b)
    G = generate_draws(design, scheme, n_draws, seed, b=b)
    N = design.N
    vj = compute_vj(design.S)

    # With K = S'S: W = S'(S g*) = K g* and sum_i (s_i'g*)^2 = g*'K g*,
    # so nothing of length N is built per draw.
    W = G @ design.gram
    strength = float((W * G).sum(axis=1).mean()) / N
    # Cross term: the sector double sum collapses to 2 a_j w_j with
    # w = S'(S g*); rate N/sqrt(v_J).
    cross_raw = np.abs((2.0 * a[None, :] * W * G**2).sum(axis=1)) / vj
    cross = float(cross_raw.mean()) / (N / np.sqrt(vj))
    quad_raw = ((W**2) * G**2).sum(axis=1) / vj
    quad = float(quad_raw.mean()) / (N**2 / vj)
    return strength, cross, quad


def ks_to_standard_normal(values: np.ndarray) -> float:
    """Exact sup distance between the empirical CDF and the standard
    normal CDF, evaluated at the jump points from both sides."""
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.shape[0]
    cdf = _normal_cdf(x).astype(np.float64)
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return float(max(upper.max(), lower.max(), 0.0))


def normality_distance(design: ShiftShareDesign, b: float, spec: TestSpec, L: int) -> float:
    """Distance of the simulated studentized statistic from N(0, 1).

    Runs the engine for ``L`` draws at null value ``b`` and returns the
    sup-norm distance between the empirical distribution of simulated
    statistics and the standard normal.  Studentized statistics only.
    """
    if spec.statistic not in (Statistic.T1, Statistic.T2):
        raise ConfigError("normality distance is defined for the studentized statistics")
    run = replace(spec, b=float(b), L=int(L))
    return ks_to_standard_normal(ri_test(design, run).t_sims)


@dataclass(frozen=True)
class AsymptoticReport:
    """All regularity diagnostics for one design, null value, and
    simulation scheme.

    Attributes mirror the individual functions: ``v_J`` and ``hhi``
    describe the exposure geometry; ``cond1``..``cond3`` the T1 moment
    sums; ``p3_strength``/``p3_cross``/``p3_quad`` the T2 conditions;
    ``ks_distance`` the realized normality of the simulated statistic.
    ``warnings`` lists heuristic flags (large cond3, concentrated
    sectors, vanishing simulated regressor).
    """

    v_J: float
    cond1: float
    cond2: float
    cond3: float
    p3_strength: float
    p3_cross: float
    p3_quad: float
    hhi: float
    ks_distance: float
    warnings: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "v_J": self.v_J,
            "cond1": self.cond1,
            "cond2": self.cond2,
            "cond3": self.cond3,
            "p3_strength": self.p3_strength,
            "p3_cross": self.p3_cross,
            "p3_quad": self.p3_quad,
            "hhi": self.hhi,
            "ks_distance": self.ks_distance,
            "warnings": list(self.warnings),
        }


def asymptotic_report(
    design: ShiftShareDesign,
    b: float,
    scheme: SimulationScheme,
    statistic: Statistic = Statistic.T1,
    L: int = 2000,
    n_draws: int = 500,
    seed: int = 0,
    demean: bool = False,
) -> AsymptoticReport:
    """Assemble the full report; see the individual functions."""
    cond1, cond2, cond3 = prop2_conditions(design, b, scheme, n_draws=n_draws, seed=seed)
    strength, cross, quad = prop3_conditions(design, b, scheme, n_draws=n_draws, seed=seed)
    conc = concentration_report(design.S)
    spec = TestSpec(
        b=float(b), statistic=statistic, scheme=scheme, L=int(L), seed=seed, demean=demean
    )
    warnings = []
    try:
        ks = normality_distance(design, b, spec, L)
    except NumericDegeneracyError as exc:
        # a scheme bad enough to break the simulation is exactly what
        # this report exists to flag; record it instead of crashing
        ks = float("nan")
        warnings.append(f"simulated statistic could not be computed: {exc}")
    if cond3 > WARN_COND3:
        warnings.append(
            f"fourth-moment sum cond3 = {cond3:.3g} exceeds {WARN_COND3}; "
            "normal approximation of the simulated statistic is suspect"
        )
    if conc.hhi > WARN_HHI:
        warnings.append(
            f"sector concentration hhi = {conc.hhi:.3g} exceeds {WARN_HHI}; "
            "few sectors dominate the instrument"
        )
    if strength <= WARN_STRENGTH:
        warnings.append(
            f"simulated regressor strength {strength:.3g} is numerically zero; "
            "the scheme produces no identifying variation"
        )
    return AsymptoticReport(
        v_J=compute_vj(design.S),
        cond1=cond1,
        cond2=cond2,
        cond3=cond3,
        p3_strength=strength,
        p3_cross=cross,
        p3_quad=quad,
        hhi=conc.hhi,
        ks_distance=ks,
        warnings=tuple(warnings),
    )
