"""Synthetic data generator and size/power experiment harness.

The data model is Y_i = beta_i X_i + eps_i with X built from exposures
and mean-zero sector shocks.  The inferential target is the exposure-
weighted combination of unit effects

    beta_target = sum_i w_i beta_i / sum_i w_i,   w_i = E[X_i Z_i],

computed from the generating distribution's analytic second moments
(w_i = s_i' Cov(g) s_i up to the common first-stage slope, which
cancels).  A sample-moment version is carried alongside for
sensitivity.

Experiments measure rejection rates of RI tests against the normal-
critical-value comparator.  Every rep draws its dataset and test seeds
from counter-based substreams of the master seed, so results are
reproducible bit for bit under any parallel schedule.
"""

from __future__ import annotations

import csv
import enum
import io
import math
import os
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .design import ShiftShareDesign
from .errors import ConfigError, NumericDegeneracyError
from .estimator import shift_share_estimate, stat_t1, variance_plugin
from .ri import (
    Sidedness,
    Statistic,
    TestSpec,
    exact_enumeration_test,
    ri_test,
)
from .rng import DOMAIN_DATASET, DOMAIN_EXPERIMENT, stream, substream_seed
from .schemes import (
    IIDNormal,
    KnownDistribution,
    Permutation,
    RecentredBootstrap,
    SignChange,
    SimulationScheme,
)

# ---------------------------------------------------------------------------
# DGP variant descriptors


@dataclass(frozen=True)
class SingleExposure:
    """Identity exposures: N = J, each unit loads on one distinct
    sector with weight one."""


@dataclass(frozen=True)
class DirichletRows:
    """Each exposure row drawn from a symmetric Dirichlet; larger
    concentration gives more even rows."""

    concentration: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.concentration) and self.concentration > 0):
            raise ConfigError(f"concentration must be positive, got {self.concentration}")


@dataclass(frozen=True)
class Concentrated:
    """Rows drawn from an asymmetric Dirichlet putting most mass on
    k_dominant sectors, so the instrument is driven by few shocks."""

    k_dominant: int = 2

    def __post_init__(self):
        if not isinstance(self.k_dominant, int) or self.k_dominant < 1:
            raise ConfigError(f"k_dominant must be a positive integer, got {self.k_dominant}")


@dataclass(frozen=True)
class NormalShocks:
    sigma: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ConfigError(f"shock sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class UniformShocks:
    half_width: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.half_width) and self.half_width > 0):
            raise ConfigError(f"half_width must be positive, got {self.half_width}")


@dataclass(frozen=True)
class RademacherShocks:
    scale: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ConfigError(f"scale must be positive, got {self.scale}")


@dataclass(frozen=True)
class ClusteredShocks:
    """Equicorrelated blocks: shocks share a common component within
    each block of ``block_size`` consecutive sectors."""

    block_size: int = 2
    rho: float = 0.5
    sigma: float = 1.0

    def __post_init__(self):
        if not isinstance(self.block_size, int) or self.block_size < 1:
            raise ConfigError(f"block_size must be a positive integer, got {self.block_size}")
        if not (0.0 <= self.rho < 1.0):
            raise ConfigError(f"rho must lie in [0, 1), got {self.rho}")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ConfigError(f"shock sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class IIDAround:
    """Unit effects drawn iid around the common beta, independent of
    exposures."""

    sd: float = 0.5

    def __post_init__(self):
        if not (np.isfinite(self.sd) and self.sd >= 0):
            raise ConfigError(f"heterogeneity sd must be nonnegative, got {self.sd}")


@dataclass(frozen=True)
class CorrelatedWithExposure:
    """Unit effects tilted by how concentrated each unit's exposure row
    is (standardized row Herfindahl), deliberately coupling effects and
    exposures."""

    strength: float = 0.5

    def __post_init__(self):
        if not np.isfinite(self.strength):
            raise ConfigError(f"strength must be finite, got {self.strength}")


@dataclass(frozen=True)
class IIDErrors:
    sigma: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ConfigError(f"error sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class SectorFactorErrors:
    """Errors with a common sector factor loaded through the exposure
    rows plus an idiosyncratic part; this induces the cross-unit error
    correlation that region-clustered standard errors miss."""

    sigma_factor: float = 1.0
    sigma_idio: float = 0.5

    def __post_init__(self):
        if not (np.isfinite(self.sigma_factor) and self.sigma_factor > 0):
            raise ConfigError(f"sigma_factor must be positive, got {self.sigma_factor}")
        if not (np.isfinite(self.sigma_idio) and self.sigma_idio >= 0):
            raise ConfigError(f"sigma_idio must be nonnegative, got {self.sigma_idio}")


@dataclass(frozen=True)
class ReducedForm:
    """X equals the instrument exactly."""


@dataclass(frozen=True)
class IV:
    """X = strength * Z + noise, with independent Gaussian noise."""

    strength: float = 1.0
    noise_sd: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.strength) and self.strength != 0):
            raise ConfigError(f"first-stage strength must be nonzero, got {self.strength}")
        if not (np.isfinite(self.noise_sd) and self.noise_sd >= 0):
            raise ConfigError(f"noise_sd must be nonnegative, got {self.noise_sd}")


@dataclass(frozen=True)
class DGPSpec:
    """Complete description of one synthetic data generating process."""

    N: int
    J: int
    exposure_design: object = SingleExposure()
    shock_law: object = NormalShocks()
    beta: float = 1.0
    beta_heterogeneity: object | None = None
    error_model: object = IIDErrors()
    first_stage: object = ReducedForm()

    def __post_init__(self):
        if not isinstance(self.N, int) or not isinstance(self.J, int) or self.N < 2 or self.J < 2:
            raise ConfigError(f"need integer N, J >= 2, got N={self.N}, J={self.J}")
        if isinstance(self.exposure_design, SingleExposure) and self.N != self.J:
            raise ConfigError("single-exposure design needs N = J")
        if isinstance(self.exposure_design, Concentrated) and self.exposure_design.k_dominant > self.J:
            raise ConfigError("k_dominant cannot exceed J")
        if isinstance(self.shock_law, ClusteredShocks) and self.J % self.shock_law.block_size != 0:
            raise ConfigError(
                f"block_size {self.shock_law.block_size} does not divide J = {self.J}"
            )
        if not np.isfinite(self.beta):
            raise ConfigError(f"beta must be finite, got {self.beta}")


@dataclass(frozen=True)
class GroundTruth:
    """What the generator knows about a realized dataset.

    beta_target is the analytic exposure-weighted combination of unit
    effects the estimator aims at; beta_target_sample replaces the
    analytic weights with the realized X_i Z_i.
    """

    beta_units: np.ndarray
    beta_target: float
    beta_target_sample: float
    epsilon: np.ndarray


def shock_covariance(law, J: int) -> np.ndarray:
    """Analytic covariance of the shock vector under the DGP law."""
    if isinstance(law, NormalShocks):
        return np.eye(J) * law.sigma**2
    if isinstance(law, UniformShocks):
        return np.eye(J) * (law.half_width**2 / 3.0)
    if isinstance(law, RademacherShocks):
        return np.eye(J) * law.scale**2
    if isinstance(law, ClusteredShocks):
        n_blocks = J // law.block_size
        block = np.full((law.block_size, law.block_size), law.rho)
        np.fill_diagonal(block, 1.0)
        out = np.zeros((J, J))
        for c in range(n_blocks):
            lo = c * law.block_size
            out[lo : lo + law.block_size, lo : lo + law.block_size] = block
        return out * law.sigma**2
    raise ConfigError(f"unknown shock law {law!r}")


def _draw_shocks_dgp(law, J, rng):
    if isinstance(law, NormalShocks):
        return law.sigma * rng.standard_normal(J)
    if isinstance(law, UniformShocks):
        return rng.uniform(-law.half_width, law.half_width, size=J)
    if isinstance(law, RademacherShocks):
        return law.scale * (rng.integers(0, 2, size=J) * 2.0 - 1.0)
    n_blocks = J // law.block_size
    common = rng.standard_normal(n_blocks)
    idio = rng.standard_normal(J)
    block_of = np.repeat(np.arange(n_blocks), law.block_size)
    return law.sigma * (np.sqrt(law.rho) * common[block_of] + np.sqrt(1.0 - law.rho) * idio)


def _draw_exposures(design_kind, N, J, rng):
    if isinstance(design_kind, SingleExposure):
        return np.eye(N)
    if isinstance(design_kind, DirichletRows):
        return rng.dirichlet(np.full(J, design_kind.concentration), size=N)
    alpha = np.full(J, 0.2)
    alpha[: design_kind.k_dominant] = 8.0 / design_kind.k_dominant
    return rng.dirichlet(alpha, size=N)


def _draw_beta_units(het, beta, S, rng):
    N = S.shape[0]
    if het is None:
        return np.full(N, float(beta))
    if isinstance(het, IIDAround):
        return beta + het.sd * rng.standard_normal(N)
    hhi_rows = (S**2).sum(axis=1)
    sd = hhi_rows.std()
    z = (hhi_rows - hhi_rows.mean()) / sd if sd > 0 else np.zeros(N)
    return beta + het.strength * z


def _draw_errors(model, S, rng):
    N, J = S.shape
    if isinstance(model, IIDErrors):
        return model.sigma * rng.standard_normal(N)
    f = model.sigma_factor * rng.standard_normal(J)
    nu = model.sigma_idio * rng.standard_normal(N)
    return S @ f + nu


def generate_dataset(dgp: DGPSpec, seed: int) -> tuple[ShiftShareDesign, GroundTruth]:
    """Draw one dataset and its ground truth.

    Component draws come from separate substreams of ``seed``, so
    switching one DGP ingredient does not shift the randomness of the
    others.
    """
    rng_S = stream(seed, DOMAIN_DATASET, 0)
    rng_g = stream(seed, DOMAIN_DATASET, 1)
    rng_beta = stream(seed, DOMAIN_DATASET, 2)
    rng_eps = stream(seed, DOMAIN_DATASET, 3)
    rng_fs = stream(seed, DOMAIN_DATASET, 4)

    S = _draw_exposures(dgp.exposure_design, dgp.N, dgp.J, rng_S)
    g = _draw_shocks_dgp(dgp.shock_law, dgp.J, rng_g)
    Z = S @ g
    if isinstance(dgp.first_stage, ReducedForm):
        X = None
        X_arr = Z
    else:
        X_arr = dgp.first_stage.strength * Z + dgp.first_stage.noise_sd * rng_fs.standard_normal(
            dgp.N
        )
        X = X_arr
    beta_units = _draw_beta_units(dgp.beta_heterogeneity, dgp.beta, S, rng_beta)
    eps = _draw_errors(dgp.error_model, S, rng_eps)
    Y = beta_units * X_arr + eps

    cluster_ids = None
    if isinstance(dgp.shock_law, ClusteredShocks):
        cluster_ids = np.repeat(
            np.arange(dgp.J // dgp.shock_law.block_size), dgp.shock_law.block_size
        )

    design = ShiftShareDesign.from_arrays(Y, X, S, g, cluster_ids=cluster_ids)

    if dgp.beta_heterogeneity is None:
        beta_target = float(dgp.beta)
        beta_sample = float(dgp.beta)
    else:
        # Analytic weights E[X_i Z_i] = slope * s_i' Cov(g) s_i; the
        # common slope cancels in the weighted average.
        Sigma = shock_covariance(dgp.shock_law, dgp.J)
        w = ((S @ Sigma) * S).sum(axis=1)
        beta_target = float((w * beta_units).sum() / w.sum())
        w_s = design.Z * design.X
        denom = w_s.sum()
        beta_sample = float((w_s * beta_units).sum() / denom) if denom != 0 else float("nan")
    truth = GroundTruth(
        beta_units=beta_units,
        beta_target=beta_target,
        beta_target_sample=beta_sample,
        epsilon=eps,
    )
    return design, truth


# ---------------------------------------------------------------------------
# Methods and experiments


class MethodKind(enum.Enum):
    RI = "ri"
    AKM_NORMAL = "akm-normal"
    ENUMERATION = "enumeration"


def scheme_token(scheme) -> str:
    if isinstance(scheme, SignChange):
        return "sign-change"
    if isinstance(scheme, Permutation):
        return "permutation"
    if isinstance(scheme, RecentredBootstrap):
        return "bootstrap"
    if isinstance(scheme, IIDNormal):
        return "normal"
    if isinstance(scheme, KnownDistribution):
        return "custom"
    return "none"


@dataclass(frozen=True)
class MethodSpec:
    """One inference method to evaluate in an experiment."""

    kind: MethodKind
    statistic: Statistic = Statistic.T1
    scheme: SimulationScheme | None = None
    L: int = 199
    alpha: float = 0.05
    sidedness: Sidedness = Sidedness.TWO_SIDED_ABS
    demean: bool = False
    cluster_studentizer: bool = False
    label: str = ""

    def __post_init__(self):
        if self.kind is not MethodKind.AKM_NORMAL and self.scheme is None:
            raise ConfigError(f"{self.kind.value} method needs a simulation scheme")
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not self.label:
            if self.kind is MethodKind.AKM_NORMAL:
                derived = "AKM-normal"
            elif self.kind is MethodKind.ENUMERATION:
                derived = f"enumeration/{scheme_token(self.scheme)}"
            else:
                derived = f"RI-{self.statistic.value.upper()}/{scheme_token(self.scheme)}"
            object.__setattr__(self, "label", derived)


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregated outcome of one method at one null value."""

    method: str
    b_tested: float
    rejection_rate: float
    mc_se: float
    reps: int
    failures: int

    @property
    def flagged(self) -> bool:
        """True when more than 1% of reps failed; treat the row as
        unreliable for this DGP."""
        return self.failures > 0.01 * self.reps


def _run_method(design: ShiftShareDesign, method: MethodSpec, b: float, seed: int) -> bool:
    if method.kind is MethodKind.AKM_NORMAL:
        if design.reduced_form:
            # practice comparator: Wald with residuals at the point
            # estimate, the version that over-rejects with few shocks
            est = shift_share_estimate(design)
            se = math.sqrt(variance_plugin(design).value)
            if se <= 0.0 or not math.isfinite(se):
                raise NumericDegeneracyError("plug-in standard error is zero")
            t = (est.beta_hat - b) / se
        else:
            # no plug-in variance exists off the reduced form; the
            # null-imposed studentization is the only Wald available
            t = stat_t1(design, b, clustered=method.cluster_studentizer)
        return bool(abs(t) > NormalDist().inv_cdf(1.0 - method.alpha / 2.0))
    spec = TestSpec(
        b=float(b),
        statistic=method.statistic,
        scheme=method.scheme,
        L=method.L,
        alpha=method.alpha,
        sidedness=method.sidedness,
        seed=seed,
        demean=method.demean,
        cluster_studentizer=method.cluster_studentizer,
    )
    if method.kind is MethodKind.ENUMERATION:
        return exact_enumeration_test(design, spec).reject
    return ri_test(design, spec).reject


def _aggregate(label, b_mean, rejects, failures, reps):
    n_ok = reps - failures
    rate = rejects / n_ok if n_ok > 0 else float("nan")
    se = math.sqrt(rate * (1.0 - rate) / n_ok) if n_ok > 0 else float("nan")
    return ExperimentResult(
        method=label,
        b_tested=b_mean,
        rejection_rate=rate,
        mc_se=se,
        reps=reps,
        failures=failures,
    )


def size_experiment(
    dgp: DGPSpec, methods: list[MethodSpec], reps: int, master_seed: int
) -> list[ExperimentResult]:
    """Empirical size: each rep draws a dataset and tests the true
    target value with every method.

    Per-rep failures (degenerate draws or variances) are counted in the
    ``failures`` column and excluded from the rejection denominator,
    never silently dropped.
    """
    if reps < 100:
        raise ConfigError(f"need reps >= 100 for a meaningful rate, got {reps}")
    if not methods:
        raise ConfigError("no methods given")
    rejects = [0] * len(methods)
    failures = [0] * len(methods)
    b_sum = 0.0
    for rep in range(reps):
        ds_seed = substream_seed(master_seed, DOMAIN_EXPERIMENT, rep, 0)
        design, truth = generate_dataset(dgp, ds_seed)
        b = truth.beta_target
        b_sum += b
        for mi, method in enumerate(methods):
            t_seed = substream_seed(master_seed, DOMAIN_EXPERIMENT, rep, 1, mi)
            try:
                if _run_method(design, method, b, t_seed):
                    rejects[mi] += 1
            except NumericDegeneracyError:
                failures[mi] += 1
    b_mean = b_sum / reps
    return [
        _aggregate(m.label, b_mean, rejects[mi], failures[mi], reps)
        for mi, m in enumerate(methods)
    ]


def power_curve(
    dgp: DGPSpec, b_grid, method: MethodSpec, reps: int, master_seed: int
) -> list[ExperimentResult]:
    """Rejection rate of one method across a grid of null values.

    Datasets and test seeds are shared across grid points (the seed
    derivation matches a single-method size_experiment), so the grid
    point at the DGP's target value reproduces the size run exactly.
    """
    b_grid = np.asarray(b_grid, dtype=np.float64)
    if b_grid.ndim != 1 or b_grid.size == 0 or not np.all(np.isfinite(b_grid)):
        raise ConfigError("b_grid must be a nonempty finite 1-d array")
    if reps < 100:
        raise ConfigError(f"need reps >= 100 for a meaningful rate, got {reps}")
    rejects = [0] * b_grid.size
    failures = [0] * b_grid.size
    for rep in range(reps):
        ds_seed = substream_seed(master_seed, DOMAIN_EXPERIMENT, rep, 0)
        design, _ = generate_dataset(dgp, ds_seed)
        t_seed = substream_seed(master_seed, DOMAIN_EXPERIMENT, rep, 1, 0)
        for bi, b in enumerate(b_grid):
            try:
                if _run_method(design, method, float(b), t_seed):
                    rejects[bi] += 1
            except NumericDegeneracyError:
                failures[bi] += 1
    return [
        _aggregate(method.label, float(b), rejects[bi], failures[bi], reps)
        for bi, b in enumerate(b_grid)
    ]


# ---------------------------------------------------------------------------
# Experiment config files (plain key=value) and result serialization

_EXPOSURE_TOKENS = ("single", "dirichlet", "concentrated")
_SHOCK_TOKENS = ("normal", "uniform", "rademacher", "clustered")
_ERROR_TOKENS = ("iid", "sector-factor")
_FS_TOKENS = ("reduced-form", "iv")
_HET_TOKENS = ("none", "iid-around", "exposure-correlated")
_METHOD_TOKENS = ("ri-t0", "ri-t1", "ri-t2", "akm-normal", "enumeration")

SCHEME_TOKENS = ("sign-change", "permutation", "bootstrap", "normal")

STATISTIC_BY_TOKEN = {"t0": Statistic.T0, "t1": Statistic.T1, "t2": Statistic.T2}

SIDEDNESS_BY_TOKEN = {
    "two-sided": Sidedness.TWO_SIDED_ABS,
    "right": Sidedness.RIGHT_TAIL,
    "left": Sidedness.LEFT_TAIL,
    "equal-tail": Sidedness.EQUAL_TAIL,
}

_KNOWN_KEYS = {
    "n",
    "j",
    "exposure",
    "exposure.concentration",
    "exposure.k_dominant",
    "shocks",
    "shocks.sigma",
    "shocks.half_width",
    "shocks.scale",
    "shocks.block_size",
    "shocks.rho",
    "beta",
    "heterogeneity",
    "heterogeneity.sd",
    "heterogeneity.strength",
    "errors",
    "errors.sigma",
    "errors.sigma_factor",
    "errors.sigma_idio",
    "first_stage",
    "first_stage.strength",
    "first_stage.noise_sd",
    "methods",
    "scheme",
    "scheme.m",
    "scheme.sigma",
    "scheme.by_cluster",
    "statistic",
    "sided",
    "alpha",
    "l",
    "reps",
    "seed",
    "demean",
    "clustered",
    "b_grid",
}


def build_scheme(token: str, m: float = 0.0, sigma: float = 1.0, by_cluster: bool = False):
    """Construct a built-in scheme from its CLI/config token."""
    if token == "sign-change":
        return SignChange(m=m, by_cluster=by_cluster)
    if token == "permutation":
        return Permutation()
    if token == "bootstrap":
        return RecentredBootstrap()
    if token == "normal":
        return IIDNormal(sigma=sigma)
    raise ConfigError(f"unknown scheme {token!r}; expected one of {', '.join(SCHEME_TOKENS)}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment file: the DGP, the methods, and run sizes."""

    dgp: DGPSpec
    methods: tuple[MethodSpec, ...]
    reps: int
    seed: int
    b_grid: np.ndarray | None = None


def _parse_scalar(raw: str, key: str, kind):
    try:
        if kind is bool:
            low = raw.lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as {kind.__name__}") from None


def parse_experiment_config(source: str | os.PathLike) -> ExperimentConfig:
    """Read a key=value experiment file.

    Lines are ``key = value``; ``#`` starts a comment; keys are
    case-insensitive.  Unknown keys are errors naming the key.
    """
    with open(source, "r", encoding="utf-8") as fh:
        text = fh.read()
    kv: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"config line {lineno}: expected key = value, got {line.strip()!r}")
        key, _, raw = body.partition("=")
        key = key.strip().lower()
        raw = raw.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in kv:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        kv[key] = raw

    def take(key, kind, default):
        if key not in kv:
            return default
        return _parse_scalar(kv[key], key, kind)

    for required in ("n", "j"):
        if required not in kv:
            raise ConfigError(f"config is missing required key {required!r}")
    N = _parse_scalar(kv["n"], "n", int)
    J = _parse_scalar(kv["j"], "j", int)

    exposure_token = take("exposure", str, "single").lower()
    if exposure_token == "single":
        exposure = SingleExposure()
    elif exposure_token == "dirichlet":
        exposure = DirichletRows(concentration=take("exposure.concentration", float, 1.0))
    elif exposure_token == "concentrated":
        exposure = Concentrated(k_dominant=take("exposure.k_dominant", int, 2))
    else:
        raise ConfigError(
            f"config key 'exposure': unknown value {exposure_token!r}; "
            f"expected one of {', '.join(_EXPOSURE_TOKENS)}"
        )

    shock_token = take("shocks", str, "normal").lower()
    if shock_token == "normal":
        shocks = NormalShocks(sigma=take("shocks.sigma", float, 1.0))
    elif shock_token == "uniform":
        shocks = UniformShocks(half_width=take("shocks.half_width", float, 1.0))
    elif shock_token == "rademacher":
        shocks = RademacherShocks(scale=take("shocks.scale", float, 1.0))
    elif shock_token == "clustered":
        shocks = ClusteredShocks(
            block_size=take("shocks.block_size", int, 2),
            rho=take("shocks.rho", float, 0.5),
            sigma=take("shocks.sigma", float, 1.0),
        )
    else:
        raise ConfigError(
            f"config key 'shocks': unknown value {shock_token!r}; "
            f"expected one of {', '.join(_SHOCK_TOKENS)}"
        )

    het_token = take("heterogeneity", str, "none").lower()
    if het_token == "none":
        het = None
    elif het_token == "iid-around":
        het = IIDAround(sd=take("heterogeneity.sd", float, 0.5))
    elif het_token == "exposure-correlated":
        het = CorrelatedWithExposure(strength=take("heterogeneity.strength", float, 0.5))
    else:
        raise ConfigError(
            f"config key 'heterogeneity': unknown value {het_token!r}; "
            f"expected one of {', '.join(_HET_TOKENS)}"
        )

    error_token = take("errors", str, "iid").lower()
    if error_token == "iid":
        errors = IIDErrors(sigma=take("errors.sigma", float, 1.0))
    elif error_token == "sector-factor":
        errors = SectorFactorErrors(
            sigma_factor=take("errors.sigma_factor", float, 1.0),
            sigma_idio=take("errors.sigma_idio", float, 0.5),
        )
    else:
        raise ConfigError(
            f"config key 'errors': unknown value {error_token!r}; "
            f"expected one of {', '.join(_ERROR_TOKENS)}"
        )

    fs_token = take("first_stage", str, "reduced-form").lower()
    if fs_token == "reduced-form":
        first_stage = ReducedForm()
    elif fs_token == "iv":
        first_stage = IV(
            strength=take("first_stage.strength", float, 1.0),
            noise_sd=take("first_stage.noise_sd", float, 1.0),
        )
    else:
        raise ConfigError(
            f"config key 'first_stage': unknown value {fs_token!r}; "
            f"expected one of {', '.join(_FS_TOKENS)}"
        )

    dgp = DGPSpec(
        N=N,
        J=J,
        exposure_design=exposure,
        shock_law=shocks,
        beta=take("beta", float, 1.0),
        beta_heterogeneity=het,
        error_model=errors,
        first_stage=first_stage,
    )

    scheme_name = take("scheme", str, "sign-change").lower()
    scheme = build_scheme(
        scheme_name,
        m=take("scheme.m", float, 0.0),
        sigma=take("scheme.sigma", float, 1.0),
        by_cluster=take("scheme.by_cluster", bool, False),
    )
    stat_token = take("statistic", str, "t1").lower()
    if stat_token not in STATISTIC_BY_TOKEN:
        raise ConfigError(f"config key 'statistic': unknown value {stat_token!r}")
    sided_token = take("sided", str, "two-sided").lower()
    if sided_token not in SIDEDNESS_BY_TOKEN:
        raise ConfigError(f"config key 'sided': unknown value {sided_token!r}")
    alpha = take("alpha", float, 0.05)
    L = take("l", int, 199)
    demean = take("demean", bool, False)
    clustered = take("clustered", bool, False)

    methods = []
    for token in take("methods", str, "ri-t1").lower().split(","):
        token = token.strip()
        if not token:
            continue
        if token == "akm-normal":
            methods.append(
                MethodSpec(
                    kind=MethodKind.AKM_NORMAL,
                    alpha=alpha,
                    cluster_studentizer=clustered,
                )
            )
        elif token == "enumeration":
            methods.append(
                MethodSpec(
                    kind=MethodKind.ENUMERATION,
                    statistic=STATISTIC_BY_TOKEN[stat_token],
                    scheme=scheme,
                    alpha=alpha,
                    sidedness=SIDEDNESS_BY_TOKEN[sided_token],
                    demean=demean,
                    cluster_studentizer=clustered,
                )
            )
        elif token in ("ri-t0", "ri-t1", "ri-t2"):
            methods.append(
                MethodSpec(
                    kind=MethodKind.RI,
                    statistic=STATISTIC_BY_TOKEN[token.split("-")[1]],
                    scheme=scheme,
                    L=L,
                    alpha=alpha,
                    sidedness=SIDEDNESS_BY_TOKEN[sided_token],
                    demean=demean,
                    cluster_studentizer=clustered,
                )
            )
        else:
            raise ConfigError(
                f"config key 'methods': unknown method {token!r}; "
                f"expected one of {', '.join(_METHOD_TOKENS)}"
            )
    if not methods:
        raise ConfigError("config key 'methods': no methods listed")

    b_grid = None
    if "b_grid" in kv:
        try:
            b_grid = np.array([float(tok) for tok in kv["b_grid"].split(",") if tok.strip()])
        except ValueError:
            raise ConfigError("config key 'b_grid': expected comma-separated numbers") from None
        if b_grid.size == 0:
            raise ConfigError("config key 'b_grid': no values given")

    return ExperimentConfig(
        dgp=dgp,
        methods=tuple(methods),
        reps=take("reps", int, 500),
        seed=take("seed", int, 0),
        b_grid=b_grid,
    )


def results_to_csv(results: list[ExperimentResult]) -> str:
    """Render results as the documented CSV layout
    ``method,b,reject_rate,mc_se,reps,failures``."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["method", "b", "reject_rate", "mc_se", "reps", "failures"])
    for r in results:
        w.writerow(
            [r.method, repr(r.b_tested), repr(r.rejection_rate), repr(r.mc_se), r.reps, r.failures]
        )
    return buf.getvalue()


def results_to_json_obj(results: list[ExperimentResult]) -> dict:
    return {
        "schema": 1,
        "results": [
            {
                "method": r.method,
                "b": r.b_tested,
                "reject_rate": r.rejection_rate,
                "mc_se": r.mc_se,
                "reps": r.reps,
                "failures": r.failures,
                "flagged": r.flagged,
            }
            for r in results
        ],
    }
