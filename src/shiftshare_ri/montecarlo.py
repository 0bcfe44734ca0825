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
from dataclasses import dataclass, fields
from statistics import NormalDist

import numpy as np

from .design import ShiftShareDesign
from .errors import ConfigError, NumericDegeneracyError
from .estimator import shift_share_estimate, stat_t1, variance_plugin
from .ri import (
    Sidedness,
    Statistic,
    TestSpec,
    _as_int,
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
    check_enumerable,
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
        k = _as_int(self.k_dominant)
        if k is None or k < 1:
            raise ConfigError(f"k_dominant must be a positive integer, got {self.k_dominant}")
        object.__setattr__(self, "k_dominant", k)


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
        size = _as_int(self.block_size)
        if size is None or size < 1:
            raise ConfigError(f"block_size must be a positive integer, got {self.block_size}")
        object.__setattr__(self, "block_size", size)
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


# Config components: each key maps to its default token and to the
# class each token builds ("none" builds nothing).  A class's dataclass
# fields are its sub-keys, each typed by the type of its default.
_COMPONENTS = {
    "exposure": ("single", {
        "single": SingleExposure, "dirichlet": DirichletRows, "concentrated": Concentrated,
    }),
    "shocks": ("normal", {
        "normal": NormalShocks, "uniform": UniformShocks, "rademacher": RademacherShocks,
        "clustered": ClusteredShocks,
    }),
    "heterogeneity": ("none", {
        "none": None, "iid-around": IIDAround, "exposure-correlated": CorrelatedWithExposure,
    }),
    "errors": ("iid", {"iid": IIDErrors, "sector-factor": SectorFactorErrors}),
    "first_stage": ("reduced-form", {"reduced-form": ReducedForm, "iv": IV}),
    "scheme": ("sign-change", {
        "sign-change": SignChange, "permutation": Permutation, "bootstrap": RecentredBootstrap,
        "normal": IIDNormal,
    }),
}

# DGPSpec field -> the config component that fills it, in parsing order
_DGP_COMPONENTS = {
    "exposure_design": "exposure", "shock_law": "shocks", "beta_heterogeneity": "heterogeneity",
    "error_model": "errors", "first_stage": "first_stage",
}


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
        N, J = _as_int(self.N), _as_int(self.J)
        if N is None or J is None or N < 2 or J < 2:
            raise ConfigError(f"need integer N, J >= 2, got N={self.N}, J={self.J}")
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "J", J)
        for name, key in _DGP_COMPONENTS.items():
            value = getattr(self, name)
            allowed = tuple(type(None) if c is None else c for c in _COMPONENTS[key][1].values())
            if not isinstance(value, allowed):
                names = ", ".join(cls.__name__ for cls in allowed)
                raise ConfigError(f"{name} must be one of {names}; got {value!r}")
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
        block = np.full((law.block_size, law.block_size), law.rho)
        np.fill_diagonal(block, 1.0)
        return np.kron(np.eye(J // law.block_size), block) * law.sigma**2
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
    rng_S, rng_g, rng_beta, rng_eps, rng_fs = (stream(seed, DOMAIN_DATASET, k) for k in range(5))

    S = _draw_exposures(dgp.exposure_design, dgp.N, dgp.J, rng_S)
    g = _draw_shocks_dgp(dgp.shock_law, dgp.J, rng_g)
    Z = S @ g
    X = None
    if not isinstance(dgp.first_stage, ReducedForm):
        X = dgp.first_stage.strength * Z + dgp.first_stage.noise_sd * rng_fs.standard_normal(dgp.N)
    X_arr = Z if X is None else X
    beta_units = _draw_beta_units(dgp.beta_heterogeneity, dgp.beta, S, rng_beta)
    eps = _draw_errors(dgp.error_model, S, rng_eps)
    Y = beta_units * X_arr + eps

    cluster_ids = None
    if isinstance(dgp.shock_law, ClusteredShocks):
        size = dgp.shock_law.block_size
        cluster_ids = np.repeat(np.arange(dgp.J // size), size)

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
    for token, cls in _COMPONENTS["scheme"][1].items():
        if isinstance(scheme, cls):
            return token
    return "custom" if isinstance(scheme, KnownDistribution) else "none"


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
        if self.kind is MethodKind.ENUMERATION:
            check_enumerable(self.scheme)
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


def _rep_loop(dgp: DGPSpec, reps: int, master_seed: int, cells) -> list[ExperimentResult]:
    """One result per cell ``(method, method_index, b)`` over ``reps``
    datasets; ``b=None`` tests each rep's own target and reports their
    mean.  Rep r draws its dataset from substream ``(r, 0)`` of the
    master seed and its test seed from ``(r, 1, method_index)``.
    """
    if reps < 100:
        raise ConfigError(f"need reps >= 100 for a meaningful rate, got {reps}")
    seed = _as_int(master_seed)
    if seed is None or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {master_seed!r}")
    rejects = [0] * len(cells)
    failures = [0] * len(cells)
    n_seeds = 1 + max(mi for _, mi, _ in cells)
    b_sum = 0.0
    for rep in range(reps):
        design, truth = generate_dataset(dgp, substream_seed(seed, DOMAIN_EXPERIMENT, rep, 0))
        b_sum += truth.beta_target
        t_seeds = [substream_seed(seed, DOMAIN_EXPERIMENT, rep, 1, mi) for mi in range(n_seeds)]
        for ci, (method, mi, b) in enumerate(cells):
            try:
                if _run_method(design, method, truth.beta_target if b is None else b, t_seeds[mi]):
                    rejects[ci] += 1
            except NumericDegeneracyError:
                failures[ci] += 1
    results = []
    for ci, (method, _, b) in enumerate(cells):
        n_ok = reps - failures[ci]
        rate = rejects[ci] / n_ok if n_ok > 0 else float("nan")
        se = math.sqrt(rate * (1.0 - rate) / n_ok) if n_ok > 0 else float("nan")
        b_tested = b_sum / reps if b is None else b
        results.append(ExperimentResult(method.label, b_tested, rate, se, reps, failures[ci]))
    return results


def size_experiment(
    dgp: DGPSpec, methods: list[MethodSpec], reps: int, master_seed: int
) -> list[ExperimentResult]:
    """Empirical size: each rep draws a dataset and tests the true
    target value with every method.

    Per-rep failures (degenerate draws or variances) are counted in the
    ``failures`` column and excluded from the rejection denominator,
    never silently dropped.
    """
    if not methods:
        raise ConfigError("no methods given")
    return _rep_loop(dgp, reps, master_seed, [(m, mi, None) for mi, m in enumerate(methods)])


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
    return _rep_loop(dgp, reps, master_seed, [(method, 0, float(b)) for b in b_grid])


# ---------------------------------------------------------------------------
# Experiment config files (plain key=value) and result serialization

_METHOD_TOKENS = ("ri-t0", "ri-t1", "ri-t2", "akm-normal", "enumeration")

SCHEME_TOKENS = tuple(_COMPONENTS["scheme"][1])

SIDEDNESS_BY_TOKEN = {
    "two-sided": Sidedness.TWO_SIDED_ABS,
    "right": Sidedness.RIGHT_TAIL,
    "left": Sidedness.LEFT_TAIL,
    "equal-tail": Sidedness.EQUAL_TAIL,
}

_SCALAR_KEYS = (
    "n", "j", "beta", "methods", "statistic", "sided", "alpha", "l", "reps", "seed",
    "demean", "clustered", "b_grid",
)

_KNOWN_KEYS = {*_SCALAR_KEYS, *_COMPONENTS} | {
    f"{key}.{f.name}"
    for key, (_, choices) in _COMPONENTS.items()
    for cls in filter(None, choices.values())
    for f in fields(cls)
}


def build_scheme(token: str, **params):
    """Construct a built-in scheme from its CLI/config token, passing
    the ``params`` (``m``, ``sigma``, ``by_cluster``) it takes."""
    cls = _COMPONENTS["scheme"][1].get(token)
    if cls is None:
        raise ConfigError(f"unknown scheme {token!r}; expected one of {', '.join(SCHEME_TOKENS)}")
    return cls(**{f.name: params[f.name] for f in fields(cls) if f.name in params})


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


def _parse_component(key: str, kv: dict[str, str], lines: dict[str, int]):
    """Build component ``key`` from its token and the sub-keys its
    class declares; a sub-key of another token is an error."""
    default, choices = _COMPONENTS[key]
    token = kv.get(key, default).lower()
    if token not in choices:
        raise ConfigError(
            f"config key {key!r}: unknown value {token!r}; expected one of {', '.join(choices)}"
        )
    cls = choices[token]
    subs = {f"{key}.{f.name}": f for f in fields(cls)} if cls is not None else {}
    for k in kv:
        if k.startswith(key + ".") and k not in subs:
            raise ConfigError(
                f"config line {lines[k]}: key {k!r} does not apply to {key} = {token}"
            )
    values = {f.name: _parse_scalar(kv[k], k, type(f.default)) for k, f in subs.items() if k in kv}
    return None if cls is None else cls(**values)


def parse_experiment_config(source: str | os.PathLike) -> ExperimentConfig:
    """Read a key=value experiment file.

    Lines are ``key = value``; ``#`` starts a comment; keys are
    case-insensitive.  Unknown keys, and sub-keys of a component token
    that was not chosen, are errors naming the key.
    """
    with open(source, "r", encoding="utf-8") as fh:
        text = fh.read()
    kv: dict[str, str] = {}
    lines: dict[str, int] = {}
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
        lines[key] = lineno

    def take(key, kind, default):
        if key not in kv:
            return default
        return _parse_scalar(kv[key], key, kind)

    for required in ("n", "j"):
        if required not in kv:
            raise ConfigError(f"config is missing required key {required!r}")
    N = _parse_scalar(kv["n"], "n", int)
    J = _parse_scalar(kv["j"], "j", int)
    parts = {name: _parse_component(key, kv, lines) for name, key in _DGP_COMPONENTS.items()}
    dgp = DGPSpec(N=N, J=J, beta=take("beta", float, 1.0), **parts)

    scheme = _parse_component("scheme", kv, lines)
    stat_token = take("statistic", str, "t1").lower()
    try:
        statistic = Statistic(stat_token)
    except ValueError:
        raise ConfigError(f"config key 'statistic': unknown value {stat_token!r}") from None
    sided_token = take("sided", str, "two-sided").lower()
    if sided_token not in SIDEDNESS_BY_TOKEN:
        raise ConfigError(f"config key 'sided': unknown value {sided_token!r}")
    alpha = take("alpha", float, 0.05)
    L = take("l", int, 199)
    demean = take("demean", bool, False)
    clustered = take("clustered", bool, False)
    shared = dict(scheme=scheme, alpha=alpha, sidedness=SIDEDNESS_BY_TOKEN[sided_token],
                  demean=demean, cluster_studentizer=clustered)

    methods = []
    for token in take("methods", str, "ri-t1").lower().split(","):
        token = token.strip()
        if not token:
            continue
        if token == "akm-normal":
            method = MethodSpec(MethodKind.AKM_NORMAL, alpha=alpha, cluster_studentizer=clustered)
        elif token == "enumeration":
            method = MethodSpec(MethodKind.ENUMERATION, statistic=statistic, **shared)
        elif token in ("ri-t0", "ri-t1", "ri-t2"):
            method = MethodSpec(MethodKind.RI, statistic=Statistic(token[3:]), L=L, **shared)
        else:
            raise ConfigError(
                f"config key 'methods': unknown method {token!r}; "
                f"expected one of {', '.join(_METHOD_TOKENS)}"
            )
        methods.append(method)
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
