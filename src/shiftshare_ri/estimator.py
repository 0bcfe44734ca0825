"""Point estimation, shock-robust variances, and test statistics.

The estimator is the ratio ``beta_hat = sum(Z*Y) / sum(Z*X)``.  Variance
estimators aggregate residuals to sector level first, so every statistic
here reduces to operations on the J-vector of sector residual sums

    a_j = sum_i e_b[i] * S[i, j]

which is also what makes re-evaluating a statistic across thousands of
simulated shock vectors cheap: ``a`` is fixed, only the shocks move.

Batched kernels accept an (L, J) matrix of shock draws and return the
numerator and studentizer per draw; division and degenerate-draw
handling are left to the caller.  The T2 kernel also needs the simulated
instrument Z* = S g*, but only through ``sum Z*^2`` and ``S'Z*``, both
of which it takes from the J x J Gram matrix ``S'S``: its cost is
O(L J^2) and it never builds an (L, N) matrix.

The test statistics are defined here, once: ``_NullStatistic``
evaluates one null hypothesis's statistic, and judges its validity, on
any matrix of shock vectors, the observed row included; ``stat_t1``,
``stat_t2`` and every test in :mod:`shiftshare_ri.ri` read it.  Only
``a`` depends on the null value, so it splits each statistic into the
work on the shock rows alone (demeaning, ``G * G``, T2's ``G K`` and
``g*'K g*``) and the work with ``a``: a confidence set prepares its
draws once for its whole grid.  Since ``a(b) = S'Y - b S'X``, each
prepared draw's numerator and squared studentizer are also polynomials
in b: ``_Coefficients`` holds their per-draw coefficients and bounds how
far the values they give can lie from the values ``evaluate_prepared``
computes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .design import ShiftShareDesign, null_residuals
from .errors import (
    DataValidationError,
    DegenerateInstrumentError,
    NotReducedFormError,
    ZeroVarianceError,
)

# |sum(Z*X)| at or below this multiple of sum(|Z*X|) means the first
# stage carries no signal and ratios of the form (.)/sum(Z*X) are noise.
DEGENERATE_DENOM_RTOL = 1e-14

# Studentizers at or below this are treated as numerically zero.
ZERO_STUDENTIZER = 1e-300

# An observed T2 studentizer at or below this multiple of the size of the
# terms it is the difference of is rounding residue: on a rank-deficient
# exposure matrix it is exactly zero for every shock vector.
T2_CANCELLATION_RTOL = 1e-10


class VarianceKind(enum.Enum):
    NULL_IMPOSED = "null_imposed"
    PLUG_IN = "plug_in"


@dataclass(frozen=True)
class EstimateResult:
    """Shift-share point estimate.

    Attributes
    ----------
    beta_hat : float
        The ratio estimator ``sum(Z*Y) / sum(Z*X)``.
    denom : float
        First-stage cross moment ``sum(Z*X)``.
    """

    beta_hat: float
    denom: float


@dataclass(frozen=True)
class VarianceResult:
    """A shock-robust variance estimate.

    Attributes
    ----------
    value : float
        The variance estimate, ``sum(per_sector_terms) / denom**2``.
    kind : VarianceKind
        Null-imposed (residuals at the hypothesized b) or plug-in
        (residuals at the point estimate).
    per_sector_terms : ndarray
        Squared sector-level (or cluster-level) sums forming the
        numerator, exposed for concentration diagnostics.
    denom : float
        The denominator base before squaring: ``sum(Z*X)`` for the
        null-imposed kind, ``sum(X**2)`` for the plug-in kind.
    """

    value: float
    kind: VarianceKind
    per_sector_terms: np.ndarray
    denom: float


def _first_stage_denom(design: ShiftShareDesign) -> float:
    denom = float(design.Z @ design.X)
    gross = float(np.abs(design.Z * design.X).sum())
    if abs(denom) <= DEGENERATE_DENOM_RTOL * gross or gross == 0.0:
        raise DegenerateInstrumentError(
            f"first-stage cross moment sum(Z*X) = {denom:.3e} is degenerate "
            f"relative to sum(|Z*X|) = {gross:.3e}"
        )
    return denom


def shift_share_estimate(design: ShiftShareDesign) -> EstimateResult:
    """Compute ``beta_hat = sum(Z*Y) / sum(Z*X)``.

    Raises a degenerate-instrument error when the denominator is zero
    or negligible relative to its gross magnitude.
    """
    denom = _first_stage_denom(design)
    return EstimateResult(beta_hat=float(design.Z @ design.Y) / denom, denom=denom)


def sector_residual_sums(S: np.ndarray, e_b: np.ndarray) -> np.ndarray:
    """Aggregate residuals to sector level: ``a = S' e_b``, shape (J,)."""
    return np.asarray(S).T @ np.asarray(e_b)


def variance_null_imposed(design: ShiftShareDesign, b: float) -> VarianceResult:
    """Null-imposed variance: ``sum_j (a_j g_j)^2 / (sum(Z*X))^2``
    with ``a_j`` built from residuals at the hypothesized ``b``."""
    denom = _first_stage_denom(design)
    a = sector_residual_sums(design.S, null_residuals(design, b).e_b)
    terms = (a * design.g) ** 2
    return VarianceResult(
        value=float(terms.sum()) / denom**2,
        kind=VarianceKind.NULL_IMPOSED,
        per_sector_terms=terms,
        denom=denom,
    )


def variance_plugin(design: ShiftShareDesign) -> VarianceResult:
    """Plug-in variance with residuals at the point estimate and
    denominator ``(sum(X**2))^2``; requires the reduced form (X = Z),
    where that denominator coincides with ``(sum(Z*X))^2``."""
    if not design.reduced_form:
        raise NotReducedFormError(
            "plug-in variance divides by (sum(X^2))^2, which matches the "
            "instrument cross moment only when X equals Z"
        )
    beta_hat = shift_share_estimate(design).beta_hat
    a = sector_residual_sums(design.S, design.Y - beta_hat * design.X)
    terms = (a * design.g) ** 2
    denom = float(design.X @ design.X)
    return VarianceResult(
        value=float(terms.sum()) / denom**2,
        kind=VarianceKind.PLUG_IN,
        per_sector_terms=terms,
        denom=denom,
    )


def cluster_members(cluster_ids: np.ndarray) -> np.ndarray:
    """One-hot membership matrix, shape (J, C), from integer labels."""
    cluster_ids = np.asarray(cluster_ids)
    uniq = np.unique(cluster_ids)
    return (cluster_ids[:, None] == uniq[None, :]).astype(np.float64)


def variance_clustered(design: ShiftShareDesign, b: float) -> VarianceResult:
    """Null-imposed variance with the numerator summed within shock
    clusters: ``sum_c (sum_{j in c} a_j g_j)^2 / (sum(Z*X))^2``."""
    if design.cluster_ids is None:
        raise DataValidationError("design has no cluster_ids; clustered variance needs them")
    denom = _first_stage_denom(design)
    a = sector_residual_sums(design.S, null_residuals(design, b).e_b)
    per_cluster = (a * design.g) @ cluster_members(design.cluster_ids)
    terms = per_cluster**2
    return VarianceResult(
        value=float(terms.sum()) / denom**2,
        kind=VarianceKind.NULL_IMPOSED,
        per_sector_terms=terms,
        denom=denom,
    )


# ---------------------------------------------------------------------------
# Batched statistic kernels over an (L, J) matrix of shock draws.
# Each returns (num, den) per draw; the statistic is num/den where den
# is valid.  ``a`` is the fixed sector residual sum vector.


def batch_t0(a: np.ndarray, G: np.ndarray, N: int) -> np.ndarray:
    """Unstudentized statistic ``(1/N) sum_j a_j g_j`` per draw."""
    return (G @ a) / float(N)


def batch_t1(a: np.ndarray, G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Null-studentized statistic: numerator ``sum_j a_j g_j``,
    studentizer ``sqrt(sum_j a_j^2 g_j^2)``."""
    return _t1(a, G, G * G)


def _t1(a: np.ndarray, G: np.ndarray, GG: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`batch_t1` given ``GG = G * G``, which does not depend on ``a``."""
    return G @ a, np.sqrt(GG @ (a * a))


def batch_t1_clustered(
    a: np.ndarray, G: np.ndarray, members: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """T1 with the studentizer summing ``a_j g_j`` within clusters
    before squaring; ``members`` is the (J, C) one-hot matrix."""
    num = G @ a
    per_cluster = (G * a[None, :]) @ members
    den = np.sqrt((per_cluster**2).sum(axis=1))
    return num, den


@dataclass(eq=False)
class _Draws:
    """The side of a statistic that depends on the shock rows alone, not
    on ``a``: the rows ``G`` (demeaned when asked), ``GG = G * G`` for
    the plain T1 studentizer and, for T2, ``KG = G K``, ``ssq =
    rowsum(KG * G)``, its safe divisor and an (L, J) work buffer.  A grid
    of null values computes it once for all of its points."""

    G: np.ndarray
    GG: np.ndarray | None = None
    KG: np.ndarray | None = None
    ssq: np.ndarray | None = None
    safe: np.ndarray | None = None
    work: np.ndarray | None = None


def _t2_draws(G: np.ndarray, K: np.ndarray) -> _Draws:
    """The part of :func:`_t2_gram` that does not read ``a``."""
    KG = G @ K
    ssq = (KG * G).sum(axis=1)
    return _Draws(G, KG=KG, ssq=ssq, safe=np.where(ssq > 0, ssq, 1.0), work=np.empty_like(KG))


def _t2_residuals(a: np.ndarray, D: _Draws, rtol: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The residual side of :func:`_t2_gram` on prepared draws: the
    studentizer's (L, J) terms are built in ``D.work``."""
    G, KG, ssq = D.G, D.KG, D.ssq
    num = G @ a
    c = num / D.safe
    terms = np.multiply(c[:, None], KG, out=D.work)
    np.subtract(a[None, :], terms, out=terms)  # a~ = a - c (Kg)
    np.multiply(terms, G, out=terms)
    np.square(terms, out=terms)
    den = np.sqrt(terms.sum(axis=1))
    den = np.where(ssq > 0, den, 0.0)
    if rtol:
        scale = np.sqrt(((a[None, :] * G) ** 2).sum(axis=1) + c**2 * ((KG * G) ** 2).sum(axis=1))
        den = np.where(den > rtol * scale, den, 0.0)
    return num, den


def _t2_gram(
    a: np.ndarray, G: np.ndarray, K: np.ndarray, rtol: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`batch_t2` given the exposure Gram matrix ``K = S'S``.

    With Z* = S g*, ``sum Z*^2 = g*'K g*`` and ``S'Z* = K g*``, so every
    term is a J-vector per draw: O(L J^2) work and no (L, N) temporary.
    A draw whose simulated instrument has no positive squared norm gets
    studentizer 0 (invalid).  So does a draw whose studentizer is at or
    below ``rtol`` times sqrt(sum_j (a_j g_j)^2 + c^2 sum_j ((Kg)_j g_j)^2),
    c = num / g'Kg, the size of the two terms of a~_j g_j = a_j g_j -
    c (Kg)_j g_j.  Callers pass ``T2_CANCELLATION_RTOL`` for the observed
    shocks only: on every draw the check adds about 40% to the kernel's
    time (L = 999, J = 200).  It is the composition of :func:`_t2_draws`,
    which holds the O(L J^2) product, and :func:`_t2_residuals`.
    """
    return _t2_residuals(a, _t2_draws(G, K), rtol)


def batch_t2(a: np.ndarray, G: np.ndarray, S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Estimate-studentized statistic for reduced-form designs.

    Per draw g*: with Z* = S g*, the numerator is sum_i Z*_i e_b[i] =
    sum_j a_j g*_j; the studentizer rebuilds plug-in residuals by
    partialling Z* out of e_b, which at sector level is
    a~ = a - (num / sum Z*^2) * S'Z*.  Both Z* terms are evaluated
    through the Gram matrix S'S (see :func:`_t2_gram`); callers holding
    a design pass ``design.gram`` to ``_t2_gram`` to reuse it.
    """
    return _t2_gram(a, G, S.T @ S)


def stat_t0(g: np.ndarray, S: np.ndarray, e_b: np.ndarray) -> float:
    """Unstudentized statistic ``(1/N) sum_i (s_i'g) e_b[i]``."""
    S = np.asarray(S, dtype=np.float64)
    a = sector_residual_sums(S, np.asarray(e_b, dtype=np.float64))
    return float(batch_t0(a, np.asarray(g, dtype=np.float64)[None, :], S.shape[0])[0])


# ---------------------------------------------------------------------------
# The statistic of a test as one function of the shocks


class Statistic(enum.Enum):
    """Which test statistic to simulate.

    T0 is the unstudentized exposure-weighted residual average, T1 the
    null-studentized ratio, T2 the estimate-studentized ratio (reduced
    form only).
    """

    T0 = "t0"
    T1 = "t1"
    T2 = "t2"


# What leaves the statistic undefined at the observed shocks.
_UNDEFINED_AT_OBSERVED = {
    Statistic.T0: "is not finite",
    Statistic.T1: "has a numerically zero studentizer: the null residuals are orthogonal to every "
    "shocked sector",
    Statistic.T2: "has a numerically zero studentizer: the exposure matrix has rank one (e.g. every "
    "unit has the same exposure row), or the null residuals' projection on the exposures is "
    "otherwise collinear with the instrument",
}


class _NullStatistic:
    """The statistic at null value ``b`` as a function of the shocks:
    the null residuals ``e_b``, their sector sums ``a``, the cluster
    members of a clustered T1 studentizer, and ``t_obs``, the row of
    :meth:`evaluate` at the observed shocks.

    :meth:`evaluate` is the composition of :meth:`prepare`, the work on
    the shock rows alone, and :meth:`evaluate_prepared`, the work with
    ``a``.  :meth:`prepare` depends on the design, the statistic and
    demeaning but not on ``b``, so a grid of null values can prepare its
    draws once and evaluate them at each point."""

    def __init__(
        self, design: ShiftShareDesign, b: float, statistic: Statistic, clustered=False, demean=False
    ):
        if statistic is Statistic.T2 and not design.reduced_form:
            raise NotReducedFormError("the T2 statistic needs a reduced-form design (X = Z)")
        if clustered and design.cluster_ids is None:
            raise DataValidationError("a clustered T1 studentizer needs cluster_ids on the design")
        if demean and np.ptp(design.g) == 0:
            # the demeaned observed shocks are zero, or rounding residue of zero
            raise ZeroVarianceError(
                f"the observed {statistic.name} statistic is undefined: demeaning removed every "
                "shock, since the observed shocks are all equal"
            )
        self.design = design
        self.statistic = statistic
        self.demean = demean
        self.e_b = null_residuals(design, b).e_b
        self.a = sector_residual_sums(design.S, self.e_b)
        self.members = cluster_members(design.cluster_ids) if clustered else None
        values, valid = self.evaluate(design.g[None, :], observed=True)
        if not valid[0]:
            raise ZeroVarianceError(
                f"the observed {statistic.name} statistic {_UNDEFINED_AT_OBSERVED[statistic]}"
            )
        self.t_obs = float(values[0])

    def evaluate(self, G: np.ndarray, observed: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Return (values, valid) per row of the shock matrix G, rows
        demeaned first when asked for; invalid values are NaN;
        ``observed`` judges T2 studentizers against their rounding
        scale, as :func:`_t2_gram` describes."""
        return self.evaluate_prepared(self.prepare(G), observed)

    def prepare(self, G: np.ndarray) -> _Draws:
        """The part of :meth:`evaluate` that reads the shock rows G only."""
        if self.demean:
            G = G - G.mean(axis=1, keepdims=True)
        if self.statistic is Statistic.T2:
            return _t2_draws(G, self.design.gram)
        if self.statistic is Statistic.T1 and self.members is None:
            return _Draws(G, GG=G * G)
        return _Draws(G)

    def evaluate_prepared(self, D: _Draws, observed: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`evaluate` on draws from :meth:`prepare`."""
        if self.statistic is Statistic.T0:
            values = batch_t0(self.a, D.G, self.design.N)
            return values, np.isfinite(values)
        if self.statistic is Statistic.T1:
            if self.members is None:
                num, den = _t1(self.a, D.G, D.GG)
            else:
                num, den = batch_t1_clustered(self.a, D.G, self.members)
        else:
            num, den = _t2_residuals(self.a, D, T2_CANCELLATION_RTOL if observed else 0.0)
        valid = np.isfinite(num) & np.isfinite(den) & (den > ZERO_STUDENTIZER)
        values = np.where(valid, num / np.where(valid, den, 1.0), np.nan)
        return values, valid

    def coefficients(self, D: _Draws) -> _Coefficients | None:
        """The per-draw coefficients in b of the statistic on draws from
        :meth:`prepare` (see :class:`_Coefficients`), or None when a
        magnitude in Y, X, S or the draws lies outside ``_FILTER_RANGE``.
        T2's (L, J) work buffer serves as scratch."""
        sums = self.design._affine_sums
        G = D.G
        absG = np.abs(G, out=D.work if D.work is not None else None)
        lo = min(sums.lo, float(np.min(absG, where=absG > 0, initial=np.inf)))
        hi = max(sums.hi, float(absG.max(initial=0.0)))
        if lo < _FILTER_RANGE[0] or hi > _FILTER_RANGE[1]:
            return None
        a = np.stack([sums.a0, sums.a1], axis=1)
        A = np.stack([sums.abs0, sums.abs1], axis=1)
        nu = (self.design.N + self.design.J + 4) * _UNIT_ROUNDOFF  # k = _FILTER_SAFETY gamma_n
        coef = _Coefficients(self.design.N, _FILTER_SAFETY * nu / (1.0 - nu), _rows(G @ a), _rows(absG @ A))
        if self.statistic is Statistic.T1 and self.members is None:
            coef.den2, coef.den2_scale = _rows(D.GG @ _squares(a)), _rows(D.GG @ _squares(A))
        elif self.statistic is Statistic.T1:
            M = self.members
            coef.den2 = _cluster_squares([(G * a[:, k]) @ M for k in (0, 1)])
            coef.den2_scale = _cluster_squares([(absG * A[:, k]) @ M for k in (0, 1)])
        elif self.statistic is Statistic.T2:
            W = np.multiply(G, G, out=absG)
            coef.den2, coef.den2_scale = _rows(W @ _squares(a)), _rows(W @ _squares(A))
            np.multiply(W, D.KG, out=W)
            coef.cross = _rows(W @ a)
            np.multiply(G, D.KG, out=W)
            coef.r = np.square(W, out=W).sum(axis=1)
            coef.sr, coef.ssq = np.sqrt(coef.r), D.ssq
        return coef


def _rows(x: np.ndarray) -> np.ndarray:
    """The columns of an (L, m) product as m contiguous rows."""
    return np.ascontiguousarray(x.T)


def _squares(a: np.ndarray) -> np.ndarray:
    """(J, 3) columns ``a0^2, a0 a1, a1^2`` of the (J, 2) columns a0, a1."""
    return np.stack([a[:, 0] * a[:, 0], a[:, 0] * a[:, 1], a[:, 1] * a[:, 1]], axis=1)


def _cluster_squares(sums: list[np.ndarray]) -> np.ndarray:
    """(3, L) coefficients of ``sum_c (p0 - b p1)_c^2`` from the (L, C) pair p0, p1."""
    p0, p1 = sums
    return np.stack([(p0 * p0).sum(axis=1), (p0 * p1).sum(axis=1), (p1 * p1).sum(axis=1)])


# The confidence-set filter (_Coefficients) decides a draw only where every
# nonzero magnitude in Y, X, S, the draws and b lies in this range, so that
# no product or sum of its error analysis under- or overflows.
_FILTER_RANGE = (2.0**-100, 2.0**100)
_OVERFLOW_GUARD = 2.0**1000
# Safety factor on the filter's first-order error bounds, whose constants
# are at most 12.
_FILTER_SAFETY = 1e4
_UNIT_ROUNDOFF = 2.0**-53


@dataclass(eq=False)
class _Coefficients:
    """A statistic on prepared draws as a function of the null value b,
    with a margin that bounds its distance from the value
    :meth:`_NullStatistic.evaluate_prepared` computes at b.

    The sector residual sums are ``a(b) = a0 - b a1`` (the design's
    ``_affine_sums``), so each draw g (a prepared row) has coefficients:

    - numerator ``g'a(b) = n0 - b n1`` (``num``);
    - T1: ``den^2 = sum_j g_j^2 a_j(b)^2 = P0 - 2b P1 + b^2 P2``; with
      the clustered studentizer, ``sum_c (sum_{j in c} g_j a_j(b))^2``
      has the same form (``den2``);
    - T2: with ``c = num / ssq``, ``ssq = g'Kg``, ``den^2 = P(b) - 2c Q(b)
      + c^2 R``, where P is T1's, ``Q(b) = sum_j g_j^2 (Kg)_j a_j(b) = Q0
      - b Q1`` (``cross``) and ``R = sum_j g_j^2 (Kg)_j^2`` (``r``);
    - T0: the numerator over N.

    Error bound.  Let u be the unit roundoff, n = N + J + 4 and
    ``gamma_n = n u / (1 - n u)``.  Both a(b) as the engine computes it,
    ``S'(Y - b X)``, and ``a0 - b a1`` lie within ``gamma_n Abar(b)`` of
    the exact a(b), componentwise, where ``Abar(b) = S'|Y| + |b| S'|X|``
    (``abs0``, ``abs1``); a(b) itself cannot serve as the scale, since it
    cancels.  By the standard forward-error bounds of sums and dot
    products (Higham 2002, ch. 3), to first order:

    - the two numerators lie within ``4 gamma_n s`` of each other, with
      ``s(b) = sum_j |g_j| Abar_j(b)`` (``num_scale``);
    - the two T1 ``den^2`` within ``8 gamma_n H``, where H is ``den^2``
      with every ``a_j(b)`` replaced by ``Abar_j(b)`` and every product
      by its magnitude: ``H0 + 2|b| H1 + b^2 H2`` (``den2_scale``);
    - the two T2 ``den^2`` within ``12 gamma_n rho^2 + 4 sqrt(R) dc den
      + 3 R dc^2``, where ``rho = sqrt(H) + (|c| + dc) sqrt(R)`` bounds
      the studentizer and its terms and ``dc = 3 gamma_n s / ssq`` bounds
      the rounding of c.

    The margins put ``k = _FILTER_SAFETY gamma_n`` in place of each
    ``c gamma_n``: ``E_n = k s`` and ``E_d = k H`` (T1) or ``k rho^2 +
    dc' sqrt(R) (dc' sqrt(R) + 6 d~)`` with ``dc' = k s / ssq`` (T2),
    where d~^2 is the approximate ``den^2``; 6 d~ bounds 4 den once
    ``d~^2 > 2 E_d``.  With ``d_lo^2 = d~^2 - E_d``, the value t~ = num /
    d~ then lies within ``E_n / d_lo + |t~| E_d / (d_lo (d~ + d_lo)) + 8 u
    |t~|`` of the engine's value (the last term covers the final square
    roots and divisions).  Where ``d~^2 > 64 E_d``, so that ``d_lo >=
    0.99 d~`` (and ``d_lo > ZERO_STUDENTIZER``), that is at most the
    draw's margin

        (1.01 E_n + |num| (0.51 E_d / d~^2 + 8 u)) / d~.

    The margin is infinite, so that the draw is never decided, inside
    that cancellation band, for T2 where ``ssq <= 0``, where H or
    ``rho^2`` (s for T0) exceeds ``_OVERFLOW_GUARD`` and at b other than
    0 outside ``_FILTER_RANGE``.  A draw with a finite margin has a valid
    engine value, whose comparison with any number farther than the
    margin from t~ comes out as t~'s does.
    """

    N: int
    k: float
    num: np.ndarray
    num_scale: np.ndarray
    den2: np.ndarray | None = None
    den2_scale: np.ndarray | None = None
    cross: np.ndarray | None = None
    r: np.ndarray | None = None
    sr: np.ndarray | None = None
    ssq: np.ndarray | None = None

    def at(self, bs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(values, margins), shape (len(bs), L): row i holds each
        draw's value and margin at null value ``bs[i]``."""
        k = self.k
        b = np.asarray(bs, dtype=np.float64)[:, None]
        ab, one = np.abs(b), np.ones_like(b)
        with np.errstate(all="ignore"):
            num = np.hstack([one, -b]) @ self.num
            e_n = np.hstack([k * one, k * ab]) @ self.num_scale
            if self.den2 is None:
                t = num / float(self.N)
                margin = e_n / self.N + 8.0 * _UNIT_ROUNDOFF * np.abs(t)
                clear = e_n <= k * _OVERFLOW_GUARD
            else:
                d2 = np.hstack([one, -2.0 * b, b * b]) @ self.den2
                scale = np.hstack([one, 2.0 * ab, ab * ab]) @ self.den2_scale
                if self.ssq is None:
                    e_d = k * scale
                else:
                    c, dc = num / self.ssq, e_n / self.ssq
                    d2 -= 2.0 * c * (np.hstack([one, -b]) @ self.cross)
                    d2 += c * c * self.r
                    scale = (np.sqrt(scale) + (np.abs(c) + dc) * self.sr) ** 2
                    e_d = k * scale + dc * self.sr * (dc * self.sr + 6.0 * np.sqrt(d2))
                    e_d[:, self.ssq <= 0] = np.inf
                d = np.sqrt(d2)
                t = num / d
                margin = (1.01 * e_n + np.abs(num) * (0.51 * e_d / d2 + 8.0 * _UNIT_ROUNDOFF)) / d
                clear = (d2 > 64.0 * e_d) & (scale <= _OVERFLOW_GUARD)
            clear &= (b == 0) | ((ab >= _FILTER_RANGE[0]) & (ab <= _FILTER_RANGE[1]))
        return t, np.where(clear, margin, np.inf)


def stat_t1(design: ShiftShareDesign, b: float, clustered: bool = False) -> float:
    """Null-studentized statistic at the observed shocks: the residual
    form ``sum_j a_j g_j / sqrt(sum_j a_j^2 g_j^2)``, which agrees with
    ``(beta_hat - b)/sqrt(V)`` under the null-imposed variance whenever
    ``sum(Z*X) > 0`` (always in the reduced form).  With ``clustered=True``
    the studentizer sums within shock clusters before squaring."""
    return _NullStatistic(design, b, Statistic.T1, clustered=clustered).t_obs


def stat_t2(design: ShiftShareDesign, b: float) -> float:
    """Estimate-studentized statistic ``(beta_hat - b)/sqrt(V_plugin)``
    at the observed shocks; reduced-form designs only."""
    return _NullStatistic(design, b, Statistic.T2).t_obs
