"""Randomization-inference engine: finite-draw tests, exact enumeration,
nuisance-corrected p-values, and confidence intervals by inversion.

The test compares the observed statistic with its distribution under L
simulated shock vectors.  With K simulated values at least as extreme
as the observed one, the p-value is (1 + K)/(L + 1) and the decision
uses the order-statistic form: reject when the observed value strictly
exceeds the k-th smallest simulated value, k = L + 1 - ceil(alpha(L+1)).
The two forms agree on every instance, ties included; both are exposed.
The statistics themselves, observed and simulated, are defined in
:mod:`shiftshare_ri.estimator` and the transformation groups in
:mod:`shiftshare_ri.schemes`; this module draws, counts and decides.  A
confidence set draws and prepares its shocks once for its whole grid,
and counts a point from per-draw coefficients in b wherever rounding
cannot flip a count.

Determinism contract: each draw l has its own counter-based generator
keyed by (seed, draw domain, l), so extending L keeps the first draws
unchanged.  The draws of a test are computed in one batch from those
keys (see :mod:`shiftshare_ri.rng`); the ``threads`` arguments are
accepted but do not change results.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .design import ShiftShareDesign, null_residuals
from .errors import ConfigError, DataValidationError, DegenerateDrawError
from .estimator import Statistic, _Draws, _NullStatistic
from .rng import draw_keys, keyed_generators
from .schemes import ENUMERATION_BLOCK, ENUMERATION_LIMIT, KnownDistribution, SignChange, SimulationScheme
from .schemes import check_enumerable

# Replacement attempts per degenerate draw before giving up; the global
# budget is therefore at most 10 * L discarded draws.
MAX_ATTEMPTS_PER_DRAW = 10

_ENUM_BLOCK = ENUMERATION_BLOCK  # tests shrink it to walk small groups in several blocks

# A confidence set counts its points from per-draw coefficients in b when
# the design has at least this many sectors.  With fewer, the exact batch
# at a point (a few passes over the (L, J) draws) costs no more than the
# coefficients' passes over L values, and a draw that ties t_obs at every
# point (all signs +1 or -1, the identity permutation) is likely among L.
_FILTER_MIN_SECTORS = 64
# The coefficients are evaluated at this many (draw, grid point) pairs at
# a time: whole blocks of points amortise the per-call cost while the
# arrays stay about 128 KB.
_FILTER_CHUNK = 2**14


class Sidedness(enum.Enum):
    TWO_SIDED_ABS = "two-sided-abs"
    RIGHT_TAIL = "right-tail"
    LEFT_TAIL = "left-tail"
    EQUAL_TAIL = "equal-tail"


def _as_int(value) -> int | None:
    """``value`` as a plain int; None for bools and non-integers."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    return None


@dataclass(frozen=True)
class TestSpec:
    """Everything that defines one randomization test.

    Attributes
    ----------
    b : float
        Null value for the coefficient.
    statistic : Statistic
    scheme : SimulationScheme
    L : int
        Number of simulated draws (default 999, making alpha*(L+1)
        integral for the usual levels).
    alpha : float
        Nominal level in (0, 1).
    sidedness : Sidedness
        How simulated and observed statistics are compared.  EqualTail
        runs the two one-sided tests at alpha/2 each and rejects on
        either; its reported p-value is min(1, 2*min(p_left, p_right)).
    seed : int
        Base seed for the per-draw generators.
    demean : bool
        Subtract the cross-sector mean from observed and simulated
        shocks before evaluating statistics.
    cluster_studentizer : bool
        For T1, sum sector terms within shock clusters before squaring
        in the studentizer (requires cluster labels on the design).
    """

    __test__ = False  # not a test case, despite the Test* name

    b: float
    statistic: Statistic
    scheme: SimulationScheme
    L: int = 999
    alpha: float = 0.05
    sidedness: Sidedness = Sidedness.TWO_SIDED_ABS
    seed: int = 0
    demean: bool = False
    cluster_studentizer: bool = False

    def __post_init__(self):
        if not np.isfinite(self.b):
            raise ConfigError(f"null value b must be finite, got {self.b}")
        L = _as_int(self.L)
        if L is None or L < 1:
            raise ConfigError(f"L must be a positive integer, got {self.L!r}")
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        seed = _as_int(self.seed)
        if seed is None or not 0 <= seed < 2**64:
            raise ConfigError("seed must be an unsigned 64-bit integer")
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "seed", seed)
        if self.cluster_studentizer and self.statistic is not Statistic.T1:
            raise ConfigError("cluster_studentizer applies to the T1 statistic only")


@dataclass(frozen=True)
class RITestResult:
    """Outcome of one randomization test.

    Attributes
    ----------
    t_obs : float
        Statistic at the observed shocks.
    t_sims : ndarray
        Simulated statistics; length L (or the group size under exact
        enumeration).
    p_value : float
        Finite-draw p-value in (0, 1].
    reject : bool
        Order-statistic decision at the requested level.
    n_degenerate_redraws : int
        Draws discarded for a numerically zero studentizer.
    """

    t_obs: float
    t_sims: np.ndarray
    p_value: float
    reject: bool
    n_degenerate_redraws: int


def critical_count(alpha: float, L: int) -> int:
    """ceil(alpha * (L + 1)) with a guard against float noise just
    above an integer (0.05 * 1000 must give 50, not 51)."""
    return max(1, math.ceil(alpha * (L + 1) - 1e-9))


def psi(values, sidedness: Sidedness):
    """Map statistics to the scale on which extremeness is judged."""
    values = np.asarray(values)
    if sidedness is Sidedness.TWO_SIDED_ABS:
        return np.abs(values)
    if sidedness is Sidedness.RIGHT_TAIL:
        return values
    if sidedness is Sidedness.LEFT_TAIL:
        return -values
    raise ConfigError("equal-tail tests are decided per side; psi is undefined for them")


def _sides(sidedness: Sidedness) -> tuple[Sidedness, ...]:
    """The one-sided comparisons a test counts: both tails for equal-tail
    tests."""
    if sidedness is Sidedness.EQUAL_TAIL:
        return (Sidedness.RIGHT_TAIL, Sidedness.LEFT_TAIL)
    return (sidedness,)


def _count_p(counts: list[int], n: int, sidedness: Sidedness, offset: int) -> float:
    """(offset + K) / (n + offset) from the count K of each side of
    :func:`_sides`.  Equal-tail tests report min(1, 2*min(p_right,
    p_left)); since both scalings are exact, that is <= alpha exactly
    when one side's p-value is <= alpha/2."""
    ps = [(offset + k) / (n + offset) for k in counts]
    return min(1.0, 2.0 * min(ps)) if sidedness is Sidedness.EQUAL_TAIL else ps[0]


def _tail_p(t_obs: float, values: np.ndarray, valid, sidedness: Sidedness, offset: int) -> float:
    """(offset + #{valid, psi(v) >= psi(t_obs)}) / (#{valid} + offset)
    per side (:func:`_count_p`): values not marked ``valid`` are
    conditioned out."""
    n_valid = int(np.count_nonzero(valid)) if np.ndim(valid) else values.shape[0]
    counts = [
        int(np.count_nonzero(valid & (psi(values, s) >= psi(t_obs, s)))) for s in _sides(sidedness)
    ]
    return _count_p(counts, n_valid, sidedness, offset)


def p_value_from_stats(t_obs: float, t_sims: np.ndarray, sidedness: Sidedness) -> float:
    """Finite-draw p-value (1 + #{psi(sim) >= psi(obs)}) / (L + 1)."""
    return _tail_p(t_obs, t_sims, True, sidedness, 1)


def reject_by_pvalue(t_obs: float, t_sims: np.ndarray, alpha: float, sidedness: Sidedness) -> bool:
    """p-value rejection rule: p <= ceil(alpha(L+1))/(L+1), per side at
    alpha/2 for equal-tail tests."""
    L = t_sims.shape[0]
    if sidedness is Sidedness.EQUAL_TAIL:
        return reject_by_pvalue(t_obs, t_sims, alpha / 2, Sidedness.RIGHT_TAIL) or reject_by_pvalue(
            t_obs, t_sims, alpha / 2, Sidedness.LEFT_TAIL
        )
    c = critical_count(alpha, L)
    return p_value_from_stats(t_obs, t_sims, sidedness) <= c / (L + 1)


def reject_by_order_statistic(
    t_obs: float, t_sims: np.ndarray, alpha: float, sidedness: Sidedness
) -> bool:
    """Order-statistic rejection rule: psi(t_obs) strictly exceeds the
    k-th smallest simulated psi value, k = L + 1 - ceil(alpha(L+1));
    k = 0 means always reject."""
    L = t_sims.shape[0]
    if sidedness is Sidedness.EQUAL_TAIL:
        return reject_by_order_statistic(
            t_obs, t_sims, alpha / 2, Sidedness.RIGHT_TAIL
        ) or reject_by_order_statistic(t_obs, t_sims, alpha / 2, Sidedness.LEFT_TAIL)
    c = critical_count(alpha, L)
    k = L + 1 - c
    if k <= 0:
        return True
    kth = np.partition(psi(t_sims, sidedness), k - 1)[k - 1]
    return bool(psi(t_obs, sidedness) > kth)


# ---------------------------------------------------------------------------
# Draw generation


def generate_draws(
    design: ShiftShareDesign,
    scheme: SimulationScheme,
    L: int,
    seed: int,
    b: float = 0.0,
    threads: int = 1,
) -> np.ndarray:
    """Simulated shock matrix, C-contiguous float64 of shape (L, J);
    row l is the draw from the generator keyed by (seed, l).

    The draws are computed in one batch; ``threads`` is accepted but
    does not change results.  User samplers see the null residuals at
    ``b``.
    """
    e_b = null_residuals(design, b).e_b
    keys = draw_keys(seed, np.arange(int(L)))
    return scheme.draw_block(keys, design.S, e_b, design.g, cluster_ids=design.cluster_ids)


# ---------------------------------------------------------------------------
# The null problem shared by the sampled, enumerated and Berger-Boos tests


class _NullProblem(_NullStatistic):
    """One test's null problem: the statistic of ``spec`` at ``spec.b``
    (:class:`~shiftshare_ri.estimator._NullStatistic`) and the draws of
    its scheme, built once per (design, spec).

    Degenerate-draw policy: a shock vector whose studentizer is
    numerically zero has no valid statistic, and every test conditions
    on validity.  The sampled tests (ri_test, confidence_interval,
    berger_boos_test) replace a degenerate draw by the next draws of its
    own stream (:meth:`simulate`); exact enumeration leaves degenerate
    group elements out of its counts.
    """

    def __init__(self, design: ShiftShareDesign, spec: TestSpec, b: float | None = None):
        if isinstance(spec.scheme, SignChange) and spec.scheme.by_cluster and design.cluster_ids is None:
            raise DataValidationError("by_cluster sign changes need cluster_ids on the design")
        self.spec = spec
        b = spec.b if b is None else b
        super().__init__(design, b, spec.statistic, spec.cluster_studentizer, spec.demean)

    def simulate(self, draws: _Draws, scheme: SimulationScheme) -> tuple[np.ndarray, int]:
        """Statistics of the draws of ``scheme``, prepared by
        :meth:`prepare`, and the number of redraws: a degenerate draw l
        is replaced by the next draws of its own keyed stream, up to
        ``MAX_ATTEMPTS_PER_DRAW`` in all."""
        t_sims, valid = self.evaluate_prepared(draws)
        bad = np.flatnonzero(~valid)
        if bad.size == 0:
            return t_sims, 0

        def draw(rng):
            d = self.design
            return scheme.draw(rng, d.S, self.e_b, d.g, cluster_ids=d.cluster_ids)

        n_redraws = 0
        for l, rng in zip(bad, keyed_generators(draw_keys(self.spec.seed, bad))):
            draw(rng)  # the degenerate draw itself
            for _ in range(1, MAX_ATTEMPTS_PER_DRAW):
                n_redraws += 1
                value, ok = self.evaluate(draw(rng)[None, :])
                if ok[0]:
                    t_sims[l] = value[0]
                    break
            else:
                raise DegenerateDrawError(
                    f"draw {int(l)}: studentizer degenerate after {MAX_ATTEMPTS_PER_DRAW} attempts"
                )
        return t_sims, n_redraws

    def decide(self, t_sims: np.ndarray) -> tuple[float, bool]:
        """The p-value and the order-statistic decision of ``t_obs``
        against ``t_sims``."""
        sided = self.spec.sidedness
        p = p_value_from_stats(self.t_obs, t_sims, sided)
        return p, reject_by_order_statistic(self.t_obs, t_sims, self.spec.alpha, sided)

    def decide_by_count(self, values: np.ndarray, margins: np.ndarray) -> tuple[float, bool] | None:
        """:meth:`decide`'s p-value and decision from approximate draw
        values, each within its margin of the value :meth:`simulate`
        would give (:class:`~shiftshare_ri.estimator._Coefficients`), or
        None when some draw's psi lies within its margin of psi(t_obs).

        A draw farther than its margin lies on the same side of t_obs
        as the exact value, so each side's count K = #{psi(v) >=
        psi(t_obs)} is exact: p = (1 + K)/(L + 1), and the order
        statistic rejects exactly when K < ``critical_count``, per side
        at alpha/2 for equal-tail tests."""
        sided, L = self.spec.sidedness, values.shape[0]
        counts = []
        for side in _sides(sided):
            gap = psi(values, side) - psi(self.t_obs, side)
            if not np.all(np.abs(gap) > margins):
                return None
            counts.append(int(np.count_nonzero(gap > 0)))
        alpha = self.spec.alpha / 2 if sided is Sidedness.EQUAL_TAIL else self.spec.alpha
        c = critical_count(alpha, L)
        return _count_p(counts, L, sided, 1), any(k < c for k in counts)


def ri_test(
    design: ShiftShareDesign,
    spec: TestSpec,
    threads: int = 1,
    _raw_draws: np.ndarray | None = None,
) -> RITestResult:
    """Run one randomization test.

    The simulated statistics re-evaluate the null-form statistic with
    the observed shocks replaced by each draw; for T2 this equals
    rebuilding outcomes ``Y* = b Z* + e_b`` and re-estimating.  Each
    degenerate draw is replaced by the next draws of its own stream.
    ``threads`` is accepted but does not change results.
    """
    null = _NullProblem(design, spec)
    if _raw_draws is None:
        _raw_draws = generate_draws(design, spec.scheme, spec.L, spec.seed, b=spec.b, threads=threads)
    t_sims, n_redraws = null.simulate(null.prepare(_raw_draws), spec.scheme)
    p, reject = null.decide(t_sims)
    t_sims.flags.writeable = False
    return RITestResult(
        t_obs=null.t_obs, t_sims=t_sims, p_value=p, reject=reject, n_degenerate_redraws=n_redraws
    )


# ---------------------------------------------------------------------------
# Exact enumeration


def exact_enumeration_test(design: ShiftShareDesign, spec: TestSpec) -> RITestResult:
    """Enumerate the statistic over the whole transformation group.

    Walks the scheme's ``group`` (sign changes and permutations, up to
    ``ENUMERATION_LIMIT`` elements) in blocks of ``_ENUM_BLOCK`` (that is
    ``ENUMERATION_BLOCK``) elements.
    The p-value is the fraction of group elements at least as extreme as
    the identity element, whose value from the same evaluation (not from
    a one-row evaluation, which can differ in the last bits) is reported
    as ``t_obs``; the identity therefore always counts and the p-value is
    strictly positive.  The decision is ``p <= alpha``.  Group elements
    with a degenerate studentizer are conditioned out, p = #{valid, as
    extreme} / #{valid}: under the null, g is uniform on the valid
    elements of its orbit.
    """
    null = _NullProblem(design, spec)
    check_enumerable(spec.scheme)
    size, identity, block = spec.scheme.group(design.g, design.cluster_ids)
    values = np.empty(size)
    valid = np.empty(size, dtype=bool)
    for lo in range(0, size, _ENUM_BLOCK):
        hi = min(lo + _ENUM_BLOCK, size)
        values[lo:hi], valid[lo:hi] = null.evaluate(block(lo, hi))
    t_obs = float(values[identity])
    p = _tail_p(t_obs, values, valid, spec.sidedness, 0)
    values.flags.writeable = False
    return RITestResult(
        t_obs=t_obs, t_sims=values, p_value=p, reject=p <= spec.alpha, n_degenerate_redraws=0
    )


# ---------------------------------------------------------------------------
# Berger-Boos correction for an unknown symmetry point


def berger_boos_test(
    design: ShiftShareDesign,
    spec: TestSpec,
    m_lo: float,
    m_hi: float,
    gamma: float,
    grid_size: int = 21,
) -> float:
    """Sign-change p-value robust to an unknown symmetry point.

    Takes the supremum of the sign-change p-value over a grid on the
    confidence interval ``[m_lo, m_hi]`` for the symmetry point (held
    with confidence 1 - gamma) and adds gamma, capping at 1.  The same
    sign draws are reused at every grid point, so the supremum is not
    inflated by simulation noise.  Degenerate draws are replaced as in
    :func:`ri_test`, so a point interval with ``gamma = 0`` gives the
    plain test's p-value.
    """
    if not isinstance(spec.scheme, SignChange):
        raise ConfigError("the symmetry-point correction applies to sign-change schemes")
    if not (np.isfinite(m_lo) and np.isfinite(m_hi)) or m_lo > m_hi:
        raise ConfigError(f"invalid symmetry-point interval [{m_lo}, {m_hi}]")
    if not (0.0 <= gamma < 1.0):
        raise ConfigError(f"gamma must lie in [0, 1), got {gamma}")
    if grid_size < 2:
        raise ConfigError(f"grid_size must be at least 2, got {grid_size}")
    null = _NullProblem(design, spec)

    kappa = spec.scheme.sign_block(draw_keys(spec.seed, np.arange(spec.L)), design.J, design.cluster_ids)

    grid = np.unique(np.linspace(m_lo, m_hi, grid_size)) if m_hi > m_lo else np.array([m_lo])
    schemes = (replace(spec.scheme, m=m) for m in grid)
    sims = (null.simulate(null.prepare(scheme.apply(kappa, design.g)), scheme) for scheme in schemes)
    worst = max(p_value_from_stats(null.t_obs, t_sims, spec.sidedness) for t_sims, _ in sims)
    return min(1.0, worst + gamma)


# ---------------------------------------------------------------------------
# Confidence intervals by test inversion


@dataclass(frozen=True)
class ConfidenceIntervalResult:
    """Test-inversion confidence set over a grid of null values.

    Attributes
    ----------
    b_grid : ndarray
        The evaluated null values.
    p_values : ndarray
        p-value at each grid point.
    retained : ndarray of bool
        Grid points whose test does not reject.
    hull : tuple or None
        (min, max) of the retained values; None when nothing is
        retained.
    disconnected : bool
        True when the retained set has interior gaps; the hull then
        overstates the confidence set.
    n_degenerate_redraws : int
        Total discarded draws across grid points.
    """

    b_grid: np.ndarray
    p_values: np.ndarray
    retained: np.ndarray
    hull: tuple[float, float] | None
    disconnected: bool
    n_degenerate_redraws: int

    @property
    def retained_values(self) -> np.ndarray:
        return self.b_grid[self.retained]


def confidence_interval(
    design: ShiftShareDesign,
    spec: TestSpec,
    b_grid,
    threads: int = 1,
) -> ConfidenceIntervalResult:
    """Invert the test over ``b_grid``: retain every b whose test does
    not reject at ``spec.alpha``.

    The same draws (same seed, same generator streams) are applied at
    every grid point, so interval endpoints move with the data rather
    than with simulation jitter.  They are prepared once per confidence
    set (:meth:`_NullProblem.prepare`: the demeaned draws, and T2's
    product with the Gram matrix), and on designs with at least
    ``_FILTER_MIN_SECTORS`` sectors so are their coefficients in b
    (:meth:`_NullProblem.coefficients`).  Each point builds its own null
    problem, so its observed statistic and errors are :func:`ri_test`'s.
    When every draw's value from the coefficients lies farther from the
    observed statistic than its rounding margin, the point's p-value
    and decision come from that count
    (:meth:`_NullProblem.decide_by_count`).  Otherwise, and for
    ``KnownDistribution`` draws, which are redrawn at each point, the
    point evaluates the draws at its own residuals and decides as
    :func:`ri_test` does.  Either way the results are :func:`ri_test`'s,
    bit for bit.  ``threads`` is accepted but does not change results.
    """
    b_grid = np.asarray(b_grid, dtype=np.float64)
    if b_grid.ndim != 1 or b_grid.size == 0:
        raise ConfigError("b_grid must be a nonempty 1-d array")
    if not np.all(np.isfinite(b_grid)):
        raise ConfigError("b_grid must be finite")
    if np.any(np.diff(b_grid) < 0):
        raise ConfigError("b_grid must be sorted in increasing order")

    # Built-in schemes draw independently of the residuals, so the
    # prepared draws can be shared across grid points; user samplers may
    # read e_b and are regenerated at each b.
    shared = None
    if not isinstance(spec.scheme, KnownDistribution):
        shared = generate_draws(design, spec.scheme, spec.L, spec.seed, b=spec.b, threads=threads)

    p_values = np.empty(b_grid.shape)
    retained = np.empty(b_grid.shape, dtype=bool)
    total_redraws = 0
    draws = coefficients = None
    chunk = max(1, _FILTER_CHUNK // spec.L)
    for i, b in enumerate(b_grid.tolist()):
        null = _NullProblem(design, spec, b)
        if shared is None:
            draws = null.prepare(generate_draws(design, spec.scheme, spec.L, spec.seed, b=b))
        elif draws is None:
            draws = null.prepare(shared)
            if design.J >= _FILTER_MIN_SECTORS:
                coefficients = null.coefficients(draws)
        decision = None
        if coefficients is not None:
            if i % chunk == 0:
                values, margins = coefficients.at(b_grid[i : i + chunk])
            decision = null.decide_by_count(values[i % chunk], margins[i % chunk])
        if decision is None:
            t_sims, n_redraws = null.simulate(draws, spec.scheme)
            decision = null.decide(t_sims)
            total_redraws += n_redraws
        p_values[i], reject = decision
        retained[i] = not reject

    if retained.any():
        vals = b_grid[retained]
        hull = (float(vals.min()), float(vals.max()))
        idx = np.flatnonzero(retained)
        disconnected = bool(idx[-1] - idx[0] + 1 != idx.size)
    else:
        hull = None
        disconnected = False
    for arr in (b_grid, p_values, retained):
        arr.flags.writeable = False
    return ConfidenceIntervalResult(
        b_grid=b_grid,
        p_values=p_values,
        retained=retained,
        hull=hull,
        disconnected=disconnected,
        n_degenerate_redraws=total_redraws,
    )
