from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from conftest import identity_design, make_design
from shiftshare_ri import (
    ConfigError,
    IIDNormal,
    KnownDistribution,
    Permutation,
    RecentredBootstrap,
    ShiftShareDesign,
    Sidedness,
    SignChange,
    Statistic,
    TestSpec,
    confidence_interval,
    load_design,
    ri_test,
    shift_share_estimate,
)
from shiftshare_ri import ri as ri_module
from dataclasses import replace


def spec_ci(**kw):
    base = dict(b=0.0, statistic=Statistic.T1, scheme=SignChange(), L=99, alpha=0.1, seed=5)
    base.update(kw)
    return TestSpec(**base)


def test_grid_points_match_standalone_tests():
    # shared draws across the grid must reproduce each standalone test
    # exactly: the draws never depend on the null value for built-ins
    d = make_design(seed=1, N=16, J=6)
    spec = spec_ci()
    grid = np.linspace(-1.0, 2.0, 13)
    res = confidence_interval(d, spec, grid)
    for i, b in enumerate(grid):
        solo = ri_test(d, replace(spec, b=float(b)))
        assert res.p_values[i] == solo.p_value
        assert res.retained[i] == (not solo.reject)


def test_known_distribution_grid_matches_standalone():
    sampler = lambda rng, S, e_b, g: rng.standard_normal(g.shape[0])
    d = make_design(seed=2, N=14, J=5)
    spec = spec_ci(scheme=KnownDistribution(sampler), L=49)
    grid = np.linspace(-0.5, 1.5, 7)
    res = confidence_interval(d, spec, grid)
    for i, b in enumerate(grid):
        solo = ri_test(d, replace(spec, b=float(b)))
        assert res.p_values[i] == solo.p_value


def test_interval_covers_point_estimate_in_strong_design():
    d = make_design(seed=3, N=60, J=12, beta=1.0)
    beta_hat = shift_share_estimate(d).beta_hat
    grid = np.linspace(beta_hat - 3.0, beta_hat + 3.0, 61)
    res = confidence_interval(d, spec_ci(scheme=IIDNormal(), L=199), grid)
    assert res.hull is not None
    lo, hi = res.hull
    assert lo <= beta_hat <= hi
    npt.assert_array_equal(res.retained_values, grid[res.retained])


def test_confidence_sets_nest_across_levels():
    d = make_design(seed=4, N=20, J=8)
    grid = np.linspace(-2.0, 3.0, 41)
    wide = confidence_interval(d, spec_ci(alpha=0.01), grid)
    narrow = confidence_interval(d, spec_ci(alpha=0.5), grid)
    # rejecting is monotone in alpha, so the 99% set contains the 50% set
    assert np.all(wide.retained[narrow.retained])


def test_empty_confidence_set_reported():
    d = make_design(seed=5, N=40, J=10, beta=0.0)
    grid = np.linspace(40.0, 50.0, 5)  # far from any plausible value
    res = confidence_interval(d, spec_ci(L=199), grid)
    assert res.hull is None
    assert not res.retained.any()
    assert not res.disconnected
    assert res.retained_values.size == 0


def test_disconnected_retained_set_flagged():
    # frozen case found by search: coarse grid, small L, loose level
    d = make_design(seed=2, N=10, J=5)
    spec = TestSpec(b=0.0, statistic=Statistic.T1, scheme=SignChange(), L=19, alpha=0.3, seed=2)
    res = confidence_interval(d, spec, np.linspace(-3, 4, 29))
    assert res.retained.any()
    assert res.disconnected
    idx = np.flatnonzero(res.retained)
    assert idx[-1] - idx[0] + 1 > idx.size


def test_grid_validation():
    d = make_design(seed=6)
    with pytest.raises(ConfigError):
        confidence_interval(d, spec_ci(), np.array([]))
    with pytest.raises(ConfigError):
        confidence_interval(d, spec_ci(), np.array([1.0, 0.5]))
    with pytest.raises(ConfigError):
        confidence_interval(d, spec_ci(), np.array([0.0, np.nan]))
    with pytest.raises(ConfigError):
        confidence_interval(d, spec_ci(), np.zeros((2, 2)))


def test_outputs_read_only():
    d = make_design(seed=7)
    res = confidence_interval(d, spec_ci(L=29), np.linspace(-1, 1, 5))
    for arr in (res.b_grid, res.p_values, res.retained):
        assert not arr.flags.writeable


def test_redraws_accumulate_across_grid():
    def sampler(rng, S, e_b, g):
        if rng.uniform() < 0.4:
            return np.zeros(g.shape[0])
        return rng.standard_normal(g.shape[0])

    d = make_design(seed=8, N=12, J=5)
    spec = spec_ci(scheme=KnownDistribution(sampler), L=60)
    res = confidence_interval(d, spec, np.linspace(-0.5, 0.5, 4))
    assert res.n_degenerate_redraws > 0


def test_threads_do_not_change_confidence_set():
    d = make_design(seed=9, N=18, J=7)
    grid = np.linspace(-1.5, 2.5, 21)
    a = confidence_interval(d, spec_ci(L=256), grid, threads=1)
    b = confidence_interval(d, spec_ci(L=256), grid, threads=8)
    npt.assert_array_equal(a.p_values, b.p_values)
    npt.assert_array_equal(a.retained, b.retained)


# The confidence set prepares its draws once and evaluates them at each
# point; every point must still be the stand-alone test, bit for bit.
CI_STATISTICS = {
    "t0": (Statistic.T0, False),
    "t1": (Statistic.T1, False),
    "t1-clustered": (Statistic.T1, True),
    "t2": (Statistic.T2, False),
}
CI_SCHEMES = {
    "sign-change": SignChange(),
    "sign-change-m": SignChange(m=0.3),
    "permutation": Permutation(),
    "bootstrap": RecentredBootstrap(),
    "normal": IIDNormal(1.5),
}


def assert_points_are_standalone_tests(d, spec, grid):
    res = confidence_interval(d, spec, grid)
    redraws = 0
    for i, b in enumerate(grid):
        solo = ri_test(d, replace(spec, b=float(b)))
        assert res.p_values[i].tobytes() == np.float64(solo.p_value).tobytes()
        assert res.retained[i] == (not solo.reject)
        redraws += solo.n_degenerate_redraws
    assert res.n_degenerate_redraws == redraws
    return res


@pytest.mark.parametrize("scheme", CI_SCHEMES.values(), ids=CI_SCHEMES)
@pytest.mark.parametrize("demean", [False, True], ids=["raw", "demeaned"])
@pytest.mark.parametrize("statistic", CI_STATISTICS.values(), ids=CI_STATISTICS)
def test_grid_points_match_standalone_tests_widely(statistic, demean, scheme):
    d = make_design(seed=11, N=18, J=7, cluster_ids=np.array([0, 1, 1, 2, 0, 2, 1]))
    grid = np.linspace(-1.0, 2.5, 9)
    for sided in Sidedness:
        spec = spec_ci(
            statistic=statistic[0], cluster_studentizer=statistic[1], scheme=scheme,
            demean=demean, sidedness=sided, L=49,
        )
        assert_points_are_standalone_tests(d, spec, grid)


@pytest.mark.parametrize("statistic", [Statistic.T1, Statistic.T2])
def test_grid_points_match_standalone_tests_with_redraws(statistic):
    # g = (0, 1, 2): the bootstrap pool is (-1, 0, 1), and an all-middle
    # draw is zero, so draws are replaced inside the confidence set
    d = identity_design([3.0, 1.0, -2.0], [0.0, 1.0, 2.0])
    spec = spec_ci(statistic=statistic, scheme=RecentredBootstrap(), L=299)
    res = assert_points_are_standalone_tests(d, spec, np.linspace(-2.0, 2.0, 9))
    assert res.n_degenerate_redraws > 0


# A confidence set counts a point from per-draw coefficients in b when no
# draw lies within rounding of t_obs; otherwise the point runs the exact
# batch (_NullProblem.simulate).  Either way the point is ri_test's.


def spy_on_exact_batch(monkeypatch):
    calls = []
    real = ri_module._NullProblem.simulate

    def simulate(self, draws, scheme):
        calls.append(self.t_obs)
        return real(self, draws, scheme)

    monkeypatch.setattr(ri_module._NullProblem, "simulate", simulate)
    return calls


@pytest.mark.parametrize("statistic", [Statistic.T1, Statistic.T2])
def test_wide_confidence_set_counts_every_point_from_coefficients(monkeypatch, statistic):
    d = make_design(seed=1, N=3000, J=200)
    spec = spec_ci(statistic=statistic, L=999, alpha=0.05, seed=3)
    grid = np.linspace(-0.5, 2.0, 21)
    calls = spy_on_exact_batch(monkeypatch)
    res = confidence_interval(d, spec, grid)
    assert calls == []
    assert res.retained.any() and not res.retained.all()
    assert_points_are_standalone_tests(d, spec, grid)


def test_a_draw_equal_to_g_sends_every_point_to_the_exact_batch(monkeypatch):
    # bundled data, seed 6: sign draw 40 is all +1, so that draw is g and
    # ties t_obs up to rounding at every null value
    data = Path(__file__).parent.parent / "demos" / "data"
    d = load_design(data / "outcomes.csv", data / "exposures.csv", data / "shocks.csv")
    spec = spec_ci(L=999, alpha=0.05, seed=6)
    assert (ri_module.generate_draws(d, spec.scheme, spec.L, spec.seed)[40] == d.g).all()
    grid = np.linspace(-1.0, 3.0, 21)
    # J = 12 is below the sectors the coefficients need to pay off
    calls = spy_on_exact_batch(monkeypatch)
    confidence_interval(d, replace(spec, seed=1), grid)
    assert len(calls) == grid.size
    monkeypatch.setattr(ri_module, "_FILTER_MIN_SECTORS", 2)
    calls.clear()
    confidence_interval(d, spec, grid)
    assert len(calls) == grid.size
    # without that draw (seed 1 has no all-equal signs) no point needs it
    calls.clear()
    confidence_interval(d, replace(spec, seed=1), grid)
    assert calls == []
    assert_points_are_standalone_tests(d, spec, grid)


@pytest.mark.parametrize("scale, exact_points", [(2.0**90, 0), (2.0**110, 21)])
def test_magnitudes_outside_the_filter_range_take_the_exact_batch(monkeypatch, scale, exact_points):
    # the coefficients' error bounds need every magnitude within 2^+-100
    base = make_design(seed=4, N=200, J=64)
    d = ShiftShareDesign.from_arrays(scale * base.Y, None, base.S, base.g)
    spec = spec_ci(statistic=Statistic.T2, L=199, alpha=0.05)
    grid = np.linspace(-3.0, 4.0, 21)
    calls = spy_on_exact_batch(monkeypatch)
    confidence_interval(d, spec, grid)
    assert len(calls) == exact_points
    assert_points_are_standalone_tests(d, spec, grid)
