import numpy as np
import numpy.testing as npt
import pytest
from scipy.stats import norm

from conftest import identity_design, make_design
from shiftshare_ri import (
    ConfigError,
    IIDNormal,
    KnownDistribution,
    Permutation,
    SignChange,
    Statistic,
    TestSpec,
    asymptotic_report,
    compute_vj,
    concentration_report,
    generate_draws,
    ks_to_standard_normal,
    normality_distance,
    prop2_conditions,
    prop3_conditions,
    ri_test,
    sector_residual_sums,
)


def test_compute_vj_identity_and_dominant_cases():
    assert compute_vj(np.eye(5)) == pytest.approx(5.0)
    # all mass on one sector: column sums (N, 0), so v_J = N^2
    S = np.zeros((4, 2))
    S[:, 0] = 1.0
    assert compute_vj(S) == pytest.approx(16.0)


def test_compute_vj_brute_force():
    rng = np.random.default_rng(1)
    S = rng.dirichlet(np.ones(6), size=11)
    manual = sum(S[:, j].sum() ** 2 for j in range(6))
    assert compute_vj(S) == pytest.approx(manual, rel=1e-12)


def test_concentration_report_shares():
    rng = np.random.default_rng(2)
    S = rng.dirichlet(np.ones(7), size=13)
    rep = concentration_report(S)
    assert rep.importance.shape == (7,)
    assert rep.importance.sum() == pytest.approx(1.0)
    assert 1 / 7 - 1e-12 <= rep.hhi <= 1.0
    # identity exposures spread importance evenly
    even = concentration_report(np.eye(8))
    npt.assert_allclose(even.importance, 1 / 8)
    assert even.hhi == pytest.approx(1 / 8)


def test_prop2_iid_normal_closed_form():
    d = make_design(seed=3, N=15, J=6)
    b = 0.4
    omega = sector_residual_sums(d.S, d.Y - b * d.X) / np.sqrt(compute_vj(d.S))
    c1, c2, c3 = prop2_conditions(d, b, IIDNormal(sigma=1.5))
    assert c1 == pytest.approx(0.0, abs=1e-14)
    assert c2 == pytest.approx(1.5**2 * (omega**2).sum(), rel=1e-12)
    assert c3 == pytest.approx(3 * 1.5**4 * (omega**4).sum(), rel=1e-12)


def test_prop2_sign_change_and_permutation_forms():
    d = make_design(seed=4, N=12, J=5)
    b = -0.2
    omega = sector_residual_sums(d.S, d.Y - b * d.X) / np.sqrt(compute_vj(d.S))
    c1, c2, _ = prop2_conditions(d, b, SignChange())
    assert c1 == pytest.approx(0.0, abs=1e-14)
    assert c2 == pytest.approx((omega**2 * d.g**2).sum(), rel=1e-12)
    p1, p2, _ = prop2_conditions(d, b, Permutation())
    assert p1 == pytest.approx(d.g.mean() * omega.sum(), rel=1e-12)
    assert p2 == pytest.approx(np.mean(d.g**2) * (omega**2).sum(), rel=1e-12)


def test_prop2_monte_carlo_sampler_matches_closed_form():
    d = make_design(seed=5, N=10, J=4)
    sampler = KnownDistribution(lambda rng, S, e_b, g: rng.standard_normal(g.shape[0]))
    mc = prop2_conditions(d, 0.1, sampler, n_draws=40000, seed=7)
    cf = prop2_conditions(d, 0.1, IIDNormal())
    assert mc[0] == pytest.approx(cf[0], abs=0.05)
    assert mc[1] == pytest.approx(cf[1], rel=0.05)
    assert mc[2] == pytest.approx(cf[2], rel=0.2)


def test_prop3_single_exposure_reductions():
    # identity exposures: v_J = N, w = g*, a = e_b, so the three
    # conditions collapse to pure shock moments
    rng = np.random.default_rng(8)
    N = 9
    Y = rng.normal(size=N)
    d = identity_design(Y, rng.normal(size=N), X=rng.normal(size=N))
    b = 0.3
    r = d.Y - b * d.X
    scheme = IIDNormal()
    G = generate_draws(d, scheme, 400, seed=11, b=b)
    strength, cross, quad = prop3_conditions(d, b, scheme, n_draws=400, seed=11)
    assert strength == pytest.approx(np.mean((G**2).sum(axis=1)) / N, rel=1e-12)
    manual_cross = np.mean(np.abs(2.0 * (G**3 @ r))) / N**1.5
    assert cross == pytest.approx(manual_cross, rel=1e-10)
    assert quad == pytest.approx(np.mean((G**4).sum(axis=1)) / N**2, rel=1e-10)


def test_prop3_matches_instrument_form():
    # the sector-level (Gram) evaluation against the direct formulas on
    # the (n_draws, N) simulated instruments Z* = G S'
    for seed, scheme in ((21, IIDNormal()), (22, SignChange()), (23, Permutation())):
        d = make_design(seed=seed, N=40, J=9)
        b = 0.2
        G = generate_draws(d, scheme, 300, seed=seed, b=b)
        a = sector_residual_sums(d.S, d.Y - b * d.X)
        N, vj = d.N, compute_vj(d.S)
        Zs = G @ d.S.T
        W = Zs @ d.S
        strength_ref = (Zs**2).sum(axis=1).mean() / N
        cross_ref = np.abs((2.0 * a * W * G**2).sum(axis=1)).mean() / vj / (N / np.sqrt(vj))
        quad_ref = ((W**2) * G**2).sum(axis=1).mean() / vj / (N**2 / vj)
        got = prop3_conditions(d, b, scheme, n_draws=300, seed=seed)
        npt.assert_allclose(got, (strength_ref, cross_ref, quad_ref), rtol=1e-12)


def test_prop3_strength_near_one_for_unit_normal_identity():
    d = identity_design(np.arange(1.0, 9.0), np.zeros(8) + 0.5, X=np.ones(8))
    strength, _, _ = prop3_conditions(d, 0.0, IIDNormal(), n_draws=2000, seed=3)
    assert strength == pytest.approx(1.0, abs=0.1)


def test_prop3_zero_sampler_gives_zero_strength():
    d = make_design(seed=9, N=8, J=4)
    zero = KnownDistribution(lambda rng, S, e_b, g: np.zeros(g.shape[0]))
    strength, cross, quad = prop3_conditions(d, 0.0, zero, n_draws=50, seed=1)
    assert strength == 0.0
    assert cross == 0.0
    assert quad == 0.0


def test_ks_exact_quantiles():
    n = 200
    x = norm.ppf((np.arange(1, n + 1) - 0.5) / n)
    assert ks_to_standard_normal(x) == pytest.approx(0.5 / n, rel=1e-9)


def test_ks_detects_location_shift():
    n = 500
    x = norm.ppf((np.arange(1, n + 1) - 0.5) / n) + 2.0
    assert ks_to_standard_normal(x) > 0.45


def test_ks_small_for_large_normal_sample():
    vals = np.random.default_rng(10).standard_normal(10000)
    assert ks_to_standard_normal(vals) < 0.02


def test_normality_distance_requires_studentized_statistic():
    d = make_design(seed=11)
    spec = TestSpec(b=0.0, statistic=Statistic.T0, scheme=IIDNormal(), seed=0)
    with pytest.raises(ConfigError):
        normality_distance(d, 0.0, spec, 100)


def test_normality_distance_matches_manual_route():
    from dataclasses import replace

    d = make_design(seed=12, N=30, J=10)
    spec = TestSpec(b=0.0, statistic=Statistic.T1, scheme=IIDNormal(), L=5, seed=6)
    dist = normality_distance(d, 0.2, spec, 300)
    sims = ri_test(d, replace(spec, b=0.2, L=300)).t_sims
    assert dist == pytest.approx(ks_to_standard_normal(sims), abs=0.0)


def test_asymptotic_report_assembles_components():
    d = make_design(seed=13, N=25, J=8)
    rep = asymptotic_report(d, 0.1, IIDNormal(), L=400, n_draws=300, seed=5)
    c1, c2, c3 = prop2_conditions(d, 0.1, IIDNormal(), n_draws=300, seed=5)
    s, x, q = prop3_conditions(d, 0.1, IIDNormal(), n_draws=300, seed=5)
    assert rep.cond1 == c1 and rep.cond2 == c2 and rep.cond3 == c3
    assert rep.p3_strength == s and rep.p3_cross == x and rep.p3_quad == q
    assert rep.v_J == pytest.approx(compute_vj(d.S))
    assert rep.hhi == pytest.approx(concentration_report(d.S).hhi)
    assert 0.0 <= rep.ks_distance <= 1.0
    keys = set(rep.to_dict())
    assert keys == {
        "v_J", "cond1", "cond2", "cond3", "p3_strength", "p3_cross",
        "p3_quad", "hhi", "ks_distance", "warnings",
    }


def test_asymptotic_report_warnings_fire():
    # one huge residual on identity exposures concentrates omega: cond3
    # blows past its threshold and the hhi flag trips too
    d = identity_design([9.0, 0.1, 0.1], [1.0, 1.0, 1.0], X=[1.0, 1.0, 1.0])
    rep = asymptotic_report(d, 0.0, IIDNormal(), L=100, n_draws=100, seed=2)
    assert any("cond3" in w for w in rep.warnings)

    # a scheme with no variation breaks the simulated statistic; the
    # report records that instead of crashing
    zero = KnownDistribution(lambda rng, S, e_b, g: np.zeros(g.shape[0]))
    d2 = make_design(seed=14, N=8, J=4)
    rep2 = asymptotic_report(d2, 0.0, zero, L=50, n_draws=50)
    assert any("variation" in w for w in rep2.warnings)
    assert any("could not be computed" in w for w in rep2.warnings)
    assert np.isnan(rep2.ks_distance)


def test_asymptotic_report_clean_design_has_no_warnings():
    d = make_design(seed=15, N=200, J=80)
    rep = asymptotic_report(d, 0.0, IIDNormal(), L=200, n_draws=100, seed=1)
    assert rep.warnings == ()
