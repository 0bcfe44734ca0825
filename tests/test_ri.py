import numpy as np
import numpy.testing as npt
import pytest

from conftest import make_design
from shiftshare_ri import (
    ConfigError,
    DataValidationError,
    DegenerateDrawError,
    IIDNormal,
    KnownDistribution,
    NotReducedFormError,
    Permutation,
    RITestResult,
    SignChange,
    Sidedness,
    Statistic,
    TestSpec,
    ZeroVarianceError,
    critical_count,
    generate_draws,
    p_value_from_stats,
    psi,
    reject_by_order_statistic,
    reject_by_pvalue,
    ri_test,
)
from shiftshare_ri.design import ShiftShareDesign
from shiftshare_ri.estimator import batch_t1, sector_residual_sums


def spec_t1(**kw):
    base = dict(b=0.0, statistic=Statistic.T1, scheme=SignChange(), L=99, seed=3)
    base.update(kw)
    return TestSpec(**base)


def test_critical_count_values():
    assert critical_count(0.05, 999) == 50
    assert critical_count(0.10, 199) == 20
    assert critical_count(0.05, 19) == 1
    # 0.05 * 1000 floats to 50.000000000000007; must not round up
    assert critical_count(0.05, 999) == 50
    assert critical_count(0.001, 9) == 1
    assert critical_count(0.051, 999) == 51


def test_psi_shapes_and_equal_tail_guard():
    v = np.array([-2.0, 1.0])
    npt.assert_array_equal(psi(v, Sidedness.TWO_SIDED_ABS), [2.0, 1.0])
    npt.assert_array_equal(psi(v, Sidedness.RIGHT_TAIL), v)
    npt.assert_array_equal(psi(v, Sidedness.LEFT_TAIL), -v)
    with pytest.raises(ConfigError):
        psi(v, Sidedness.EQUAL_TAIL)


def test_p_value_hand_cases():
    sims = np.zeros(99)
    assert p_value_from_stats(2.0, sims, Sidedness.TWO_SIDED_ABS) == pytest.approx(0.01)
    assert p_value_from_stats(0.0, sims, Sidedness.TWO_SIDED_ABS) == pytest.approx(1.0)
    sims = np.linspace(-1.0, 1.0, 19)
    assert p_value_from_stats(2.5, sims, Sidedness.RIGHT_TAIL) == pytest.approx(1 / 20)
    # a tie counts against the observed statistic
    assert p_value_from_stats(1.0, sims, Sidedness.RIGHT_TAIL) == pytest.approx(2 / 20)


def test_p_value_equal_tail_hand_case():
    sims = np.array([1.0, 2.0, 3.0, 4.0])
    # right: (1+1)/5, left: (1+4)/5, doubled and capped
    assert p_value_from_stats(4.0, sims, Sidedness.EQUAL_TAIL) == pytest.approx(0.8)
    assert p_value_from_stats(0.5, sims, Sidedness.EQUAL_TAIL) == pytest.approx(0.4)


def test_decision_rules_agree_on_random_tuples_with_ties():
    rng = np.random.default_rng(12)
    sided = list(Sidedness)
    for _ in range(4000):
        L = int(rng.integers(1, 40))
        # draw from a small value set so ties are common
        sims = rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0], size=L)
        t_obs = float(rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0]))
        alpha = float(rng.uniform(0.01, 0.5))
        s = sided[int(rng.integers(len(sided)))]
        assert reject_by_pvalue(t_obs, sims, alpha, s) == reject_by_order_statistic(
            t_obs, sims, alpha, s
        ), (L, t_obs, alpha, s)


def test_reject_all_when_alpha_swallows_every_order_statistic():
    sims = np.array([5.0])
    assert reject_by_order_statistic(0.0, sims, 0.99, Sidedness.TWO_SIDED_ABS)


def test_spec_validation():
    with pytest.raises(ConfigError):
        spec_t1(L=0)
    with pytest.raises(ConfigError):
        spec_t1(alpha=0.0)
    with pytest.raises(ConfigError):
        spec_t1(alpha=1.0)
    with pytest.raises(ConfigError):
        spec_t1(seed=-1)
    with pytest.raises(ConfigError):
        spec_t1(b=np.inf)
    with pytest.raises(ConfigError):
        spec_t1(statistic=Statistic.T0, cluster_studentizer=True)
    for not_an_int in (True, False, 9.0):
        with pytest.raises(ConfigError):
            spec_t1(L=not_an_int)
        with pytest.raises(ConfigError):
            spec_t1(seed=not_an_int)
    spec = spec_t1(L=np.int64(49), seed=np.uint64(2**63))
    assert (spec.L, spec.seed) == (49, 2**63)
    assert type(spec.L) is int and type(spec.seed) is int


def test_generate_draws_thread_count_does_not_change_results():
    d = make_design(seed=1, N=20, J=8)
    for scheme in (SignChange(), IIDNormal(), Permutation()):
        g1 = generate_draws(d, scheme, 600, seed=9, threads=1)
        g4 = generate_draws(d, scheme, 600, seed=9, threads=4)
        g16 = generate_draws(d, scheme, 600, seed=9, threads=16)
        npt.assert_array_equal(g1, g4)
        npt.assert_array_equal(g1, g16)


def test_nested_draws_stable_as_l_grows():
    d = make_design(seed=2, N=15, J=6)
    small = generate_draws(d, IIDNormal(), 100, seed=4)
    big = generate_draws(d, IIDNormal(), 500, seed=4)
    npt.assert_array_equal(big[:100], small)


def test_ri_test_reproducible_and_thread_invariant():
    d = make_design(seed=5, N=18, J=7)
    spec = spec_t1(L=400)
    r1 = ri_test(d, spec)
    r2 = ri_test(d, spec)
    r4 = ri_test(d, spec, threads=4)
    assert r1.t_obs == r2.t_obs == r4.t_obs
    npt.assert_array_equal(r1.t_sims, r2.t_sims)
    npt.assert_array_equal(r1.t_sims, r4.t_sims)
    assert r1.p_value == r2.p_value == r4.p_value
    assert r1.reject == r4.reject


def test_ri_test_result_fields():
    d = make_design(seed=6)
    res = ri_test(d, spec_t1())
    assert isinstance(res, RITestResult)
    assert res.t_sims.shape == (99,)
    assert not res.t_sims.flags.writeable
    assert 1 / 100 <= res.p_value <= 1.0
    assert res.n_degenerate_redraws == 0


def test_ri_test_decision_consistent_with_p_rule():
    for seed in range(12):
        d = make_design(seed=seed)
        spec = spec_t1(L=39, alpha=0.1, seed=seed)
        res = ri_test(d, spec)
        assert res.reject == reject_by_pvalue(
            res.t_obs, res.t_sims, spec.alpha, spec.sidedness
        )


def test_ri_test_matches_manual_kernel_route():
    d = make_design(seed=7, N=16, J=5)
    spec = spec_t1(b=0.2, L=50, seed=11)
    res = ri_test(d, spec)
    e_b = d.Y - 0.2 * d.X
    a = sector_residual_sums(d.S, e_b)
    G = generate_draws(d, SignChange(), 50, seed=11, b=0.2)
    num, den = batch_t1(a, G)
    npt.assert_array_equal(res.t_sims, num / den)


def test_demean_applies_to_observed_and_simulated():
    d = make_design(seed=8, N=14, J=6)
    spec = spec_t1(scheme=IIDNormal(), L=64, seed=13, demean=True)
    res = ri_test(d, spec)
    e_b = d.Y - 0.0 * d.X
    a = sector_residual_sums(d.S, e_b)
    G = generate_draws(d, IIDNormal(), 64, seed=13)
    G = G - G.mean(axis=1, keepdims=True)
    num, den = batch_t1(a, G)
    npt.assert_array_equal(res.t_sims, num / den)
    g0 = d.g - d.g.mean()
    t_obs = float((a * g0).sum() / np.sqrt(((a * g0) ** 2).sum()))
    npt.assert_allclose(res.t_obs, t_obs, rtol=1e-12)


def test_p_value_exactly_invariant_under_power_of_two_shock_scale():
    # scaling the shocks by 8 scales numerator and studentizer by exactly
    # 8, so every comparison and hence the p-value is bit-identical
    rng = np.random.default_rng(19)
    S = rng.dirichlet(np.ones(6), size=15)
    g = rng.normal(size=6)
    X = rng.normal(size=15)
    Y = 0.5 * X + rng.normal(size=15)
    d1 = ShiftShareDesign.from_arrays(Y, X, S, g)
    d8 = ShiftShareDesign.from_arrays(Y, X, S, 8.0 * g)
    for stat in (Statistic.T0, Statistic.T1):
        for sided in (Sidedness.TWO_SIDED_ABS, Sidedness.RIGHT_TAIL, Sidedness.EQUAL_TAIL):
            s1 = TestSpec(b=0.3, statistic=stat, scheme=SignChange(), L=127, seed=2, sidedness=sided)
            r1 = ri_test(d1, s1)
            r8 = ri_test(d8, s1)
            assert r1.p_value == r8.p_value
            assert r1.reject == r8.reject


def test_t2_requires_reduced_form_through_ri_test():
    d = make_design(seed=9, reduced_form=False)
    with pytest.raises(NotReducedFormError):
        ri_test(d, spec_t1(statistic=Statistic.T2))


def test_cluster_gates():
    d = make_design(seed=10)
    with pytest.raises(DataValidationError):
        ri_test(d, spec_t1(cluster_studentizer=True))
    with pytest.raises(DataValidationError):
        ri_test(d, spec_t1(scheme=SignChange(by_cluster=True)))


def test_observed_zero_studentizer_raises():
    rng = np.random.default_rng(20)
    S = rng.dirichlet(np.ones(4), size=10)
    g = rng.normal(size=4)
    X = rng.normal(size=10)
    Y = 1.5 * X  # residuals vanish exactly at b = 1.5
    d = ShiftShareDesign.from_arrays(Y, X, S, g)
    with pytest.raises(ZeroVarianceError):
        ri_test(d, spec_t1(b=1.5))


def test_degenerate_draws_are_replaced_from_the_same_stream():
    # sampler returns an all-zero vector (zero studentizer) about a
    # third of the time; replacements must come from the same per-draw
    # stream and be counted
    def sampler(rng, S, e_b, g):
        if rng.uniform() < 0.35:
            return np.zeros(g.shape[0])
        return rng.standard_normal(g.shape[0])

    d = make_design(seed=11, N=12, J=5)
    spec = spec_t1(scheme=KnownDistribution(sampler), L=200, seed=21)
    res = ri_test(d, spec)
    assert res.n_degenerate_redraws > 0
    assert np.all(np.isfinite(res.t_sims))
    # deterministic: the same spec reproduces the same replacements
    res2 = ri_test(d, spec)
    npt.assert_array_equal(res.t_sims, res2.t_sims)
    assert res.n_degenerate_redraws == res2.n_degenerate_redraws


def test_hopeless_sampler_exhausts_redraw_budget():
    always_zero = KnownDistribution(lambda rng, S, e_b, g: np.zeros(g.shape[0]))
    d = make_design(seed=12)
    with pytest.raises(DegenerateDrawError, match="draw 0"):
        ri_test(d, spec_t1(scheme=always_zero, L=5))


def test_t0_draws_never_need_redraws():
    d = make_design(seed=14)
    spec = spec_t1(statistic=Statistic.T0, scheme=IIDNormal(), L=50)
    res = ri_test(d, spec)
    assert res.n_degenerate_redraws == 0


def test_equal_tail_reject_matches_per_side_rule():
    for seed in range(8):
        d = make_design(seed=seed + 40)
        spec = spec_t1(L=79, alpha=0.1, sidedness=Sidedness.EQUAL_TAIL, seed=seed)
        res = ri_test(d, spec)
        right = reject_by_pvalue(res.t_obs, res.t_sims, 0.05, Sidedness.RIGHT_TAIL)
        left = reject_by_pvalue(res.t_obs, res.t_sims, 0.05, Sidedness.LEFT_TAIL)
        assert res.reject == (right or left)
