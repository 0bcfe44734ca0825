from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from conftest import identity_design, make_design
from shiftshare_ri import (
    DataValidationError,
    DegenerateInstrumentError,
    NotReducedFormError,
    ShiftShareDesign,
    SignChange,
    Statistic,
    TestSpec,
    VarianceKind,
    ZeroVarianceError,
    load_design,
    ri_test,
    sector_residual_sums,
    shift_share_estimate,
    stat_t0,
    stat_t1,
    stat_t2,
    variance_clustered,
    variance_null_imposed,
    variance_plugin,
)
from shiftshare_ri.estimator import (
    T2_CANCELLATION_RTOL,
    _t2_draws,
    _t2_gram,
    _t2_residuals,
    batch_t0,
    batch_t1,
    batch_t1_clustered,
    batch_t2,
    cluster_members,
)


def test_estimate_hand_case():
    # Z = (1, 1), Y = (2, 4), X = (1, 1): 6 / 2 = 3
    d = ShiftShareDesign.from_arrays(
        np.array([2.0, 4.0]), np.array([1.0, 1.0]),
        np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]),
    )
    est = shift_share_estimate(d)
    assert est.beta_hat == pytest.approx(3.0)
    assert est.denom == pytest.approx(2.0)


def test_estimate_degenerate_when_shocks_vanish():
    d = ShiftShareDesign.from_arrays(
        np.array([1.0, 2.0]), np.array([1.0, 1.0]),
        np.full((2, 2), 0.5), np.zeros(2),
    )
    with pytest.raises(DegenerateInstrumentError):
        shift_share_estimate(d)


def test_estimate_degenerate_on_cancellation():
    # Z = (1, 1) against X = (1, -1): exact cancellation, gross mass 2
    d = ShiftShareDesign.from_arrays(
        np.array([1.0, 2.0]), np.array([1.0, -1.0]),
        np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]),
    )
    with pytest.raises(DegenerateInstrumentError):
        shift_share_estimate(d)


def test_sector_residual_sums_identity_exposures():
    npt.assert_allclose(
        sector_residual_sums(np.eye(3), np.array([1.0, -2.0, 5.0])),
        [1.0, -2.0, 5.0],
    )


def test_variance_null_imposed_hand_case():
    # S = I, g = (2, 0), X = (1, 1), Y = (3, 0), b = 1:
    # e = (2, -1), a*g = (4, 0), sum(Z*X) = 2, so V = 16 / 4 = 4
    d = identity_design([3.0, 0.0], [2.0, 0.0], X=[1.0, 1.0])
    v = variance_null_imposed(d, 1.0)
    assert v.value == pytest.approx(4.0)
    npt.assert_allclose(v.per_sector_terms, [16.0, 0.0])
    assert v.denom == pytest.approx(2.0)
    assert v.kind is VarianceKind.NULL_IMPOSED


def test_variance_value_matches_terms_and_denom():
    d = make_design(seed=21, reduced_form=False)
    for v in (variance_null_imposed(d, 0.3), ):
        assert v.value == pytest.approx(v.per_sector_terms.sum() / v.denom**2, rel=1e-14)


def test_variance_plugin_requires_reduced_form():
    d = make_design(seed=22, reduced_form=False)
    with pytest.raises(NotReducedFormError):
        variance_plugin(d)


def test_plugin_equals_null_imposed_at_point_estimate():
    # in the reduced form both denominators coincide, and at b = beta_hat
    # null residuals are the fitted residuals
    d = make_design(seed=23, N=30, J=8)
    beta_hat = shift_share_estimate(d).beta_hat
    v_n = variance_null_imposed(d, beta_hat)
    v_f = variance_plugin(d)
    npt.assert_allclose(v_n.value, v_f.value, rtol=1e-12)
    npt.assert_allclose(
        v_n.value * v_n.denom**2, v_f.value * v_f.denom**2, rtol=1e-12
    )


def test_cluster_members_one_hot():
    m = cluster_members(np.array([0, 1, 0, 2]))
    npt.assert_array_equal(m, [[1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 0, 1]])


def test_variance_clustered_brute_force():
    cid = np.array([0, 1, 0, 2, 1])
    d = make_design(seed=24, J=5, cluster_ids=cid)
    b = 0.4
    v = variance_clustered(d, b)
    a = sector_residual_sums(d.S, d.Y - b * d.X)
    total = 0.0
    for c in np.unique(cid):
        total += float((a[cid == c] * d.g[cid == c]).sum()) ** 2
    npt.assert_allclose(v.value, total / (d.Z @ d.X) ** 2, rtol=1e-12)


def test_variance_clustered_singletons_match_unclustered():
    cid = np.arange(6)
    d = make_design(seed=25, J=6, cluster_ids=cid)
    npt.assert_allclose(
        variance_clustered(d, 0.2).value,
        variance_null_imposed(d, 0.2).value,
        rtol=1e-12,
    )


def test_variance_clustered_requires_cluster_ids():
    d = make_design(seed=26)
    with pytest.raises(DataValidationError):
        variance_clustered(d, 0.0)


def test_stat_t0_hand_case():
    # S = I, g = (1, 1), e = (2, 4): mean of Z*e is 3
    assert stat_t0(np.ones(2), np.eye(2), np.array([2.0, 4.0])) == pytest.approx(3.0)


def test_stat_t1_hand_case():
    # e_0 = (3, 4), g = (1, 1), S = I: 7 / sqrt(25) = 1.4
    d = identity_design([3.0, 4.0], [1.0, 1.0], X=[1.0, 1.0])
    assert stat_t1(d, 0.0) == pytest.approx(1.4)


def test_stat_t1_matches_ratio_form_when_denom_positive():
    for seed in range(40):
        d = make_design(seed=seed, N=15, J=6)
        b = 0.1 * seed - 2.0
        est = shift_share_estimate(d)
        assert est.denom > 0
        ratio = (est.beta_hat - b) / np.sqrt(variance_null_imposed(d, b).value)
        npt.assert_allclose(stat_t1(d, b), ratio, rtol=1e-10, atol=1e-12)


def test_stat_t1_zero_variance_raises():
    d = identity_design([2.0, 4.0], [1.0, 1.0], X=[1.0, 2.0])
    with pytest.raises(ZeroVarianceError):
        stat_t1(d, 2.0)  # Y = 2*X exactly, all residuals vanish


def test_stat_t1_clustered_needs_ids():
    d = make_design(seed=27)
    with pytest.raises(DataValidationError):
        stat_t1(d, 0.0, clustered=True)


def test_stat_t1_clustered_singletons_match_plain():
    d = make_design(seed=28, J=6, cluster_ids=np.arange(6))
    npt.assert_allclose(
        stat_t1(d, 0.1, clustered=True), stat_t1(d, 0.1), rtol=1e-12
    )


def test_stat_t2_requires_reduced_form():
    d = make_design(seed=29, reduced_form=False)
    with pytest.raises(NotReducedFormError):
        stat_t2(d, 0.0)


def test_stat_t2_matches_refit_route():
    # independent route: rebuild the outcome under the null at simulated
    # shocks, re-estimate, and studentize with the plug-in variance
    rng = np.random.default_rng(55)
    for _ in range(20):
        d = make_design(seed=int(rng.integers(1 << 30)), N=20, J=7)
        b = float(rng.normal())
        e_b = d.Y - b * d.X
        g_star = rng.normal(size=d.J)
        z_star = d.S @ g_star
        y_star = b * z_star + e_b
        d_star = ShiftShareDesign.from_arrays(y_star, None, d.S, g_star)
        est = shift_share_estimate(d_star)
        naive = (est.beta_hat - b) / np.sqrt(variance_plugin(d_star).value)
        a = sector_residual_sums(d.S, e_b)
        num, den = batch_t2(a, g_star[None, :], d.S)
        npt.assert_allclose(num[0] / den[0], naive, rtol=1e-9, atol=1e-11)


def test_stat_t2_observed_equals_plugin_studentization():
    d = make_design(seed=31, N=25, J=9)
    b = 0.3
    est = shift_share_estimate(d)
    direct = (est.beta_hat - b) / np.sqrt(variance_plugin(d).value)
    npt.assert_allclose(stat_t2(d, b), direct, rtol=1e-10)


def test_batch_kernels_match_scalar_loops():
    rng = np.random.default_rng(77)
    J, L = 7, 32
    a = rng.normal(size=J)
    G = rng.normal(size=(L, J))
    S = rng.dirichlet(np.ones(J), size=13)
    members = cluster_members(np.array([0, 0, 1, 1, 2, 2, 2]))
    t0 = batch_t0(a, G, 13)
    num1, den1 = batch_t1(a, G)
    numc, denc = batch_t1_clustered(a, G, members)
    num2, den2 = batch_t2(a, G, S)
    for l in range(L):
        g = G[l]
        npt.assert_allclose(t0[l], (a * g).sum() / 13.0, rtol=1e-12)
        npt.assert_allclose(num1[l], (a * g).sum(), rtol=1e-12)
        npt.assert_allclose(den1[l], np.sqrt(((a * g) ** 2).sum()), rtol=1e-12)
        by_cluster = [(a * g)[[0, 1]].sum(), (a * g)[[2, 3]].sum(), (a * g)[[4, 5, 6]].sum()]
        npt.assert_allclose(denc[l], np.sqrt(np.sum(np.square(by_cluster))), rtol=1e-12)
        z = S @ g
        delta = (a * g).sum() / (z * z).sum()
        a_tilde = a - delta * (S.T @ z)
        npt.assert_allclose(num2[l], (a * g).sum(), rtol=1e-12)
        npt.assert_allclose(den2[l], np.sqrt(((a_tilde * g) ** 2).sum()), rtol=1e-10)


def test_t1_kernel_scale_invariant_for_positive_scale():
    rng = np.random.default_rng(78)
    a = rng.normal(size=6)
    G = rng.normal(size=(8, 6))
    num, den = batch_t1(a, G)
    base = num / den
    for c in (1e-3, 7.0, 1e3):
        num_c, den_c = batch_t1(a, c * G)
        npt.assert_allclose(num_c / den_c, base, atol=1e-10)


def test_t2_kernel_scale_invariant_for_positive_scale():
    rng = np.random.default_rng(79)
    a = rng.normal(size=6)
    G = rng.normal(size=(8, 6))
    S = rng.dirichlet(np.ones(6), size=11)
    num, den = batch_t2(a, G, S)
    base = num / den
    for c in (1e-3, 7.0, 1e3):
        num_c, den_c = batch_t2(a, c * G, S)
        npt.assert_allclose(num_c / den_c, base, atol=1e-10)


def test_t0_kernel_scales_linearly():
    rng = np.random.default_rng(80)
    a = rng.normal(size=6)
    G = rng.normal(size=(8, 6))
    base = batch_t0(a, G, 10)
    for c in (1e-3, 7.0, 1e3):
        npt.assert_allclose(batch_t0(a, c * G, 10), c * base, rtol=1e-12)


def _t2_via_instruments(a, G, S):
    """T2 numerator and studentizer through the (L, N) simulated
    instruments Z* = S g*, the direct form of the sector-level kernel."""
    num = G @ a
    Zs = G @ S.T
    ssq = (Zs * Zs).sum(axis=1)
    W = Zs @ S
    safe = np.where(ssq > 0, ssq, 1.0)
    a_tilde = a[None, :] - (num / safe)[:, None] * W
    den = np.sqrt(((a_tilde * G) ** 2).sum(axis=1))
    return num, np.where(ssq > 0, den, 0.0)


def test_t2_gram_kernel_matches_instrument_form():
    rng = np.random.default_rng(81)
    for N, J, L in ((13, 7, 40), (200, 30, 64), (60, 90, 25)):
        a = rng.normal(size=J)
        G = rng.normal(size=(L, J))
        S = rng.dirichlet(np.ones(J), size=N)
        num_ref, den_ref = _t2_via_instruments(a, G, S)
        num, den = _t2_gram(a, G, S.T @ S)
        npt.assert_allclose(num, num_ref, rtol=1e-12)
        npt.assert_allclose(den, den_ref, rtol=1e-12)
        num_b, den_b = batch_t2(a, G, S)
        npt.assert_array_equal(num_b, num)
        npt.assert_array_equal(den_b, den)


def test_t2_gram_kernel_degenerate_draw_has_zero_studentizer():
    # two identical exposure columns and g* = e_1 - e_2 give S g* = 0
    # exactly: the re-estimated coefficient is undefined, so the draw
    # must come out invalid (den == 0), as in the instrument form
    rng = np.random.default_rng(82)
    N, J = 40, 6
    S = rng.dirichlet(np.ones(J), size=N)
    S[:, 1] = S[:, 0]
    a = rng.normal(size=J)
    G = rng.normal(size=(3, J))
    G[1] = 0.0
    G[1, 0], G[1, 1] = 1.0, -1.0
    assert np.all(S @ G[1] == 0.0)
    num, den = _t2_gram(a, G, S.T @ S)
    assert den[1] == 0.0
    assert np.all(den[[0, 2]] > 0)
    _, den_ref = _t2_via_instruments(a, G, S)
    assert den_ref[1] == 0.0


# ---------------------------------------------------------------------------
# stat_t1 and stat_t2 are the engine's observed statistic

DATA = Path(__file__).parent.parent / "demos" / "data"


def observed_design(which):
    if which == "bundled":
        return load_design(DATA / "outcomes.csv", DATA / "exposures.csv", DATA / "shocks.csv")
    return make_design(seed=41, N=30, J=8, cluster_ids=np.arange(8) % 3)  # Dirichlet rows


def engine_t_obs(design, b, statistic, **kw):
    spec = TestSpec(b=b, statistic=statistic, scheme=SignChange(), L=9, seed=3, **kw)
    return ri_test(design, spec).t_obs


@pytest.mark.parametrize("which", ["bundled", "dirichlet-clustered"])
@pytest.mark.parametrize("b", [-0.5, 0.2, 1.3])
def test_stat_t1_and_t2_equal_the_engine_t_obs_bit_for_bit(which, b):
    d = observed_design(which)
    assert d.cluster_ids is not None
    assert stat_t1(d, b).hex() == engine_t_obs(d, b, Statistic.T1).hex()
    assert (
        stat_t1(d, b, clustered=True).hex()
        == engine_t_obs(d, b, Statistic.T1, cluster_studentizer=True).hex()
    )
    assert stat_t2(d, b).hex() == engine_t_obs(d, b, Statistic.T2).hex()


@pytest.mark.parametrize("which", ["bundled", "dirichlet-clustered"])
@pytest.mark.parametrize("b", [-0.5, 0.2, 1.3])
def test_engine_t_obs_matches_the_ratio_forms(which, b):
    # independent of the sector-sum kernels: the estimate, the variance
    # estimators and one division (sum(Z*X) > 0 in the reduced form)
    d = observed_design(which)
    est = shift_share_estimate(d)
    assert est.denom > 0
    cases = [
        (Statistic.T1, {}, variance_null_imposed(d, b)),
        (Statistic.T1, {"cluster_studentizer": True}, variance_clustered(d, b)),
        (Statistic.T2, {}, variance_plugin(d)),
    ]
    for statistic, kw, var in cases:
        ratio = (est.beta_hat - b) / np.sqrt(var.value)
        npt.assert_allclose(engine_t_obs(d, b, statistic, **kw), ratio, rtol=1e-10, atol=0)


def test_stat_and_engine_raise_the_same_error():
    iv = make_design(seed=29, reduced_form=False)
    unclustered = make_design(seed=27)
    flat = identity_design([2.0, 4.0], [1.0, 1.0], X=[1.0, 2.0])  # Y = 2 X

    def spec(statistic, b=0.0, **kw):
        return TestSpec(b=b, statistic=statistic, scheme=SignChange(), L=9, **kw)

    cases = [
        (NotReducedFormError, lambda: stat_t2(iv, 0.0), lambda: ri_test(iv, spec(Statistic.T2))),
        (
            DataValidationError,
            lambda: stat_t1(unclustered, 0.0, clustered=True),
            lambda: ri_test(unclustered, spec(Statistic.T1, cluster_studentizer=True)),
        ),
        (ZeroVarianceError, lambda: stat_t1(flat, 2.0), lambda: ri_test(flat, spec(Statistic.T1, 2.0))),
    ]
    for error, direct, engine in cases:
        with pytest.raises(error) as by_stat:
            direct()
        with pytest.raises(error) as by_engine:
            engine()
        assert type(by_stat.value) is type(by_engine.value)
        assert str(by_stat.value) == str(by_engine.value)


def test_zero_variance_message_names_the_cause_per_statistic():
    flat = identity_design([2.0, 4.0], [1.0, 1.0], X=[1.0, 2.0])
    with pytest.raises(ZeroVarianceError, match="T1 statistic.*orthogonal to every shocked sector"):
        stat_t1(flat, 2.0)
    one_row = make_design(seed=5, N=10, J=4)
    rank_one = ShiftShareDesign.from_arrays(
        one_row.Y, None, np.tile(one_row.S[0], (10, 1)), one_row.g
    )
    with pytest.raises(ZeroVarianceError, match="T2 statistic.*studentizer.*rank one") as info:
        stat_t2(rank_one, 0.3)
    assert "orthogonal to every shocked sector" not in str(info.value)


def test_demeaning_equal_shocks_is_named_as_the_cause():
    equal = identity_design([3.0, 1.0], [2.0, 2.0])
    for statistic in (Statistic.T1, Statistic.T2):
        spec = TestSpec(b=0.0, statistic=statistic, scheme=SignChange(), L=9, demean=True)
        with pytest.raises(ZeroVarianceError, match="demeaning removed every shock") as info:
            ri_test(equal, spec)
        assert "orthogonal" not in str(info.value) and "rank one" not in str(info.value)
    # without demeaning the same shocks give a valid statistic
    ri_test(equal, TestSpec(b=0.0, statistic=Statistic.T1, scheme=SignChange(), L=9))


def test_clustered_studentizer_message_names_no_parameter():
    unclustered = make_design(seed=3, N=10, J=4)
    message = "a clustered T1 studentizer needs cluster_ids on the design"
    with pytest.raises(DataValidationError) as direct:
        stat_t1(unclustered, 0.0, clustered=True)
    spec = TestSpec(b=0.0, statistic=Statistic.T1, scheme=SignChange(), L=9, cluster_studentizer=True)
    with pytest.raises(DataValidationError) as engine:
        ri_test(unclustered, spec)
    assert str(direct.value) == str(engine.value) == message


@pytest.mark.parametrize("shock", [0.1, 0.7])
@pytest.mark.parametrize("statistic", list(Statistic))
def test_demeaning_inexactly_equal_shocks_raises(statistic, shock):
    # the float mean of three equal shocks need not be exact, and the
    # demeaned shocks are then rounding residue, not zeros
    equal = identity_design([3.0, 1.0, -2.0], [shock] * 3)
    assert np.any(equal.g - equal.g.mean() != 0.0)
    spec = TestSpec(b=0.0, statistic=statistic, scheme=SignChange(), L=99, demean=True)
    with pytest.raises(ZeroVarianceError, match="demeaning removed every shock"):
        ri_test(equal, spec)


def _t2_gram_with_temporaries(a, G, K, rtol=0.0):
    """The T2 kernel as written before its draw side was split off."""
    num = G @ a
    KG = G @ K
    ssq = (KG * G).sum(axis=1)
    safe = np.where(ssq > 0, ssq, 1.0)
    c = num / safe
    a_tilde = a[None, :] - c[:, None] * KG
    den = np.sqrt(((a_tilde * G) ** 2).sum(axis=1))
    den = np.where(ssq > 0, den, 0.0)
    if rtol:
        scale = np.sqrt(((a[None, :] * G) ** 2).sum(axis=1) + c**2 * ((KG * G) ** 2).sum(axis=1))
        den = np.where(den > rtol * scale, den, 0.0)
    return num, den


def test_t2_residual_side_in_place_equals_temporaries():
    rng = np.random.default_rng(83)
    L, J = 999, 200
    S = rng.dirichlet(np.ones(J), size=400)
    K = S.T @ S
    G = rng.choice([-1.0, 1.0], size=(L, J)) * rng.normal(size=J)
    G[[0, 17, 998]] = 0.0  # ssq = 0: invalid draws
    draws = _t2_draws(G, K)
    for _ in range(3):  # one prepared draw side serves every a
        a = rng.normal(size=J)
        ref_num, ref_den = _t2_gram_with_temporaries(a, G, K)
        num, den = _t2_residuals(a, draws)
        assert num.tobytes() == ref_num.tobytes() and den.tobytes() == ref_den.tobytes()
        assert np.all(den[[0, 17, 998]] == 0.0)
    # the observed row with its cancellation check, on a full-rank and
    # on a rank-one exposure matrix (where it zeroes the studentizer)
    rank_one = np.tile(S[0], (400, 1))
    e = rng.normal(size=400)
    for exposures in (S, rank_one):
        a = exposures.T @ e
        ref = _t2_gram_with_temporaries(a, G[1:2], exposures.T @ exposures, T2_CANCELLATION_RTOL)
        got = _t2_gram(a, G[1:2], exposures.T @ exposures, T2_CANCELLATION_RTOL)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(got, ref))
        assert (got[1][0] == 0.0) == (exposures is rank_one)
