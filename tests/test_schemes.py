import itertools

import numpy as np
import numpy.testing as npt
import pytest

from shiftshare_ri import (
    ConfigError,
    DataValidationError,
    EnumerationSizeError,
    IIDNormal,
    KnownDistribution,
    Permutation,
    RecentredBootstrap,
    SignChange,
)
from shiftshare_ri.schemes import ENUMERATION_BLOCK


def test_sign_change_preserves_magnitude_about_m():
    g = np.array([1.0, -2.0, 0.5])
    rng = np.random.default_rng(0)
    for m in (0.0, 1.0, -0.3):
        for _ in range(50):
            gs = SignChange(m=m).draw(rng, None, None, g)
            npt.assert_allclose(np.abs(gs - m), np.abs(g - m), rtol=1e-15)


def test_sign_change_flips_each_coordinate():
    g = np.array([1.0, -2.0])
    rng = np.random.default_rng(1)
    draws = np.stack([SignChange().draw(rng, None, None, g) for _ in range(200)])
    # both signs occur for every coordinate
    assert (draws[:, 0] == 1.0).any() and (draws[:, 0] == -1.0).any()
    assert (draws[:, 1] == 2.0).any() and (draws[:, 1] == -2.0).any()


def test_sign_change_by_cluster_shares_signs():
    g = np.array([1.0, 2.0, 3.0, 4.0])
    cid = np.array([0, 0, 1, 1])
    rng = np.random.default_rng(2)
    sc = SignChange(by_cluster=True)
    for _ in range(25):
        gs = sc.draw(rng, None, None, g, cluster_ids=cid)
        kappa = gs / g
        assert kappa[0] == kappa[1] and kappa[2] == kappa[3]
        assert set(np.abs(kappa)) == {1.0}


def test_sign_change_by_cluster_requires_ids():
    with pytest.raises(DataValidationError):
        SignChange(by_cluster=True).draw(
            np.random.default_rng(0), None, None, np.ones(3)
        )


def test_sign_change_rejects_nonfinite_m():
    with pytest.raises(DataValidationError):
        SignChange(m=np.nan)


def test_bootstrap_draws_from_recentred_pool():
    # g = (1, 3): the recentred pool is {-1, +1}
    g = np.array([1.0, 3.0])
    rng = np.random.default_rng(3)
    for _ in range(100):
        gs = RecentredBootstrap().draw(rng, None, None, g)
        assert set(gs) <= {-1.0, 1.0}


def test_permutation_preserves_multiset():
    g = np.array([0.3, -1.2, 5.0, 0.3])
    rng = np.random.default_rng(4)
    for _ in range(50):
        gs = Permutation().draw(rng, None, None, g)
        npt.assert_array_equal(np.sort(gs), np.sort(g))


def test_permutation_of_constant_vector_is_identity():
    g = np.full(5, 2.5)
    gs = Permutation().draw(np.random.default_rng(5), None, None, g)
    npt.assert_array_equal(gs, g)


def test_iid_normal_validates_sigma():
    with pytest.raises(DataValidationError):
        IIDNormal(sigma=0.0)
    with pytest.raises(DataValidationError):
        IIDNormal(sigma=-1.0)


def test_known_distribution_receives_context():
    seen = {}

    def sampler(rng, S, e_b, g):
        seen["S"], seen["e_b"] = S, e_b
        return rng.normal(size=g.shape[0])

    S = np.eye(3)
    e_b = np.array([1.0, 2.0, 3.0])
    KnownDistribution(sampler).draw(np.random.default_rng(6), S, e_b, np.ones(3))
    assert seen["S"] is S and seen["e_b"] is e_b


def test_known_distribution_checks_shape_and_finiteness():
    bad_shape = KnownDistribution(lambda rng, S, e_b, g: np.zeros(2))
    with pytest.raises(DataValidationError):
        bad_shape.draw(np.random.default_rng(0), None, None, np.ones(3))
    bad_vals = KnownDistribution(lambda rng, S, e_b, g: np.full(3, np.nan))
    with pytest.raises(DataValidationError):
        bad_vals.draw(np.random.default_rng(0), None, None, np.ones(3))


def test_sign_change_moments_by_enumeration():
    # g = (3, 0) about m = 1: coordinate values {-1, 3} and {2, 0}
    g = np.array([3.0, 0.0])
    mean, m2, m4 = SignChange(m=1.0).moments(g)
    npt.assert_allclose(mean, [1.0, 1.0])
    npt.assert_allclose(m2, [5.0, 2.0])
    npt.assert_allclose(m4, [41.0, 8.0])


def test_iid_normal_moments_closed_form():
    g = np.zeros(4)
    mean, m2, m4 = IIDNormal(sigma=2.0).moments(g)
    npt.assert_allclose(mean, 0.0)
    npt.assert_allclose(m2, 4.0)
    npt.assert_allclose(m4, 48.0)


def test_bootstrap_moments_match_pool():
    g = np.array([1.0, 2.0, 6.0])
    pool = g - g.mean()
    mean, m2, m4 = RecentredBootstrap().moments(g)
    npt.assert_allclose(mean, 0.0)
    npt.assert_allclose(m2, np.mean(pool**2))
    npt.assert_allclose(m4, np.mean(pool**4))


def test_permutation_moments_are_marginals():
    g = np.array([1.0, -1.0, 2.0])
    mean, m2, m4 = Permutation().moments(g)
    npt.assert_allclose(mean, g.mean())
    npt.assert_allclose(m2, np.mean(g**2))
    npt.assert_allclose(m4, np.mean(g**4))


@pytest.mark.parametrize(
    "scheme",
    [SignChange(m=0.5), IIDNormal(sigma=1.5), RecentredBootstrap(), Permutation()],
)
def test_closed_form_moments_agree_with_monte_carlo(scheme):
    g = np.array([0.8, -1.1, 0.3, 2.0])
    mean, m2, m4 = scheme.moments(g)
    mc_mean, mc_m2, mc_m4 = scheme._mc_moments(g, None, None, n_mc=20000, seed=9)
    # 20k draws: crude 5-sigma style bounds on each moment
    npt.assert_allclose(mc_mean, mean, atol=0.08)
    npt.assert_allclose(mc_m2, m2, atol=0.25)
    npt.assert_allclose(mc_m4, m4, atol=2.0)


def test_draws_deterministic_given_generator_seed():
    g = np.array([0.4, -0.9, 1.7])
    for scheme in (SignChange(), IIDNormal(), RecentredBootstrap(), Permutation()):
        a = scheme.draw(np.random.default_rng(42), None, None, g)
        b = scheme.draw(np.random.default_rng(42), None, None, g)
        npt.assert_array_equal(a, b)


# -- the finite groups that exact enumeration walks ---------------------

# (g - 0.1) + 0.1 rounds away from g in its last coordinate
G_OFF = np.array([-0.6232744625373522, 0.0413259793472436, -2.3250307746388343, -0.21879166393254573])


def _bit_signs(k, n):
    """Signs of element k: +1 on sign i when bit i of k is set."""
    return np.array([1.0 if (k >> i) & 1 else -1.0 for i in range(n)])


def test_sign_change_group_order_and_identity():
    scheme = SignChange(m=0.1)
    assert not np.array_equal(scheme.apply(np.ones(4), G_OFF), G_OFF)
    size, identity, block = scheme.group(G_OFF)
    assert (size, identity) == (16, 15)
    rows = block(0, size)
    assert rows[identity].tobytes() == G_OFF.tobytes()
    for k in range(size - 1):
        assert rows[k].tobytes() == scheme.apply(_bit_signs(k, 4), G_OFF).tobytes()
    npt.assert_array_equal(np.vstack([block(0, 5), block(5, 16)]), rows)


def test_by_cluster_group_flips_whole_clusters():
    g = np.array([0.4, -1.3, 2.2, 0.9, -0.5, 1.7])
    labels = np.array([9, 4, 9, 11, 4, 9])  # unsorted and non-contiguous
    scheme = SignChange(m=-0.2, by_cluster=True)
    size, identity, block = scheme.group(g, labels)
    assert (size, identity) == (8, 7)
    rows = block(0, size)
    assert rows[identity].tobytes() == g.tobytes()
    uniq = np.unique(labels)
    for k in range(size - 1):
        kappa = _bit_signs(k, uniq.size)[np.searchsorted(uniq, labels)]
        npt.assert_array_equal(rows[k], scheme.apply(kappa, g))
        signs = np.sign((rows[k] + 0.2) / (g + 0.2))
        for c in uniq:
            assert np.unique(signs[labels == c]).size == 1
    with pytest.raises(DataValidationError, match="cluster labels"):
        scheme.group(g)


def _wide_groups():
    """Sign-change groups over several enumeration blocks: 2^16 sector
    signs with m = 0.1, and 16 clusters over 40 sectors (unsorted labels)."""
    g = np.concatenate([G_OFF, np.random.default_rng(7).normal(size=12)])
    yield SignChange(m=0.1), g, None
    rng = np.random.default_rng(8)
    labels = rng.permutation(np.arange(40) % 16) * 3 + 5
    yield SignChange(m=-0.2, by_cluster=True), rng.normal(size=40), labels


@pytest.mark.parametrize("scheme, g, labels", list(_wide_groups()))
def test_wide_sign_change_group_blocks_in_any_call_order(scheme, g, labels):
    # blocks come from one reused buffer: each is checked when returned,
    # and the last block's identity row must not leak into a later block
    t = ENUMERATION_BLOCK
    size, identity, block = scheme.group(g, labels)
    assert (size, identity) == (2**16, 2**16 - 1)
    sign_of = slice(None) if labels is None else np.unique(labels, return_inverse=True)[1]
    assert not np.array_equal(scheme.apply(np.ones(g.size), g), g)  # so a leaked identity shows

    def expected(k):
        return g if k == identity else scheme.apply(_bit_signs(k, 16)[sign_of], g)

    calls = [(size - t, size), (0, t), (2 * t, 3 * t), (2 * t, 3 * t), (t - 3, t + 5), (size - 6, size)]
    for lo, hi in calls:
        rows = block(lo, hi)
        assert rows.shape == (hi - lo, g.size) and rows.flags.f_contiguous
        for k in {0, t - 1, t, 2 * t + 3, size - 2, identity, lo, hi - 1}:
            if lo <= k < hi:
                assert rows[k - lo].tobytes() == expected(k).tobytes(), (lo, hi, k)


def test_groups_over_the_limit_name_it():
    with pytest.raises(EnumerationSizeError) as signs:
        SignChange().group(np.ones(21))
    assert str(signs.value) == "sign-change group has 2^21 elements, over the 2^20 limit"
    with pytest.raises(EnumerationSizeError) as perms:
        Permutation().group(np.ones(10))
    assert str(perms.value) == "permutation group has 10! elements, over the 2^20 limit"


def test_permutation_group_order_and_identity():
    g = np.array([0.3, -1.2, 2.5, 0.7])
    size, identity, block = Permutation().group(g)
    assert (size, identity) == (24, 0)
    rows = np.vstack([block(0, 7), block(7, 24)])
    assert rows[identity].tobytes() == g.tobytes()
    expected = [g[list(p)] for p in itertools.permutations(range(4))]
    npt.assert_array_equal(rows, expected)


def test_enumerable_schemes_share_one_check():
    from shiftshare_ri import MethodKind, MethodSpec
    from shiftshare_ri.schemes import check_enumerable

    for scheme in (SignChange(m=0.2, by_cluster=True), Permutation()):
        check_enumerable(scheme)
        MethodSpec(MethodKind.ENUMERATION, scheme=scheme)
    for scheme in (RecentredBootstrap(), IIDNormal(), KnownDistribution(lambda rng, S, e_b, g: g)):
        with pytest.raises(ConfigError) as direct:
            check_enumerable(scheme)
        with pytest.raises(ConfigError) as by_method:
            MethodSpec(MethodKind.ENUMERATION, scheme=scheme)
        assert str(direct.value) == str(by_method.value)
