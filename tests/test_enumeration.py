import itertools

import numpy as np
import numpy.testing as npt
import pytest

from conftest import identity_design, make_design
from shiftshare_ri import ri
from shiftshare_ri import (
    ConfigError,
    EnumerationSizeError,
    IIDNormal,
    Permutation,
    SignChange,
    Sidedness,
    Statistic,
    TestSpec,
    exact_enumeration_test,
)
from shiftshare_ri.montecarlo import DGPSpec, DirichletRows, generate_dataset


def spec_enum(**kw):
    base = dict(b=0.0, statistic=Statistic.T1, scheme=SignChange(), L=1, seed=0)
    base.update(kw)
    return TestSpec(**base)


def test_sign_change_group_j2_hand_case():
    # a = (3, 1), g = (1, 2): numerators over the four sign patterns are
    # {5, -1, 1, -5} with a shared studentizer sqrt(13)
    d = identity_design([3.0, 1.0], [1.0, 2.0], X=[1.0, 1.0])
    res = exact_enumeration_test(d, spec_enum())
    assert res.t_sims.shape == (4,)
    npt.assert_allclose(
        np.sort(np.abs(res.t_sims)) * np.sqrt(13.0), [1.0, 1.0, 5.0, 5.0], rtol=1e-12
    )
    assert res.p_value == pytest.approx(0.5)  # obs ties only its negation
    res_r = exact_enumeration_test(d, spec_enum(sidedness=Sidedness.RIGHT_TAIL))
    assert res_r.p_value == pytest.approx(0.25)


def test_degenerate_group_element_is_conditioned_out():
    # a = (3, 1), g = (2, 2), m = 1: kappa = (-1, -1) gives g* = 0, whose
    # studentizer vanishes; that element leaves both counts, so only the
    # observed statistic itself is extreme among the three valid elements
    d = identity_design([3.0, 1.0], [2.0, 2.0])
    res = exact_enumeration_test(d, spec_enum(scheme=SignChange(m=1.0)))
    assert np.count_nonzero(np.isnan(res.t_sims)) == 1
    assert res.p_value == 1 / 3


@pytest.mark.parametrize("sidedness", list(Sidedness))
def test_enumeration_agrees_with_sampled_test_on_degenerate_design(sidedness):
    # the sampled test replaces the degenerate draw, enumeration leaves
    # the degenerate element out; both sample the same conditional law
    d = identity_design([3.0, 1.0], [2.0, 2.0])
    spec = spec_enum(scheme=SignChange(m=1.0), L=9999, seed=17, sidedness=sidedness)
    exact = exact_enumeration_test(d, spec).p_value
    sampled = ri.ri_test(d, spec)
    assert sampled.n_degenerate_redraws > 0
    se = np.sqrt(exact * (1 - exact) / spec.L)
    if sidedness is Sidedness.EQUAL_TAIL:
        se *= 2  # p = 2 * min(p_right, p_left)
    assert abs(sampled.p_value - exact) <= 5 * se + 2 / (spec.L + 1)


def test_permutation_group_j3_matches_brute_force():
    d = identity_design([1.0, 4.0, 2.0], [0.3, -0.7, 1.1], X=[1.0, 1.0, 1.0])
    res = exact_enumeration_test(d, spec_enum(scheme=Permutation()))
    assert res.t_sims.shape == (6,)
    a = d.Y.copy()
    vals = []
    for perm in itertools.permutations(range(3)):
        g = d.g[list(perm)]
        vals.append((a * g).sum() / np.sqrt(((a * g) ** 2).sum()))
    npt.assert_allclose(np.sort(res.t_sims), np.sort(vals), rtol=1e-12)
    count = sum(1 for v in vals if abs(v) >= abs(res.t_obs) - 1e-15)
    assert res.p_value == pytest.approx(count / 6)


def test_identity_element_keeps_p_positive_even_with_offset_m():
    # (g - m) + m is not bit-equal to g in floats; the identity row is
    # pinned so the observed pattern always counts
    for seed in range(15):
        d = make_design(seed=seed, N=10, J=7)
        res = exact_enumeration_test(d, spec_enum(scheme=SignChange(m=0.1)))
        assert res.p_value >= 1 / 128 - 1e-15
        assert res.p_value <= 1.0


def test_identity_survives_demeaning():
    for seed in range(10):
        d = make_design(seed=seed + 50, N=9, J=6)
        res = exact_enumeration_test(d, spec_enum(demean=True))
        assert res.p_value >= 1 / 64 - 1e-15


def test_by_cluster_enumerates_cluster_patterns():
    cid = np.array([0, 0, 1, 1])
    d = make_design(seed=3, N=11, J=4, cluster_ids=cid)
    res = exact_enumeration_test(d, spec_enum(scheme=SignChange(by_cluster=True)))
    assert res.t_sims.shape == (4,)
    # brute force over the 2 cluster signs
    from shiftshare_ri.estimator import batch_t1, sector_residual_sums

    a = sector_residual_sums(d.S, d.Y - 0.0 * d.X)
    vals = []
    for k1 in (-1.0, 1.0):
        for k2 in (-1.0, 1.0):
            kappa = np.array([k1, k1, k2, k2])
            num, den = batch_t1(a, (kappa * d.g)[None, :])
            vals.append(num[0] / den[0])
    npt.assert_allclose(np.sort(res.t_sims), np.sort(vals), rtol=1e-12)


def test_size_guard_sign_change():
    d = make_design(seed=4, N=25, J=21)
    with pytest.raises(EnumerationSizeError, match="2\\^21"):
        exact_enumeration_test(d, spec_enum())


def test_size_guard_permutation():
    d = make_design(seed=5, N=25, J=10)
    with pytest.raises(EnumerationSizeError, match="10!"):
        exact_enumeration_test(d, spec_enum(scheme=Permutation()))


def test_permutation_j7_within_guard():
    d = make_design(seed=6, N=18, J=7)
    res = exact_enumeration_test(d, spec_enum(scheme=Permutation()))
    assert res.t_sims.shape == (5040,)
    assert res.p_value >= 1 / 5040 - 1e-15


def test_unsupported_scheme_rejected():
    d = make_design(seed=7)
    with pytest.raises(ConfigError):
        exact_enumeration_test(d, spec_enum(scheme=IIDNormal()))


def test_exact_test_is_valid_over_the_whole_group():
    # treat each group element in turn as the observed assignment: the
    # randomization p-value must satisfy P(p <= t) <= t for every t
    d = make_design(seed=8, N=12, J=6)
    res = exact_enumeration_test(d, spec_enum(alpha=0.2))
    v = np.abs(np.asarray(res.t_sims))
    size = v.shape[0]
    p_all = (v[None, :] >= v[:, None] - 1e-15).sum(axis=1) / size
    for t in np.arange(1, size + 1) / size:
        assert np.mean(p_all <= t + 1e-15) <= t + 1e-12


def test_equal_tail_enumeration_decision():
    d = make_design(seed=9, N=10, J=6)
    spec = spec_enum(sidedness=Sidedness.EQUAL_TAIL, alpha=0.25)
    res = exact_enumeration_test(d, spec)
    v = np.asarray(res.t_sims)
    size = v.shape[0]
    p_right = np.count_nonzero(v >= res.t_obs) / size
    p_left = np.count_nonzero(v <= res.t_obs) / size
    assert res.p_value == pytest.approx(min(1.0, 2 * min(p_right, p_left)))
    assert res.reject == (p_right <= 0.125 or p_left <= 0.125)


def test_enumeration_reports_no_redraws():
    d = make_design(seed=10, N=9, J=5)
    assert exact_enumeration_test(d, spec_enum()).n_degenerate_redraws == 0


def _unblocked_group_values(design, spec):
    """Statistic over the whole group from one evaluation of the full
    (|group|, J) shock matrix, built element by element; returns
    (values, valid, index of the identity element)."""
    null = ri._NullProblem(design, spec)
    scheme = spec.scheme
    if isinstance(scheme, Permutation):
        G = design.g[np.array(list(itertools.permutations(range(design.J))))]
        identity = 0
    else:
        labels = design.cluster_ids if scheme.by_cluster else np.arange(design.J)
        _, inverse = np.unique(labels, return_inverse=True)
        n = int(inverse.max()) + 1
        # element k puts sign +1 on flip unit i when bit i of k is set
        kappa = np.array(
            [[1.0 if (k >> i) & 1 else -1.0 for i in range(n)] for k in range(2**n)]
        )[:, inverse]
        G = kappa * (design.g - scheme.m) + scheme.m
        G[-1] = design.g
        identity = G.shape[0] - 1
    values, valid = null.evaluate(G)
    return values, valid, identity


@pytest.mark.parametrize("block", [4, 5])
@pytest.mark.parametrize(
    "J, cluster_ids, kw",
    [
        (7, None, dict()),
        (7, None, dict(sidedness=Sidedness.RIGHT_TAIL, demean=True)),
        (6, None, dict(scheme=SignChange(m=0.3), statistic=Statistic.T2)),
        (7, [2, 0, 1, 0, 2, 1, 1], dict(scheme=SignChange(by_cluster=True))),
        (7, [2, 0, 1, 0, 2, 1, 1], dict(scheme=SignChange(m=-0.2, by_cluster=True), statistic=Statistic.T0)),
        (3, None, dict(scheme=Permutation())),
        (5, None, dict(scheme=Permutation(), sidedness=Sidedness.LEFT_TAIL)),
    ],
)
def test_blocked_enumeration_matches_unblocked(monkeypatch, block, J, cluster_ids, kw):
    cid = None if cluster_ids is None else np.array(cluster_ids)
    d = make_design(seed=40 + J, N=16, J=J, cluster_ids=cid)
    spec = spec_enum(**kw)
    values, valid, identity = _unblocked_group_values(d, spec)
    monkeypatch.setattr(ri, "_ENUM_BLOCK", block)
    res = exact_enumeration_test(d, spec)
    assert res.t_sims.shape[0] > block  # several blocks, the last one partial or full
    npt.assert_allclose(res.t_sims, values, rtol=1e-12)
    npt.assert_array_equal(np.isnan(res.t_sims), ~valid)
    assert res.t_obs == res.t_sims[identity]
    assert res.t_obs == pytest.approx(values[identity], rel=1e-12)
    assert res.p_value == ri._tail_p(values[identity], values, valid, spec.sidedness, 0)


def test_identity_always_counted_against_its_own_value():
    # the observed value used to come from a separate one-row evaluation,
    # a few ulps off the identity row of the group evaluation, so the
    # identity could go uncounted and p could reach 0 (e.g. seed 2, J = 6,
    # T2, two-sided); with m = 0 the mirror element -g ties it exactly
    for s in range(60):
        for J in (6, 10, 14):
            dgp = DGPSpec(N=40 + s, J=J, exposure_design=DirichletRows(1.0))
            d, _ = generate_dataset(dgp, s)
            for statistic in Statistic:
                for sidedness in (Sidedness.TWO_SIDED_ABS, Sidedness.RIGHT_TAIL, Sidedness.LEFT_TAIL):
                    res = exact_enumeration_test(
                        d, spec_enum(b=5.0, statistic=statistic, sidedness=sidedness)
                    )
                    floor = 2 if sidedness is Sidedness.TWO_SIDED_ABS else 1
                    assert res.p_value >= floor / 2**J, (s, J, statistic, sidedness)


def test_schemes_without_a_group_are_rejected_after_the_observed_statistic():
    from shiftshare_ri import KnownDistribution, RecentredBootstrap, ZeroVarianceError

    good = make_design(seed=7)
    flat = identity_design([2.0, 4.0], [1.0, 1.0], X=[1.0, 2.0])  # T1 undefined at b = 2
    for scheme in (IIDNormal(), RecentredBootstrap(), KnownDistribution(lambda rng, S, e_b, g: g)):
        with pytest.raises(ConfigError, match="sign-change and permutation schemes only"):
            exact_enumeration_test(good, spec_enum(scheme=scheme))
        with pytest.raises(ZeroVarianceError):
            exact_enumeration_test(flat, spec_enum(b=2.0, scheme=scheme))
