"""The north-star invariants as property tests.

Every built-in scheme's batched ``draw_block`` equals the per-draw
reference ``draw`` on ``draw_stream(seed, l)``, row for row and byte
for byte, and the first rows of a block do not change when L grows.
The p-value and order-statistic decision rules agree for every
sidedness, ties included, and ``ri_test`` decides by them.  Every point
of a confidence set is the stand-alone ``ri_test`` at that null value,
also where the null residuals cancel.
The examples are derandomized (see ``conftest.py``).
"""

import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_design
from shiftshare_ri import (
    IIDNormal,
    Permutation,
    RecentredBootstrap,
    ShiftShareDesign,
    ShiftShareError,
    Sidedness,
    SignChange,
    Statistic,
    TestSpec,
    confidence_interval,
    reject_by_order_statistic,
    reject_by_pvalue,
    ri_test,
)
from shiftshare_ri import ri as ri_module
from shiftshare_ri.rng import draw_keys, draw_stream

SEEDS = st.integers(0, 2**64 - 1)
NONZERO = st.floats(-3.0, 3.0, allow_nan=False).filter(lambda m: m != 0.0)
ALPHAS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
# statistics on a small integer lattice, so that ties are common
LATTICE = st.integers(-3, 3).map(float)


@st.composite
def shocks(draw):
    """(g, cluster_ids) with J in [1, 40] and up to six clusters."""
    J = draw(st.integers(1, 40))
    g = draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=J, max_size=J))
    clusters = draw(st.lists(st.integers(0, 5), min_size=J, max_size=J))
    return np.array(g), np.array(clusters)


def builtin_schemes(m, sigma):
    return (
        SignChange(m=m),
        SignChange(m=m, by_cluster=True),
        Permutation(),
        RecentredBootstrap(),
        IIDNormal(sigma),
    )


@given(shocks(), st.integers(1, 64), SEEDS, NONZERO, st.floats(0.1, 10.0))
def test_draw_block_equals_the_per_draw_streams(gc, L, seed, m, sigma):
    g, clusters = gc
    keys = draw_keys(seed, np.arange(L))
    for scheme in builtin_schemes(m, sigma):
        block = scheme.draw_block(keys, None, None, g, cluster_ids=clusters)
        rows = np.stack(
            [
                scheme.draw(draw_stream(seed, l), None, None, g, cluster_ids=clusters)
                for l in range(L)
            ]
        )
        assert block.dtype == np.float64 and block.flags.c_contiguous
        assert block.tobytes() == rows.tobytes(), scheme


@given(shocks(), st.integers(1, 64), st.integers(0, 64), SEEDS, NONZERO, st.floats(0.1, 10.0))
def test_first_rows_do_not_change_when_l_grows(gc, L, extra, seed, m, sigma):
    g, clusters = gc
    short, long = draw_keys(seed, np.arange(L)), draw_keys(seed, np.arange(L + extra))
    for scheme in builtin_schemes(m, sigma):
        head = scheme.draw_block(long, None, None, g, cluster_ids=clusters)[:L]
        block = scheme.draw_block(short, None, None, g, cluster_ids=clusters)
        assert head.tobytes() == block.tobytes(), scheme


@given(st.data(), st.integers(1, 200), ALPHAS, st.sampled_from(Sidedness))
def test_pvalue_and_order_statistic_rules_agree(data, L, alpha, sidedness):
    t_sims = np.array(data.draw(st.lists(LATTICE, min_size=L, max_size=L)))
    t_obs = data.draw(LATTICE)
    assert reject_by_pvalue(t_obs, t_sims, alpha, sidedness) == reject_by_order_statistic(
        t_obs, t_sims, alpha, sidedness
    )


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 200),
    ALPHAS,
    st.sampled_from(Sidedness),
    st.sampled_from(Statistic),
    st.sampled_from([SignChange(), Permutation()]),
)
def test_ri_test_decides_by_the_pvalue_rule(seed, L, alpha, sidedness, statistic, scheme):
    rng = np.random.default_rng(seed)
    design = make_design(seed=seed, N=int(rng.integers(2, 31)), J=int(rng.integers(2, 11)))
    spec = TestSpec(
        b=float(rng.normal()), statistic=statistic, scheme=scheme, L=L, alpha=alpha,
        sidedness=sidedness, seed=seed,
    )
    res = ri_test(design, spec)
    assert res.reject == reject_by_pvalue(res.t_obs, res.t_sims, alpha, sidedness)


CI_STATISTICS = {
    "t0": (Statistic.T0, False),
    "t1": (Statistic.T1, False),
    "t1c": (Statistic.T1, True),
    "t2": (Statistic.T2, False),
}


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(sorted(CI_STATISTICS)),
    st.sampled_from(Sidedness),
    st.booleans(),
    st.floats(-1.0, 1.0),
    st.booleans(),
    st.sampled_from(["sign", "permutation", "bootstrap"]),
)
def test_confidence_set_points_are_standalone_tests(seed, stat, sidedness, demean, m, cancel, scheme):
    # with cancel, Y = b0 X + 1e-12 noise, and b0 is a grid point: the null
    # residuals there are rounding-sized and the sector sums cancel
    rng = np.random.default_rng(seed)
    N, J = int(rng.integers(2, 31)), int(rng.integers(2, 11))
    S = rng.dirichlet(np.ones(J), size=N)
    g = rng.normal(size=J)
    X = S @ g
    b0 = float(rng.normal())
    Y = b0 * X + (1e-12 if cancel else 1.0) * rng.normal(size=N)
    d = ShiftShareDesign.from_arrays(Y, None, S, g, cluster_ids=rng.integers(0, 3, size=J))
    schemes = {"sign": SignChange(m=m), "permutation": Permutation(), "bootstrap": RecentredBootstrap()}
    spec = TestSpec(
        b=0.0, statistic=CI_STATISTICS[stat][0], cluster_studentizer=CI_STATISTICS[stat][1],
        scheme=schemes[scheme], L=int(rng.integers(1, 100)), alpha=0.1, sidedness=sidedness,
        seed=seed, demean=demean,
    )
    grid = np.sort(np.append(np.linspace(b0 - 2.0, b0 + 2.0, 8), b0))
    try:
        # count from the per-draw coefficients at any number of sectors
        with mock.patch.object(ri_module, "_FILTER_MIN_SECTORS", 2):
            res = confidence_interval(d, spec, grid)
    except ShiftShareError as exc:
        # the first point whose test raises, raises the same error
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            for b in grid:
                ri_test(d, replace(spec, b=float(b)))
        return
    redraws = 0
    for i, b in enumerate(grid):
        solo = ri_test(d, replace(spec, b=float(b)))
        assert res.p_values[i].tobytes() == np.float64(solo.p_value).tobytes(), (i, b)
        assert res.retained[i] == (not solo.reject)
        redraws += solo.n_degenerate_redraws
    assert res.n_degenerate_redraws == redraws
