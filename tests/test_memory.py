"""Memory bounds: the T2 engine and exact enumeration never build an
(L, N) or a (|group|, J) float64 matrix, and batched bootstrap draws
cost no more memory than batched sign changes."""

import tracemalloc

import numpy as np

from conftest import make_design
from shiftshare_ri import (
    RecentredBootstrap,
    SignChange,
    Statistic,
    TestSpec,
    exact_enumeration_test,
    ri_test,
)
from shiftshare_ri.rng import draw_keys
from shiftshare_ri.schemes import ENUMERATION_BLOCK


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_t2_test_peaks_below_one_draws_by_units_matrix():
    N, J, L = 3000, 200, 999
    d = make_design(seed=1, N=N, J=J)
    spec = TestSpec(b=0.0, statistic=Statistic.T2, scheme=SignChange(), L=L, seed=3)
    ri_test(d, spec)  # first call computes the cached Gram matrix
    assert _peak_bytes(lambda: ri_test(d, spec)) < 8 * L * N


def test_sign_change_enumeration_peaks_below_one_group_by_sectors_matrix():
    J = 18
    d = make_design(seed=2, N=60, J=J)
    spec = TestSpec(b=0.0, statistic=Statistic.T1, scheme=SignChange(), L=1)
    exact_enumeration_test(d, spec)
    assert _peak_bytes(lambda: exact_enumeration_test(d, spec)) < 8 * 2**J * J


def test_sign_change_enumeration_peaks_below_values_and_three_blocks():
    # values, valid and three (block, J) float64 matrices: the reused
    # block buffer and two evaluation temporaries
    J, block = 18, 2**14
    d = make_design(seed=2, N=60, J=J)
    spec = TestSpec(b=0.0, statistic=Statistic.T1, scheme=SignChange(), L=1)
    exact_enumeration_test(d, spec)
    assert _peak_bytes(lambda: exact_enumeration_test(d, spec)) < 8 * 2**J + 2**J + 3 * block * J * 8


def test_sign_change_enumeration_peaks_below_values_and_three_enumeration_blocks():
    # at the block size enumeration uses, the p-value's count is the peak:
    # values, valid, psi(values) and two masks, and three (block, J)
    # float64 matrices
    J = 18
    d = make_design(seed=2, N=60, J=J)
    spec = TestSpec(b=0.0, statistic=Statistic.T1, scheme=SignChange(), L=1)
    exact_enumeration_test(d, spec)
    bound = 2 * 8 * 2**J + 3 * 2**J + 3 * ENUMERATION_BLOCK * J * 8
    assert _peak_bytes(lambda: exact_enumeration_test(d, spec)) < bound


def test_bootstrap_draw_block_peaks_no_higher_than_sign_changes():
    L, J = 999, 200
    g = np.random.default_rng(4).normal(size=J)
    keys = draw_keys(5, np.arange(L))

    def peak(scheme):
        scheme.draw_block(keys, None, None, g)
        return _peak_bytes(lambda: scheme.draw_block(keys, None, None, g))

    assert peak(RecentredBootstrap()) <= peak(SignChange())


def test_t2_test_peaks_below_three_and_a_half_draw_matrices():
    # the draws, T2's G K and one work buffer for the studentizer's terms
    L, J = 999, 200
    d = make_design(seed=1, N=3000, J=J)
    spec = TestSpec(b=0.0, statistic=Statistic.T2, scheme=SignChange(), L=L, seed=3)
    ri_test(d, spec)
    assert _peak_bytes(lambda: ri_test(d, spec)) < 3.5 * L * J * 8
