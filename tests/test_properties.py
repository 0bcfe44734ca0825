"""The north-star draw invariants as property tests.

Every built-in scheme's batched ``draw_block`` equals the per-draw
reference ``draw`` on ``draw_stream(seed, l)``, row for row and byte
for byte, and the first rows of a block do not change when L grows.
The examples are derandomized (see ``conftest.py``).
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from shiftshare_ri import IIDNormal, Permutation, RecentredBootstrap, SignChange
from shiftshare_ri.rng import draw_keys, draw_stream

SEEDS = st.integers(0, 2**64 - 1)
NONZERO = st.floats(-3.0, 3.0, allow_nan=False).filter(lambda m: m != 0.0)


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
