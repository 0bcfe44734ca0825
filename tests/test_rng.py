import numpy as np
import numpy.testing as npt
import pytest

from conftest import make_design
from shiftshare_ri import (
    ConfigError,
    DataValidationError,
    IIDNormal,
    KnownDistribution,
    Permutation,
    RecentredBootstrap,
    SignChange,
    generate_draws,
)
from shiftshare_ri import rng as rng_module
from shiftshare_ri import schemes as schemes_module
from shiftshare_ri.rng import (
    DOMAIN_DATASET,
    DOMAIN_EXPERIMENT,
    DOMAIN_MOMENTS,
    DOMAIN_SCHEME_DRAW,
    bounded_integers,
    draw_keys,
    draw_stream,
    keyed_generators,
    philox_words,
    sign_bits,
    stream,
    substream_seed,
)


def test_stream_reproducible():
    a = stream(7, 1, 3).standard_normal(5)
    b = stream(7, 1, 3).standard_normal(5)
    npt.assert_array_equal(a, b)


def test_streams_differ_across_keys():
    a = stream(7, 1, 3).standard_normal(5)
    b = stream(7, 1, 4).standard_normal(5)
    c = stream(8, 1, 3).standard_normal(5)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_draw_stream_is_scheme_domain():
    npt.assert_array_equal(
        draw_stream(11, 5).standard_normal(3),
        stream(11, DOMAIN_SCHEME_DRAW, 5).standard_normal(3),
    )


def test_draw_streams_distinct_across_draw_index():
    vals = {draw_stream(3, l).integers(0, 1 << 62) for l in range(64)}
    assert len(vals) == 64


def test_substream_seed_stable_and_distinct():
    s1 = substream_seed(5, 2, 0)
    assert s1 == substream_seed(5, 2, 0)
    assert s1 != substream_seed(5, 2, 1)
    assert 0 <= s1 < 2**64


def test_domain_constants_distinct():
    doms = {DOMAIN_SCHEME_DRAW, DOMAIN_MOMENTS, DOMAIN_DATASET, DOMAIN_EXPERIMENT}
    assert doms == {1, 2, 3, 4}


# ---------------------------------------------------------------------------
# Batched keyed draws against the per-draw reference streams

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 + 7, 2**64 - 1, 2**130 + 3)
INDICES = np.array([0, 1, 2, 5, 255, 256, 2**31, 2**32 - 1])


@pytest.mark.parametrize("seed", SEEDS)
def test_draw_keys_are_the_draw_stream_keys(seed):
    keys = draw_keys(seed, INDICES)
    assert keys.dtype == np.uint64 and keys.shape == (INDICES.size, 2)
    for key, l in zip(keys, INDICES):
        npt.assert_array_equal(key, draw_stream(seed, int(l)).bit_generator.state["state"]["key"])


@pytest.mark.parametrize("seed", SEEDS)
def test_philox_words_are_the_raw_stream(seed):
    words = philox_words(draw_keys(seed, INDICES), 3)
    for row, l in zip(words, INDICES):
        npt.assert_array_equal(row, draw_stream(seed, int(l)).bit_generator.random_raw(12))


@pytest.mark.parametrize("n_blocks", (1, 2, 13, 14, 15, 16, 25, 60))
def test_philox_routes_give_the_same_words(n_blocks):
    # philox_words takes the vectorised rounds up to _ROW_ROUTE_BLOCKS
    # blocks per key and the per-row bit generator above; force both
    keys = draw_keys(2**63 + 7, INDICES)
    rounds = rng_module._philox_rounds(keys, n_blocks)
    assert rounds.dtype == np.uint64 and rounds.shape == (INDICES.size, 4 * n_blocks)
    assert rng_module._philox_rows(keys, n_blocks).tobytes() == rounds.tobytes()
    assert philox_words(keys, n_blocks).tobytes() == rounds.tobytes()
    # sign rows as wide as the words stay C-ordered
    assert SignChange().sign_block(keys, 8 * n_blocks).flags.c_contiguous


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", (1, 2, 3, 7, 8, 9, 200))
def test_sign_block_equals_per_draw_signs(seed, n):
    keys = draw_keys(seed, INDICES)
    expected = np.stack([SignChange().signs(draw_stream(seed, int(l)), n) for l in INDICES])
    block = SignChange().sign_block(keys, n)
    assert block.dtype == np.float64
    npt.assert_array_equal(block, expected)
    npt.assert_array_equal(sign_bits(keys, n), (expected > 0).astype(np.uint64))


def test_by_cluster_sign_block_equals_per_draw_signs():
    clusters = np.array([4, 1, 1, 9, 4, 0, 9, 9, 2])
    scheme = SignChange(by_cluster=True)
    for seed in (3, 2**64 - 1):
        keys = draw_keys(seed, np.arange(40))
        expected = np.stack(
            [scheme.signs(draw_stream(seed, l), clusters.size, clusters) for l in range(40)]
        )
        npt.assert_array_equal(scheme.sign_block(keys, clusters.size, clusters), expected)
    with pytest.raises(DataValidationError, match="cluster labels"):
        scheme.sign_block(keys, clusters.size)


def test_keyed_draws_do_not_change_when_l_grows():
    npt.assert_array_equal(draw_keys(5, np.arange(1000))[:10], draw_keys(5, np.arange(10)))
    d = make_design(seed=3, N=15, J=7)
    for scheme in (SignChange(m=0.2), Permutation()):
        npt.assert_array_equal(
            generate_draws(d, scheme, 300, seed=6)[:37], generate_draws(d, scheme, 37, seed=6)
        )


def test_reset_generator_draws_what_a_fresh_stream_draws():
    d = make_design(seed=4, N=12, J=9)

    def draws(rng):
        # several calls per stream, so a reset must also clear the
        # buffered half-word and the buffered block
        return [
            Permutation().draw(rng, d.S, None, d.g),
            RecentredBootstrap().draw(rng, d.S, None, d.g),
            rng.integers(0, 2, size=3),
            IIDNormal(2.0).draw(rng, d.S, None, d.g),
        ]

    seed = 2**63 + 11
    for rng, l in zip(keyed_generators(draw_keys(seed, INDICES)), INDICES):
        for got, want in zip(draws(rng), draws(draw_stream(seed, int(l)))):
            npt.assert_array_equal(got, want)


def test_generate_draws_is_c_contiguous_float64():
    d = make_design(seed=5, N=10, J=6, cluster_ids=np.array([0, 1, 0, 2, 1, 2]))
    known = KnownDistribution(lambda rng, S, e_b, g: rng.integers(-2, 3, size=g.shape[0]))
    schemes = (
        SignChange(),
        SignChange(m=0.5, by_cluster=True),
        Permutation(),
        RecentredBootstrap(),
        IIDNormal(),
        known,
    )
    for scheme in schemes:
        G = generate_draws(d, scheme, 50, seed=2)
        assert G.dtype == np.float64 and G.shape == (50, 6)
        assert G.flags.c_contiguous


def test_no_draws_is_an_empty_block():
    d = make_design(seed=5, N=10, J=6, cluster_ids=np.array([0, 1, 0, 2, 1, 2]))
    for scheme in (SignChange(), SignChange(by_cluster=True), Permutation(), RecentredBootstrap()):
        G = generate_draws(d, scheme, 0, seed=2)
        assert G.dtype == np.float64 and G.shape == (0, 6)


def test_draw_keys_reject_indices_beyond_one_spawn_word():
    with pytest.raises(ConfigError):
        draw_keys(0, [2**32])
    with pytest.raises(ConfigError):
        draw_keys(0, [-1])
    with pytest.raises(ConfigError):
        draw_keys(-1, [0])


# ---------------------------------------------------------------------------
# Batched bounded integers (the recentred bootstrap's indices)

BOUNDED_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 + 7, 2**64 - 1)


@pytest.mark.parametrize("seed", BOUNDED_SEEDS)
@pytest.mark.parametrize("high", (1, 2, 3, 7, 8, 12, 13, 200, 1000))
def test_bounded_integers_equal_per_draw_integers(seed, high):
    for n in sorted({1, 7, high}):
        values, rejected = bounded_integers(draw_keys(seed, INDICES), high, n)
        assert values.dtype == np.int64 and values.shape == (INDICES.size, n)
        # a rejection has probability below n * high / 2**32 per row,
        # and none happens on these keys
        assert rejected.dtype == bool and not rejected.any()
        for row, l in zip(values, INDICES):
            npt.assert_array_equal(row, draw_stream(seed, int(l)).integers(0, high, size=n))


def test_bounded_integers_of_one_key():
    for seed in BOUNDED_SEEDS:
        values, rejected = bounded_integers(draw_keys(seed, [3]), 12, 12)
        assert values.shape == (1, 12) and not rejected[0]
        npt.assert_array_equal(values[0], draw_stream(seed, 3).integers(0, 12, size=12))


def test_bounded_integers_flag_every_rejection_on_a_wide_range():
    # at high = 2**31 + 1 almost half of all words are rejected
    high, L = 2**31 + 1, 200
    values, rejected = bounded_integers(draw_keys(9, np.arange(L)), high, 3)
    assert 0 < rejected.sum() < L
    for l in np.flatnonzero(~rejected):
        npt.assert_array_equal(values[l], draw_stream(9, int(l)).integers(0, high, size=3))


def crafted_words(zero_rows):
    """A philox_words stand-in: random words, all zero on chosen rows."""

    def words(keys, n_blocks):
        out = np.random.default_rng(0).integers(
            0, 2**64, size=(keys.shape[0], 4 * n_blocks), dtype=np.uint64
        )
        out[zero_rows] = 0
        return out

    return words


def test_a_rejected_word_flags_its_row(monkeypatch):
    # word 0 is rejected for every range that is not a power of two
    monkeypatch.setattr(rng_module, "philox_words", crafted_words([1, 4]))
    keys = draw_keys(0, np.arange(6))
    _, rejected = bounded_integers(keys, 12, 12)
    npt.assert_array_equal(np.flatnonzero(rejected), [1, 4])
    values, rejected = bounded_integers(keys, 8, 12)
    assert not rejected.any()
    npt.assert_array_equal(values[[1, 4]], 0)


@pytest.mark.parametrize("J", (1, 3, 12, 13))
def test_bootstrap_rows_flagged_as_rejected_are_redrawn(monkeypatch, J):
    chosen = [0, 5, 49]
    real = rng_module.bounded_integers

    def forced(keys, high, n):
        values, rejected = real(keys, high, n)
        values[chosen] = 0  # wrong on purpose: the redraw must replace them
        rejected[chosen] = True
        return values, rejected

    monkeypatch.setattr(schemes_module, "bounded_integers", forced)
    g = np.linspace(-1.0, 2.0, J) ** 3
    seed = 2**63 + 7
    block = RecentredBootstrap().draw_block(draw_keys(seed, np.arange(50)), None, None, g)
    expected = np.stack(
        [RecentredBootstrap().draw(draw_stream(seed, l), None, None, g) for l in range(50)]
    )
    assert block.tobytes() == expected.tobytes()


def test_bootstrap_draw_block_is_c_contiguous_float64():
    for J in (1, 7, 12):
        g = np.arange(J, dtype=np.float64)
        block = RecentredBootstrap().draw_block(draw_keys(4, np.arange(9)), None, None, g)
        assert block.dtype == np.float64 and block.shape == (9, J)
        assert block.flags.c_contiguous


def test_bounded_integers_reject_ranges_outside_32_bits():
    keys = draw_keys(0, [0])
    for high in (0, 2**32):
        with pytest.raises(ValueError, match="high"):
            bounded_integers(keys, high, 3)
