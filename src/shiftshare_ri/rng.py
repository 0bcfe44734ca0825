"""Deterministic, splittable random-number streams.

Every random quantity in this package is drawn from a counter-based
Philox generator whose stream is fully determined by a 64-bit seed plus
an integer key path, e.g. ``(seed, DOMAIN_SCHEME_DRAW, l)`` for the
``l``-th simulated shock vector.  Because streams never depend on
execution order, draw ``l`` is bit-identical however the draws are
batched, and nested runs (a larger ``L`` with the same seed) extend
rather than reshuffle earlier draws.

:func:`draw_stream` is the reference definition of the simulated-draw
streams.  The engine computes the same streams in one batch:
:func:`draw_keys` reproduces, for an array of draw indices, the Philox
key that ``SeedSequence(seed, spawn_key=(DOMAIN_SCHEME_DRAW, l))``
derives; :func:`philox_words` evaluates the Philox4x64-10 output blocks
of all those keys at once (for wide rows, key by key from one reset bit
generator); :func:`sign_bits` reads the draws of
``Generator.integers(0, 2, size=n)`` from them (sign changes), and
:func:`bounded_integers` those of ``Generator.integers(0, high, size=n)``
(bootstrap indices), flagging the rare rows it cannot compute; and
:func:`keyed_generators` resets one reusable generator to the start of
each keyed stream for draws that need a full ``Generator``: permutation,
normal and user-supplied draws, flagged bootstrap rows and redraws.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

# Key-path domain tags.  Fixed numbers are part of the reproducibility
# contract: changing them changes every stream.
DOMAIN_SCHEME_DRAW = 1
DOMAIN_MOMENTS = 2
DOMAIN_DATASET = 3
DOMAIN_EXPERIMENT = 4


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return the Philox generator for key path ``(seed, *key)``.

    Parameters
    ----------
    seed : int
        64-bit unsigned master seed.
    *key : int
        Integer key path selecting an independent substream.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def substream_seed(seed: int, *key: int) -> int:
    """Derive a child seed (uint64) for handing to a nested component."""
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def draw_stream(seed: int, draw_index: int) -> np.random.Generator:
    """Stream for simulated-shock draw ``draw_index`` of a test run."""
    return stream(seed, DOMAIN_SCHEME_DRAW, draw_index)


# ---------------------------------------------------------------------------
# SeedSequence key derivation, vectorised over the last spawn-key word

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715


def _words32(value: int) -> list[int]:
    """A non-negative int as little-endian 32-bit words (0 is one word)."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hasher(const: int, mult: int):
    """SeedSequence's hash: each call xors the value with a running
    constant, advances the constant and multiplies by it.  Works on ints
    and on uint64 arrays, whose products wrap mod 2**64 and so keep
    their low 32 bits exact."""

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = (const * mult) & _MASK32
        value = (value * const) & _MASK32
        return value ^ (value >> 16)

    return hashmix


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def draw_keys(seed: int, draw_indices) -> np.ndarray:
    """Philox keys of the simulated-draw streams, shape (n, 2) uint64.

    Row i equals the key of ``draw_stream(seed, draw_indices[i])``,
    i.e. ``SeedSequence(seed, spawn_key=(DOMAIN_SCHEME_DRAW, l))
    .generate_state(2, np.uint64)``.  The entropy words are the seed's,
    padded to the pool size, then the spawn key's; only the last one,
    ``l``, depends on the index.  So every earlier word is mixed into
    the pool once, and only the last mixing round and the output words
    are computed per index.
    """
    seed = int(seed)
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    idx = np.asarray(draw_indices, dtype=np.int64).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() > _MASK32):
        raise ConfigError("draw indices must lie in [0, 2**32)")
    hashmix = _hasher(_INIT_A, _MULT_A)
    run = _words32(seed)
    entropy = run + [0] * (_POOL_SIZE - len(run)) + _words32(DOMAIN_SCHEME_DRAW)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:] + [idx.astype(np.uint64)]:
        pool = [_mix(p, hashmix(word)) for p in pool]
    # generate_state(2, uint64): four 32-bit words, paired low word first
    out_hash = _hasher(_INIT_B, _MULT_B)
    w0, w1, w2, w3 = (out_hash(p) for p in pool)
    return np.stack([w0 | (w1 << 32), w2 | (w3 << 32)], axis=1)


# ---------------------------------------------------------------------------
# Philox4x64-10 over many keys at once

_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit halves of the 128-bit product ``m * x``,
    assembled from 32-bit halves so that no partial product overflows."""
    m_lo, m_hi = m & _MASK32, m >> 32
    x_lo, x_hi = x & _MASK32, x >> 32
    lo_lo = m_lo * x_lo
    hi_lo = m_hi * x_lo
    cross = (lo_lo >> 32) + (hi_lo & _MASK32) + m_lo * x_hi
    hi = (hi_lo >> 32) + (cross >> 32) + m_hi * x_hi
    return hi, m * x


# Above this many blocks per key, resetting one ``Philox`` to each key and
# reading its raw output is faster than the vectorised rounds, whose cost
# grows with the width of the (keys, blocks) arrays.
_ROW_ROUTE_BLOCKS = 14


def philox_words(keys: np.ndarray, n_blocks: int) -> np.ndarray:
    """The first ``4 * n_blocks`` raw 64-bit outputs of the Philox
    stream of each key, shape (n_keys, 4 * n_blocks) uint64.

    A ``Philox`` bit generator starts at counter 0 and increments the
    counter before computing each block, so its first blocks are those
    of counters 1, 2, ..., each giving four words in order.  Up to
    ``_ROW_ROUTE_BLOCKS`` blocks per key they are computed for all keys
    at once (:func:`_philox_rounds`); wider rows are read key by key from
    one reset bit generator (:func:`_philox_rows`).  Both give the same
    words.
    """
    if int(n_blocks) > _ROW_ROUTE_BLOCKS:
        return _philox_rows(keys, n_blocks)
    return _philox_rounds(keys, n_blocks)


def _philox_rounds(keys: np.ndarray, n_blocks: int) -> np.ndarray:
    """:func:`philox_words` by ten vectorised Philox rounds over every
    (key, counter) pair."""
    keys = np.asarray(keys, dtype=np.uint64)
    shape = (keys.shape[0], int(n_blocks))
    c0 = np.broadcast_to(np.arange(1, n_blocks + 1, dtype=np.uint64), shape)
    c1 = c2 = c3 = np.zeros(shape, dtype=np.uint64)
    k0 = keys[:, :1].copy()
    k1 = keys[:, 1:].copy()
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0 += _PHILOX_W0
            k1 += _PHILOX_W1
        hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
        hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack([c0, c1, c2, c3], axis=2).reshape(keys.shape[0], 4 * shape[1])


def _philox_rows(keys: np.ndarray, n_blocks: int) -> np.ndarray:
    """:func:`philox_words` read row by row: the raw output of a ``Philox``
    bit generator reset to the start of each key's stream."""
    keys = np.asarray(keys, dtype=np.uint64)
    out = np.empty((keys.shape[0], 4 * int(n_blocks)), dtype=np.uint64)
    for row, rng in zip(out, keyed_generators(keys)):
        row[:] = rng.bit_generator.random_raw(row.shape[0])
    return out


def _halves(raw: np.ndarray) -> np.ndarray:
    """The 32-bit words of raw 64-bit outputs, the low half of each first:
    a view on little-endian machines."""
    return raw.astype("<u8", copy=False).view("<u4")


def sign_bits(keys: np.ndarray, n: int) -> np.ndarray:
    """The values of ``Generator.integers(0, 2, size=n)`` as the first
    call on each key's fresh stream, shape (n_keys, n) uint32 of 0/1.

    For a range of two, Lemire's bounded method never rejects and
    returns bit 31 of each 32-bit word; the 32-bit words are the low,
    then the high half of each raw 64-bit output.
    """
    n = int(n)
    raw = philox_words(keys, -(-n // 8))
    return _halves(raw)[:, :n] >> 31


def bounded_integers(keys: np.ndarray, high: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The values of ``Generator.integers(0, high, size=n)`` as the first
    call on each key's fresh stream, and where they are not known.

    Returns ``(values, rejected)``: int64 values of shape (n_keys, n)
    and a bool flag per key.  numpy draws each value by Lemire's bounded
    method on one 32-bit word, the low and then the high half of each
    raw 64-bit output: with ``m = u32 * high`` the value is ``m >> 32``,
    unless the low half of ``m`` is below ``(2**32 - high) % high``.
    Then numpy draws another word and every later value of the row
    shifts, so the row is flagged and its values are meaningless; the
    caller redraws it from the key's generator.  A value is rejected
    with probability below ``high / 2**32``, and never when ``high`` is
    a power of two.
    """
    high, n = int(high), int(n)
    if not 1 <= high < 2**32:
        raise ValueError(f"high must lie in [1, 2**32), got {high}")
    raw = philox_words(keys, -(-n // 8))
    words = _halves(raw)[:, :n].astype(np.uint64)
    del raw
    words *= np.uint64(high)
    rejected = (_halves(words)[:, 0::2] < (2**32 - high) % high).any(axis=1)
    words >>= np.uint64(32)
    return words.view(np.int64), rejected


def keyed_generators(keys: np.ndarray):
    """Yield one reusable generator, reset before each yield to the
    start of the stream of the next key row.

    Each yielded generator draws exactly what a freshly built Philox
    generator with that key would draw, but only until the next
    iteration step resets it.
    """
    bit_generator = np.random.Philox(0)
    rng = np.random.Generator(bit_generator)
    zeros = np.zeros(4, dtype=np.uint64)
    # the setter copies the values out, so one dict serves every key
    state = {
        "bit_generator": "Philox",
        "state": {"counter": zeros, "key": zeros[:2]},
        "buffer": zeros,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for key in np.asarray(keys, dtype=np.uint64):
        state["state"]["key"] = key
        bit_generator.state = state
        yield rng
