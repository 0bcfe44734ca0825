"""Simulation schemes for sector shocks.

A scheme encodes a guess at the shock assignment process and knows how
to produce one simulated shock vector from a generator.  Draws may
depend on the exposures and the null residuals (user-supplied samplers
receive both), though the built-in schemes use only the observed shocks.

``draw_block`` produces the draws of a whole test at once, one row per
key of :func:`rng.draw_keys`, each row equal to ``draw`` on that key's
fresh stream.  Sign changes and the recentred bootstrap compute their
rows from the Philox output of all keys at once; a bootstrap row that
hits Lemire's rejection branch is redrawn by ``draw``.  Permutation,
normal and user-supplied samplers call ``draw`` once per row on one
reusable generator reset to each key.

Sign changes and permutations also define the finite group that exact
enumeration walks (``group``; see :func:`check_enumerable`), block by
block, ``ENUMERATION_BLOCK`` elements at a time.  A returned block is
valid until the next call; permutation blocks come on consecutive
ranges.  Sign-change blocks are built from one reused template of
``ENUMERATION_BLOCK`` rows.

Schemes also report per-coordinate moments (mean, second, fourth) of
their draws, which feed the asymptotic-condition diagnostics.  For the
built-ins these are closed form; user-supplied samplers fall back to
Monte Carlo.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DataValidationError, EnumerationSizeError
from .rng import DOMAIN_MOMENTS, bounded_integers, keyed_generators, sign_bits, stream

ENUMERATION_LIMIT = 2**20  # the largest group that exact enumeration walks
_LIMIT = f"2^{ENUMERATION_LIMIT.bit_length() - 1}"
# Enumeration evaluates a group this many elements at a time, so its
# temporaries stay a few MB however large the group is.  At J = 18 a
# block of 2^14 rows and its G * G take about 4.7 MB, more than a
# typical L2 cache; 2^12 rows evaluate faster per element.
ENUMERATION_BLOCK = 2**12


@dataclass(frozen=True)
class SimulationScheme:
    """Base class; concrete schemes implement ``draw`` and ``moments``."""

    def draw(self, rng, S, e_b, g, cluster_ids=None) -> np.ndarray:
        raise NotImplementedError

    def draw_block(self, keys, S, e_b, g, cluster_ids=None) -> np.ndarray:
        """C-contiguous (len(keys), J) float64 array whose row i is
        ``draw`` on a fresh generator with Philox key ``keys[i]``."""
        G = np.empty((keys.shape[0], g.shape[0]))
        for row, rng in zip(G, keyed_generators(keys)):
            row[:] = self.draw(rng, S, e_b, g, cluster_ids=cluster_ids)
        return G

    def moments(self, g, S=None, e_b=None, n_mc=2000, seed=0):
        """Per-coordinate (mean, second moment, fourth moment) of g*.

        Returns three arrays of shape (J,).  Closed form where the
        scheme permits, Monte Carlo with a dedicated stream otherwise.
        """
        raise NotImplementedError

    def _mc_moments(self, g, S, e_b, n_mc, seed):
        rng = stream(seed, DOMAIN_MOMENTS)
        draws = np.stack([self.draw(rng, S, e_b, g) for _ in range(int(n_mc))])
        return draws.mean(axis=0), (draws**2).mean(axis=0), (draws**4).mean(axis=0)


@dataclass(frozen=True)
class KnownDistribution(SimulationScheme):
    """User-supplied draw procedure ``sampler(rng, S, e_b, g) -> g*``.

    The sampler may depend on exposures and null residuals, not only on
    the observed shocks.
    """

    sampler: Callable[[np.random.Generator, np.ndarray, np.ndarray, np.ndarray], np.ndarray]

    def draw(self, rng, S, e_b, g, cluster_ids=None):
        out = np.asarray(self.sampler(rng, S, e_b, g), dtype=np.float64)
        if out.shape != np.shape(g):
            raise DataValidationError(
                f"sampler returned shape {out.shape}, expected {np.shape(g)}"
            )
        if not np.all(np.isfinite(out)):
            raise DataValidationError("sampler returned non-finite values")
        return out

    def moments(self, g, S=None, e_b=None, n_mc=2000, seed=0):
        return self._mc_moments(g, S, e_b, n_mc, seed)


@dataclass(frozen=True)
class RecentredBootstrap(SimulationScheme):
    """IID draws from the empirical distribution of ``g_j - mean(g)``."""

    def draw(self, rng, S, e_b, g, cluster_ids=None):
        pool = g - g.mean()
        idx = rng.integers(0, g.shape[0], size=g.shape[0])
        return pool[idx]

    def draw_block(self, keys, S, e_b, g, cluster_ids=None):
        idx, rejected = bounded_integers(keys, g.shape[0], g.shape[0])
        G = (g - g.mean())[idx]
        rows = np.flatnonzero(rejected)
        for row, rng in zip(rows, keyed_generators(keys[rows])):
            G[row] = self.draw(rng, S, e_b, g, cluster_ids=cluster_ids)
        return G

    def moments(self, g, S=None, e_b=None, n_mc=2000, seed=0):
        pool = g - g.mean()
        J = g.shape[0]
        m2 = float(np.mean(pool**2))
        m4 = float(np.mean(pool**4))
        return np.zeros(J), np.full(J, m2), np.full(J, m4)


@dataclass(frozen=True)
class IIDNormal(SimulationScheme):
    """IID Gaussian shocks with mean zero and standard deviation sigma."""

    sigma: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise DataValidationError(f"sigma must be positive, got {self.sigma}")

    def draw(self, rng, S, e_b, g, cluster_ids=None):
        return self.sigma * rng.standard_normal(g.shape[0])

    def moments(self, g, S=None, e_b=None, n_mc=2000, seed=0):
        J = g.shape[0]
        s2 = self.sigma**2
        return np.zeros(J), np.full(J, s2), np.full(J, 3.0 * s2**2)


@dataclass(frozen=True)
class SignChange(SimulationScheme):
    """Recentred sign changes: ``g* = kappa * (g - m) + m`` with kappa
    uniform on {-1, +1}^J.

    With ``by_cluster=True`` a single sign is drawn per shock cluster,
    preserving within-cluster dependence (requires cluster labels).
    """

    m: float = 0.0
    by_cluster: bool = False

    def __post_init__(self):
        if not np.isfinite(self.m):
            raise DataValidationError(f"symmetry point m must be finite, got {self.m}")

    def _sign_map(self, J, cluster_ids):
        """(n, index): n independent signs, sector j taking sign index[j]."""
        if not self.by_cluster:
            return J, np.s_[:]
        if cluster_ids is None:
            raise DataValidationError("by_cluster sign changes need cluster labels")
        uniq, inverse = np.unique(cluster_ids, return_inverse=True)
        return uniq.shape[0], inverse

    def apply(self, kappa, g):
        """The group action on g: ``kappa * (g - m) + m`` per row of signs."""
        return kappa * (g - self.m) + self.m

    def signs(self, rng, J, cluster_ids=None):
        n, index = self._sign_map(J, cluster_ids)
        return (rng.integers(0, 2, size=n) * 2 - 1).astype(np.float64)[index]

    def sign_block(self, keys, J, cluster_ids=None):
        """(len(keys), J) float64 array whose row i is ``signs`` on a
        fresh generator with Philox key ``keys[i]``."""
        n, index = self._sign_map(J, cluster_ids)
        return np.ascontiguousarray(np.where(sign_bits(keys, n) == 1, 1.0, -1.0)[:, index])

    def draw(self, rng, S, e_b, g, cluster_ids=None):
        return self.apply(self.signs(rng, g.shape[0], cluster_ids), g)

    def draw_block(self, keys, S, e_b, g, cluster_ids=None):
        return self.apply(self.sign_block(keys, g.shape[0], cluster_ids), g)

    def group(self, g, cluster_ids=None):
        """The 2^n sign patterns (per sector or cluster) as ``(size, identity,
        block)``: ``block(lo, hi)`` gives elements lo..hi-1, F-ordered,
        element k putting +1 on sign i when bit i of k is set; the identity
        (last) is g itself.  The rows of elements 0..t-1, t = min(size,
        ``ENUMERATION_BLOCK``), are built once.  Element k repeats row k mod
        t but for the signs on bits log2(t) and up, which are constant over
        each aligned run of t elements.  Such a run is returned in that one
        reused buffer; other ranges are copied from it into a fresh array.
        A returned block is valid until the next call."""
        n, index = self._sign_map(g.shape[0], cluster_ids)
        size = 2**n
        if size > ENUMERATION_LIMIT:
            raise EnumerationSizeError(f"sign-change group has 2^{n} elements, over the {_LIMIT} limit")
        t = min(size, ENUMERATION_BLOCK)
        bit = np.arange(n)[index]  # the sign bit of each sector
        high = bit >= t.bit_length() - 1
        k = np.arange(t, dtype=np.int64)
        # F-ordered, as every block is: matrix products round by layout.
        rows = self.apply(np.asfortranarray(((k[:, None] >> bit) & 1) * 2.0 - 1.0), g)
        last = rows[-1].copy()

        def block(lo: int, hi: int) -> np.ndarray:
            reuse = lo % t == 0 and hi - lo == t
            out = rows if reuse else np.empty((hi - lo, g.shape[0]), order="F")
            for base in range(lo - lo % t, hi, t):
                start, stop = max(lo, base), min(hi, base + t)
                seg = out[start - lo : stop - lo]
                if not reuse:
                    seg[:] = rows[start - base : stop - base]
                if size > t:  # the signs on bits log2(t) and up; undo an earlier identity
                    if stop - base == t:
                        seg[-1] = last
                    seg[:, high] = self.apply(((base >> bit[high]) & 1) * 2.0 - 1.0, g[high])
            if hi == size:
                out[-1] = g
            return out

        return size, size - 1, block

    def moments(self, g, S=None, e_b=None, n_mc=2000, seed=0):
        d = g - self.m
        mean = np.full(g.shape[0], self.m)
        m2 = d**2 + self.m**2
        m4 = d**4 + 6.0 * d**2 * self.m**2 + self.m**4
        return mean, m2, m4


@dataclass(frozen=True)
class Permutation(SimulationScheme):
    """Uniformly random permutation of the observed shock vector."""

    def draw(self, rng, S, e_b, g, cluster_ids=None):
        return g[rng.permutation(g.shape[0])]

    def group(self, g, cluster_ids=None):
        """The J! permutations in ``itertools.permutations`` order, identity
        first, as ``(size, identity, block)``; call ``block`` on consecutive
        ranges from 0, since it walks one iterator.  A returned block is
        valid until the next call."""
        J = g.shape[0]
        size = math.factorial(J)
        if size > ENUMERATION_LIMIT:
            raise EnumerationSizeError(f"permutation group has {J}! elements, over the {_LIMIT} limit")
        perms = itertools.permutations(range(J))
        return size, 0, lambda lo, hi: g[np.array(list(itertools.islice(perms, hi - lo)), dtype=np.intp)]

    def moments(self, g, S=None, e_b=None, n_mc=2000, seed=0):
        J = g.shape[0]
        return (
            np.full(J, float(g.mean())),
            np.full(J, float(np.mean(g**2))),
            np.full(J, float(np.mean(g**4))),
        )


def check_enumerable(scheme) -> None:
    """Raise ``ConfigError`` unless ``scheme`` has a ``group`` to enumerate."""
    if not isinstance(scheme, (SignChange, Permutation)):
        raise ConfigError("exact enumeration supports sign-change and permutation schemes only")
