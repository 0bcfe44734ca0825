"""Shift-share data model: outcomes, treatments, exposures, shocks.

The central object is :class:`ShiftShareDesign`, an immutable, validated
snapshot of an N-unit, J-sector sample.  The instrument is the exposure-
weighted combination of sector shocks, ``Z_i = s_i' g``, cached at
construction and re-checked against its definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DataValidationError

# Relative tolerance for treating the cached instrument, and for treating
# X and Z, as identical.
INSTRUMENT_RTOL = 1e-12
REDUCED_FORM_RTOL = 1e-12


def build_instrument(S: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Construct the shift-share instrument ``Z_i = s_i' g``.

    Parameters
    ----------
    S : ndarray, shape (N, J)
        Exposure weights, one row per unit.
    g : ndarray, shape (J,)
        Sector shocks.

    Returns
    -------
    ndarray, shape (N,)
        The instrument vector ``S @ g``.
    """
    S = np.asarray(S, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if S.ndim != 2:
        raise DataValidationError(f"exposure matrix must be 2-dimensional, got ndim={S.ndim}")
    if g.ndim != 1 or g.shape[0] != S.shape[1]:
        raise DataValidationError(
            f"shock vector length {g.shape} does not match exposure columns {S.shape[1]}"
        )
    return S @ g


def demean_shocks(g: np.ndarray) -> np.ndarray:
    """Subtract the sample mean from a shock vector.

    Working with demeaned shocks makes the tests insensitive to a common
    unknown shock mean, at the cost of estimating that mean by the
    cross-sector average.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 1 or g.shape[0] < 2:
        raise DataValidationError("shock vector must be 1-dimensional with at least 2 entries")
    return g - g.mean()


@dataclass(frozen=True)
class NullResiduals:
    """Residuals ``e_b = Y - X b`` computed under a hypothesized coefficient.

    Attributes
    ----------
    b : float
        Hypothesized coefficient value.
    e_b : ndarray, shape (N,)
        Null-imposed residuals.
    """

    b: float
    e_b: np.ndarray


class _AffineSums(NamedTuple):
    """The sector residual sums as a function of the null value b:
    ``S'(Y - b X) = a0 - b a1`` with ``a0 = S'Y`` and ``a1 = S'X``;
    ``abs0 = S'|Y|`` and ``abs1 = S'|X|`` bound their rounding, and
    ``lo`` and ``hi`` are the smallest nonzero and the largest magnitude
    in Y, X and S."""

    a0: np.ndarray
    a1: np.ndarray
    abs0: np.ndarray
    abs1: np.ndarray
    lo: float
    hi: float


@dataclass(frozen=True, eq=False)
class ShiftShareDesign:
    """A validated shift-share sample.

    Attributes
    ----------
    Y : ndarray, shape (N,)
        Observed outcomes.
    X : ndarray, shape (N,)
        Observed treatments; identical to ``Z`` in the reduced-form case.
    S : ndarray, shape (N, J)
        Nonnegative exposure weights; every row has at least one
        strictly positive entry.
    g : ndarray, shape (J,)
        Observed sector shocks.
    Z : ndarray, shape (N,)
        Cached instrument ``S @ g``.
    reduced_form : bool
        True when ``X`` equals ``Z`` (required by the T2 statistic and
        the plug-in variance).
    cluster_ids : ndarray of int, shape (J,), optional
        Shock-cluster labels for clustered studentization and
        cluster-coherent simulation schemes.
    gram : ndarray, shape (J, J)
        Read-only exposure Gram matrix ``S' S``, computed on first use
        and cached; it lets the T2 statistic be evaluated at sector
        level, without N-length simulated instruments.  The sector sums
        ``S'Y`` and ``S'X``, which give the residual sums at every null
        value, are cached beside it.
    unit_labels, sector_labels : tuple of str, optional
        Identifiers carried through from ingestion, used for error
        reporting and round-trip serialization.
    """

    Y: np.ndarray
    X: np.ndarray
    S: np.ndarray
    g: np.ndarray
    Z: np.ndarray
    reduced_form: bool
    cluster_ids: np.ndarray | None = None
    unit_labels: tuple[str, ...] | None = field(default=None, repr=False)
    sector_labels: tuple[str, ...] | None = field(default=None, repr=False)

    @property
    def N(self) -> int:
        return self.S.shape[0]

    @property
    def J(self) -> int:
        return self.S.shape[1]

    @cached_property
    def gram(self) -> np.ndarray:
        # S is read-only after from_arrays, so the cache cannot go stale
        K = self.S.T @ self.S
        K.flags.writeable = False
        return K

    @cached_property
    def _affine_sums(self) -> _AffineSums:
        S = self.S
        sums = [S.T @ v for v in (self.Y, self.X, np.abs(self.Y), np.abs(self.X))]
        for v in sums:
            v.flags.writeable = False
        vectors = np.abs(np.concatenate([self.Y, self.X]))
        lo = min(
            float(np.min(vectors, where=vectors > 0, initial=np.inf)),
            float(np.min(S, where=S > 0, initial=np.inf)),
        )
        return _AffineSums(*sums, lo=lo, hi=max(float(vectors.max()), float(S.max())))

    def __post_init__(self):
        for name in ("Y", "X", "g", "Z"):
            v = getattr(self, name)
            if v.ndim != 1:
                raise DataValidationError(f"{name} must be a vector, got ndim={v.ndim}")
        N, J = self.S.shape[0], self.S.shape[1] if self.S.ndim == 2 else -1
        if self.S.ndim != 2:
            raise DataValidationError("S must be an N x J matrix")
        if N < 2 or J < 2:
            raise DataValidationError(f"need at least 2 units and 2 sectors, got N={N}, J={J}")
        if self.Y.shape[0] != N or self.X.shape[0] != N or self.Z.shape[0] != N:
            raise DataValidationError("Y, X, Z must all have length N")
        if self.g.shape[0] != J:
            raise DataValidationError(f"g has length {self.g.shape[0]}, expected J={J}")
        # g and S first: a bad shock propagates into the derived Z and X,
        # and the message should name the root cause
        for name in ("g", "S", "Y", "X"):
            v = getattr(self, name)
            if not np.all(np.isfinite(v)):
                first = np.argwhere(~np.isfinite(v))[0]
                loc = int(first[0]) if v.ndim == 1 else tuple(int(x) for x in first)
                raise DataValidationError(f"non-finite value in {name} at index {loc}")
        if np.any(self.S < 0):
            i, j = np.argwhere(self.S < 0)[0]
            raise DataValidationError(f"negative exposure at (row {i}, col {j})")
        row_max = self.S.max(axis=1)
        if np.any(row_max <= 0):
            i = int(np.argmax(row_max <= 0))
            label = self.unit_labels[i] if self.unit_labels else str(i)
            raise DataValidationError(
                f"exposure row for unit {label!r} has no strictly positive entry"
            )
        z_ref = self.S @ self.g
        scale = max(1.0, float(np.max(np.abs(z_ref))))
        if np.max(np.abs(self.Z - z_ref)) > INSTRUMENT_RTOL * scale:
            raise DataValidationError("cached instrument Z does not match S @ g")
        if self.reduced_form:
            if np.max(np.abs(self.X - self.Z)) > REDUCED_FORM_RTOL * scale:
                raise DataValidationError(
                    "reduced_form=True but X differs from Z beyond tolerance"
                )
        if self.cluster_ids is not None:
            if self.cluster_ids.shape != (J,):
                raise DataValidationError("cluster_ids must have one label per sector")

    @classmethod
    def from_arrays(
        cls,
        Y,
        X,
        S,
        g,
        cluster_ids=None,
        reduced_form: bool | None = None,
        unit_labels: tuple[str, ...] | None = None,
        sector_labels: tuple[str, ...] | None = None,
    ) -> "ShiftShareDesign":
        """Build a validated design, computing ``Z`` and detecting the
        reduced-form case.

        Parameters
        ----------
        Y, X, S, g : array_like
            Sample arrays; ``X=None`` means reduced form (``X`` is set
            to the instrument).
        cluster_ids : array_like of int, optional
            Shock-cluster labels, one per sector.
        reduced_form : bool, optional
            Force the reduced-form flag instead of auto-detecting
            ``X == Z`` within tolerance.  Forcing True when X visibly
            differs from Z raises.
        """
        S = np.ascontiguousarray(S, dtype=np.float64)
        g = np.ascontiguousarray(g, dtype=np.float64)
        Z = build_instrument(S, g)
        Y = np.ascontiguousarray(Y, dtype=np.float64)
        if X is None:
            X = Z.copy()
            detected = True
        else:
            X = np.ascontiguousarray(X, dtype=np.float64)
            scale = max(1.0, float(np.max(np.abs(Z))))
            detected = bool(
                X.shape == Z.shape and np.max(np.abs(X - Z)) <= REDUCED_FORM_RTOL * scale
            )
        if reduced_form is None:
            reduced_form = detected
        elif reduced_form and not detected:
            raise DataValidationError(
                "cannot force reduced_form=True: X differs from Z beyond tolerance"
            )
        if cluster_ids is not None:
            cluster_ids = np.ascontiguousarray(cluster_ids, dtype=np.int64)
        for arr in (Y, X, S, g, Z) + ((cluster_ids,) if cluster_ids is not None else ()):
            arr.flags.writeable = False
        return cls(
            Y=Y,
            X=X,
            S=S,
            g=g,
            Z=Z,
            reduced_form=bool(reduced_form),
            cluster_ids=cluster_ids,
            unit_labels=unit_labels,
            sector_labels=sector_labels,
        )

    def null_residuals(self, b: float) -> NullResiduals:
        """Residuals ``e_b = Y - X b`` under the null ``beta = b``."""
        return null_residuals(self, b)


def null_residuals(design: ShiftShareDesign, b: float) -> NullResiduals:
    """Compute the null-imposed residuals ``e_b = Y - X b``.

    Parameters
    ----------
    design : ShiftShareDesign
    b : float
        Hypothesized coefficient; must be finite.
    """
    b = float(b)
    if not np.isfinite(b):
        raise DataValidationError(f"null value must be finite, got {b}")
    return NullResiduals(b=b, e_b=design.Y - b * design.X)
