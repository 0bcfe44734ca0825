"""Correctness gates applied to every benchmarked operation.

Each check recomputes a property of the output from the output itself
or from an independent public function, so none depends on which
random numbers the package draws: a new draw layout changes every
simulated statistic but passes every check here.  A failed check
raises ``CheckFailed``; the benchmark counts the operation as failed.
"""

from __future__ import annotations

import json
import math

import numpy as np

T_OBS_RTOL = 1e-10
# Sampled-vs-enumerated and size checks allow this many standard errors.
N_SE = 5.0


class CheckFailed(AssertionError):
    """An operation's output violates a property it must satisfy."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_ri_test(res, design, spec, mods) -> None:
    """Length, recounted p-value, decision-rule agreement and observed
    statistic of one ``ri_test`` result."""
    ri, estimator = mods.ri, mods.estimator
    L = spec.L
    require(res.t_sims.shape == (L,), f"t_sims has shape {res.t_sims.shape}, expected ({L},)")
    require(np.all(np.isfinite(res.t_sims)), "t_sims holds non-finite values")
    psi_sims = ri.psi(res.t_sims, spec.sidedness)
    psi_obs = ri.psi(res.t_obs, spec.sidedness)
    count = int(np.count_nonzero(psi_sims >= psi_obs))
    require(res.p_value == (1 + count) / (L + 1), f"p-value {res.p_value} != recount {(1 + count) / (L + 1)}")
    by_p = ri.reject_by_pvalue(res.t_obs, res.t_sims, spec.alpha, spec.sidedness)
    require(bool(res.reject) == bool(by_p), "order-statistic and p-value decisions differ")
    require(res.n_degenerate_redraws >= 0, "negative redraw count")
    if spec.statistic is ri.Statistic.T0:
        ref = estimator.stat_t0(design.g, design.S, design.null_residuals(spec.b).e_b)
    elif spec.statistic is ri.Statistic.T1:
        ref = estimator.stat_t1(design, spec.b, clustered=spec.cluster_studentizer)
    else:
        ref = estimator.stat_t2(design, spec.b)
    require(
        math.isclose(res.t_obs, ref, rel_tol=T_OBS_RTOL, abs_tol=0.0),
        f"t_obs {res.t_obs!r} differs from the direct statistic {ref!r}",
    )


def check_ci(res, spec, grid, mods) -> None:
    """Retained set follows the p-value rule; hull and the disconnected
    flag follow the retained set."""
    L = spec.L
    require(np.array_equal(res.b_grid, grid), "b_grid differs from the requested grid")
    require(res.p_values.shape == grid.shape, "one p-value per grid point expected")
    cutoff = mods.ri.critical_count(spec.alpha, L) / (L + 1)
    require(np.array_equal(res.retained, res.p_values > cutoff), "retained set breaks the p-value rule")
    idx = np.flatnonzero(res.retained)
    if idx.size == 0:
        require(res.hull is None and not res.disconnected, "empty set with a hull or gaps")
        return
    require(res.hull == (float(grid[idx[0]]), float(grid[idx[-1]])), f"hull {res.hull} != retained range")
    require(res.disconnected == bool(idx[-1] - idx[0] + 1 != idx.size), "disconnected flag is wrong")


def check_enumeration(res, sampled, n_flip: int) -> None:
    """Group size 2^n_flip, and the sampled p-value within ``N_SE``
    Monte Carlo standard errors (plus the sampled test's resolution
    1/(L+1)) of the enumerated one."""
    size = 2**n_flip
    require(res.t_sims.shape == (size,), f"group size {res.t_sims.shape[0]}, expected {size}")
    require(0.0 < res.p_value <= 1.0, f"enumerated p-value {res.p_value} outside (0, 1]")
    L = sampled.t_sims.shape[0]
    p = res.p_value
    tol = N_SE * math.sqrt(p * (1.0 - p) / L) + 1.0 / (L + 1)
    require(
        abs(sampled.p_value - p) <= tol,
        f"sampled p {sampled.p_value} vs enumerated {p}: gap exceeds {tol:.4g}",
    )


def check_berger_boos(p: float, p_endpoint: float, gamma: float, L: int) -> None:
    """The corrected p-value lies on the (1+k)/(L+1) + gamma lattice
    (or is capped at 1) and is no smaller than gamma plus the p-value
    at an endpoint of the symmetry-point interval."""
    require(gamma < p <= 1.0, f"Berger-Boos p-value {p} outside (gamma, 1]")
    if p < 1.0:
        k = (p - gamma) * (L + 1)
        require(abs(k - round(k)) < 1e-6, f"Berger-Boos p-value {p} is off the p-value lattice")
    require(p >= min(1.0, p_endpoint + gamma) - 1e-12, "supremum below an interval endpoint")


def check_report(report) -> None:
    """Finite geometry and moment sums; KS distance in [0, 1]."""
    d = report.to_dict()
    for key in ("v_J", "cond1", "cond2", "cond3", "p3_strength", "p3_cross", "p3_quad", "hhi"):
        require(math.isfinite(d[key]), f"report field {key} is not finite")
    require(d["v_J"] > 0, "v_J must be positive")
    require(0.0 < d["hhi"] <= 1.0, f"hhi {d['hhi']} outside (0, 1]")
    require(0.0 <= d["ks_distance"] <= 1.0, f"ks_distance {d['ks_distance']} outside [0, 1]")


def check_size(rate: float, n: int, alpha: float, what: str, lower: bool) -> None:
    """A rejection rate lies within ``N_SE`` binomial standard errors of
    alpha; with ``lower=False`` only the upper side is checked (for a
    test that is exact but conservative)."""
    require(n > 0, f"{what}: no completed reps")
    se = math.sqrt(alpha * (1.0 - alpha) / n)
    require(rate <= alpha + N_SE * se, f"{what} size {rate:.4f} exceeds {alpha} + {N_SE} SE ({se:.4f})")
    if lower:
        require(rate >= alpha - N_SE * se, f"{what} size {rate:.4f} below {alpha} - {N_SE} SE ({se:.4f})")


def parse_cli_stdout(text: str) -> dict:
    """stdout must be exactly one JSON document (an object)."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"CLI stdout is not one JSON document: {exc}") from None
    require(isinstance(obj, dict), "CLI JSON output is not an object")
    return obj


def same_value(a, b) -> bool:
    """Exact equality that treats NaN as equal to NaN, recursing into
    lists and dicts."""
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same_value(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_value(a[k], b[k]) for k in a)
    return a == b


def check_cli_matches(obj: dict, expected: dict, what: str) -> None:
    for key, value in expected.items():
        require(key in obj, f"{what}: CLI output lacks {key!r}")
        require(same_value(obj[key], value), f"{what}: CLI {key}={obj[key]!r}, in-process {value!r}")
