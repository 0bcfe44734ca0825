"""Before/after sweep: the package's results over a fixed grid, one JSON
line per record, and a comparison of two such files.

A refactor that promises byte-identical results runs the sweep on the
old and the new tree and compares them:

    PYTHONPATH=<old checkout>/src python tools/sweep.py --out old.jsonl
    PYTHONPATH=src python tools/sweep.py --out new.jsonl
    PYTHONPATH=src python tools/sweep.py --compare old.jsonl new.jsonl

The grid crosses the bundled CSVs, a hand design with a degenerate
group element, a tiny and six clustered Dirichlet designs with
sign changes (m = 0, 0.3; by cluster, m = 0, -0.2), permutations,
the bootstrap and normal draws, T0 / T1 / clustered T1 / T2, the four
sidednesses, three null values and demeaning, through ``ri_test``,
``exact_enumeration_test`` and ``berger_boos_test``; plus
``stat_t1``/``stat_t2``, ``confidence_interval`` per design, T1 and
T2 tests and confidence sets on a wide Dirichlet design (N=3000,
J=200, where the statistics' BLAS work is large), 21-point confidence
sets on that design and on one whose outcomes cancel at a grid point
(``ci-wide``), exact enumeration of sign-change groups larger than one
enumeration block (J = 15, 16, 18, and 16 clusters over 40 sectors) and
``size_experiment`` on the README's headline design (N=30, J=6, two
dominant sectors).  Each record holds floats as hex, the sha256 of
``t_sims`` (or of the CI p-values), and an exception's class and message
in place of values.  ``--designs`` runs a slice of the grid.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

import shiftshare_ri as ssr
from shiftshare_ri import montecarlo as mc

DATA = Path(__file__).resolve().parents[1] / "demos" / "data"
L = 99
B_VALUES = (0.0, 0.7, 1.3)
SEED = 7
BB_GAMMA = 0.01
SHOWN = 5  # differences printed per kind by --compare
SCHEMES = {
    "sign": ssr.SignChange(),
    "sign-m": ssr.SignChange(m=0.3),
    "cluster": ssr.SignChange(by_cluster=True),
    "cluster-m": ssr.SignChange(m=-0.2, by_cluster=True),
    "perm": ssr.Permutation(),
    "boot": ssr.RecentredBootstrap(),
    "normal": ssr.IIDNormal(1.5),
}
STATISTICS = {
    "t0": (ssr.Statistic.T0, False),
    "t1": (ssr.Statistic.T1, False),
    "t1c": (ssr.Statistic.T1, True),
    "t2": (ssr.Statistic.T2, False),
}


# name -> (seed, N, J, clusters, signs by cluster) of the enum-wide
# slice's designs, whose sign-change groups span several enumeration blocks
ENUM_WIDE = {
    "j15": (15, 40, 15, 3, False),
    "j16": (16, 40, 16, 3, False),
    "j18": (18, 60, 18, 3, False),
    "cluster16": (40, 80, 40, 16, True),
}


def _dirichlet(seed: int, N: int, J: int, reduced_form: bool, clusters: int = 3, noise: float = 1.0):
    """Random design with unsorted, non-contiguous cluster labels, and
    outcomes 0.7 X plus ``noise`` times standard normal errors."""
    rng = np.random.default_rng(1000 + seed)
    S = rng.dirichlet(np.ones(J), size=N)
    g = rng.normal(size=J)
    Z = S @ g
    X = None if reduced_form else 0.8 * Z + 0.5 * rng.normal(size=N)
    Y = 0.7 * (Z if X is None else X) + noise * rng.normal(size=N)
    cluster_ids = rng.permutation(np.arange(J) % clusters) * 5 + 2
    return ssr.ShiftShareDesign.from_arrays(Y, X, S, g, cluster_ids=cluster_ids)


def designs() -> dict:
    """Name -> zero-argument builder of each design of the grid."""
    out = {
        "bundled": lambda: ssr.load_design(
            DATA / "outcomes.csv", DATA / "exposures.csv", DATA / "shocks.csv"
        ),
        "concentrated": lambda: ssr.load_design(
            DATA / "outcomes.csv", DATA / "exposures_concentrated.csv", DATA / "shocks.csv"
        ),
        # a = (3, 1), g = (2, 2): kappa = (-1, -1) with m = 1 gives g* = 0
        "hand": lambda: ssr.ShiftShareDesign.from_arrays(
            np.array([3.0, 1.0]), None, np.eye(2), np.array([2.0, 2.0])
        ),
        "tiny": lambda: _dirichlet(99, 8, 4, True),
    }
    for s in range(6):
        out[f"dirichlet-{s}"] = lambda s=s: _dirichlet(s, 25, 8, s < 4)
    out["wide"] = lambda: _dirichlet(0, 3000, 200, True)
    out["ci-wide"] = None  # see ci_wide_records
    out["enum-wide"] = None  # see ENUM_WIDE
    out["mc-size"] = None  # size_experiment builds its own datasets
    return out


def _hex(x) -> str:
    return float(x).hex()


def _sha(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _result(res) -> dict:
    return {
        "t_obs": _hex(res.t_obs),
        "t_sims": _sha(res.t_sims),
        "p": _hex(res.p_value),
        "reject": bool(res.reject),
        "redraws": int(res.n_degenerate_redraws),
    }


def _ci(res) -> dict:
    return {
        "p": _sha(res.p_values),
        "retained": _sha(res.retained),
        "hull": None if res.hull is None else [_hex(v) for v in res.hull],
        "disconnected": bool(res.disconnected),
        "redraws": int(res.n_degenerate_redraws),
    }


def _experiment(results) -> list:
    return [
        [r.method, _hex(r.b_tested), _hex(r.rejection_rate), _hex(r.mc_se), r.reps, r.failures, r.flagged]
        for r in results
    ]


def _record(rid: str, run) -> dict:
    try:
        return {"id": rid, "value": run()}
    except ssr.ShiftShareError as exc:
        return {"id": rid, "error": [type(exc).__name__, str(exc)]}


def _design_records(name: str, d):
    for b in B_VALUES:
        yield _record(f"stat/{name}/t1/b={b}", lambda: _hex(ssr.stat_t1(d, b)))
        yield _record(f"stat/{name}/t1c/b={b}", lambda: _hex(ssr.stat_t1(d, b, clustered=True)))
        yield _record(f"stat/{name}/t2/b={b}", lambda: _hex(ssr.stat_t2(d, b)))
    for sname, scheme in SCHEMES.items():
        for tname, (statistic, clustered) in STATISTICS.items():
            for sided in ssr.Sidedness:
                for b in B_VALUES:
                    for demean in (False, True):
                        spec = ssr.TestSpec(
                            b=b, statistic=statistic, scheme=scheme, L=L, seed=SEED,
                            sidedness=sided, demean=demean, cluster_studentizer=clustered,
                        )
                        key = f"{name}/{sname}/{tname}/{sided.value}/b={b}/demean={demean}"
                        yield _record(f"ri/{key}", lambda: _result(ssr.ri_test(d, spec)))
                        yield _record(f"enum/{key}", lambda: _result(ssr.exact_enumeration_test(d, spec)))
                        m = getattr(scheme, "m", 0.0)
                        yield _record(
                            f"bb/{key}",
                            lambda: _hex(ssr.berger_boos_test(d, spec, m - 0.25, m + 0.25, BB_GAMMA, 7)),
                        )
    grid = np.linspace(-1.0, 2.0, 13)
    for sname in ("sign", "cluster-m", "perm", "boot"):
        for tname, (statistic, clustered) in STATISTICS.items():
            for sided in ssr.Sidedness:
                spec = ssr.TestSpec(
                    b=0.0, statistic=statistic, scheme=SCHEMES[sname], L=L, seed=SEED,
                    sidedness=sided, cluster_studentizer=clustered,
                )
                key = f"ci/{name}/{sname}/{tname}/{sided.value}"
                yield _record(key, lambda: _ci(ssr.confidence_interval(d, spec, grid)))


def _wide_records(d):
    """Sign-change T1 and T2 tests and 7-point confidence sets at J=200."""
    grid = np.linspace(-2.0, 3.0, 7)
    for tname in ("t1", "t2"):
        for sided in ssr.Sidedness:
            spec = ssr.TestSpec(
                b=0.7, statistic=STATISTICS[tname][0], scheme=SCHEMES["sign"], L=199, seed=SEED,
                sidedness=sided,
            )
            key = f"wide/sign/{tname}/{sided.value}"
            yield _record(f"ri/{key}", lambda: _result(ssr.ri_test(d, spec)))
            yield _record(f"ci/{key}", lambda: _ci(ssr.confidence_interval(d, spec, grid)))


def ci_wide_records():
    """21-point sign-change confidence sets, L = 999, T0 / T1 / T2, four
    sidednesses, with and without demeaning, on the wide design and on
    a wide design whose outcomes are 0.7 Z plus 1e-12 noise, where the
    grid point b = 0.7 leaves null residuals of rounding size."""
    cancel_grid = np.sort(np.append(np.linspace(-0.3, 1.7, 20), 0.7))
    designs = {
        "wide": (_dirichlet(0, 3000, 200, True), np.linspace(-2.0, 3.0, 21)),
        "cancel": (_dirichlet(0, 3000, 200, True, noise=1e-12), cancel_grid),
    }
    for name, (d, grid) in designs.items():
        for tname in ("t0", "t1", "t2"):
            for sided in ssr.Sidedness:
                for demean in (False, True):
                    spec = ssr.TestSpec(
                        b=0.0, statistic=STATISTICS[tname][0], scheme=SCHEMES["sign"], L=999, seed=SEED,
                        sidedness=sided, demean=demean,
                    )
                    key = f"ci-wide/{name}/{tname}/{sided.value}/demean={demean}"
                    yield _record(key, lambda: _ci(ssr.confidence_interval(d, spec, grid)))


def enum_records(name: str):
    """Exact sign-change enumeration on the ``ENUM_WIDE`` design ``name``:
    T0 / T1 / T2, m = 0 and 0.3, two sidednesses, with and without
    demeaning; signs by cluster on the clustered design."""
    seed, N, J, clusters, by_cluster = ENUM_WIDE[name]
    d = _dirichlet(seed, N, J, True, clusters)
    for m in (0.0, 0.3):
        scheme = ssr.SignChange(m=m, by_cluster=by_cluster)
        for tname in ("t0", "t1", "t2"):
            for sided in (ssr.Sidedness.TWO_SIDED_ABS, ssr.Sidedness.LEFT_TAIL):
                for demean in (False, True):
                    spec = ssr.TestSpec(
                        b=0.7, statistic=STATISTICS[tname][0], scheme=scheme, L=1, seed=SEED,
                        sidedness=sided, demean=demean,
                    )
                    key = f"enum-wide/{name}/m={m}/{tname}/{sided.value}/demean={demean}"
                    yield _record(key, lambda: _result(ssr.exact_enumeration_test(d, spec)))


def _mc_records():
    dgp = mc.DGPSpec(N=30, J=6, exposure_design=mc.Concentrated(k_dominant=2))
    sign = ssr.SignChange()
    methods = [
        mc.MethodSpec(kind=mc.MethodKind.AKM_NORMAL),
        mc.MethodSpec(kind=mc.MethodKind.RI, statistic=ssr.Statistic.T1, scheme=sign, L=L),
        mc.MethodSpec(kind=mc.MethodKind.ENUMERATION, statistic=ssr.Statistic.T1, scheme=sign),
        mc.MethodSpec(kind=mc.MethodKind.ENUMERATION, statistic=ssr.Statistic.T0, scheme=ssr.Permutation()),
    ]
    yield _record("mc-size", lambda: _experiment(mc.size_experiment(dgp, methods, 100, SEED)))


def records(names=None):
    """Yield the records of the named designs (all by default)."""
    builders = designs()
    for name in names or builders:
        if name == "mc-size":
            yield from _mc_records()
        elif name == "wide":
            yield from _wide_records(builders[name]())
        elif name == "ci-wide":
            yield from ci_wide_records()
        elif name == "enum-wide":
            for piece in ENUM_WIDE:
                yield from enum_records(piece)
        else:
            yield from _design_records(name, builders[name]())


def compare(old: list[dict], new: list[dict]) -> dict[str, list[str]]:
    """Differences between two record lists, by kind: ``missing`` (an id
    on one side only), ``outcome`` (a value on one side, an exception on
    the other, or two exception classes), ``message`` (same exception
    class, other message) and ``value``."""
    a = {r["id"]: r for r in old}
    b = {r["id"]: r for r in new}
    diffs: dict[str, list[str]] = defaultdict(list)
    for rid in a.keys() ^ b.keys():
        diffs["missing"].append(f"{rid}: only in {'old' if rid in a else 'new'}")
    for rid in a.keys() & b.keys():
        x, y = a[rid], b[rid]
        if x == y:
            continue
        if "error" in x and "error" in y and x["error"][0] == y["error"][0]:
            diffs["message"].append(f"{rid}: {x['error'][1]!r} -> {y['error'][1]!r}")
        elif ("error" in x) != ("error" in y) or "error" in x:
            diffs["outcome"].append(f"{rid}: {x.get('error', 'value')} -> {y.get('error', 'value')}")
        else:
            diffs["value"].append(f"{rid}: {x['value']} -> {y['value']}")
    return {kind: sorted(lines) for kind, lines in diffs.items()}


def _load(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", help="write the records here (default: stdout)")
    p.add_argument("--designs", help=f"comma-separated slice of: {', '.join(designs())}")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two record files")
    args = p.parse_args(argv)
    if args.compare:
        old, new = (_load(path) for path in args.compare)
        diffs = compare(old, new)
        print(f"{len(old)} old and {len(new)} new records; {sum(map(len, diffs.values()))} differ")
        for kind, lines in diffs.items():
            print(f"{kind}: {len(lines)}")
            for line in lines[:SHOWN]:
                print(f"  {line}")
        return 1 if diffs else 0
    names = args.designs.split(",") if args.designs else None
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for rec in records(names):
            out.write(json.dumps(rec) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
