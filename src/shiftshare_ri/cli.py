"""Command-line front end.

Subcommands: ``test`` (one randomization test), ``ci`` (confidence set
by test inversion), ``diagnose`` (asymptotic regularity report),
``simulate`` (Monte Carlo size/power experiments), ``enumerate`` (exact
group enumeration test).

Output goes to stdout or ``-o FILE`` in json, csv, or human form; with
``--format json`` stdout carries exactly one JSON document.  Exit codes:
0 success, 2 data or usage error, 3 numeric degeneracy.  The seed comes
from ``--seed``, else the ``SHIFTSHARE_RI_SEED`` environment variable,
else 0.  Thread count only affects scheduling, never results.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .diagnostics import asymptotic_report
from .errors import ConfigError, NumericDegeneracyError, ShiftShareError
from .io import load_design
from .montecarlo import (
    SCHEME_TOKENS,
    SIDEDNESS_BY_TOKEN,
    build_scheme,
    parse_experiment_config,
    power_curve,
    results_to_csv,
    results_to_json_obj,
    size_experiment,
)
from .ri import Statistic, TestSpec, confidence_interval, exact_enumeration_test, ri_test

SEED_ENV_VAR = "SHIFTSHARE_RI_SEED"
SCHEMA_VERSION = 1


def _add_data_args(p):
    p.add_argument("--outcomes", required=True, help="CSV with unit,Y[,X]")
    p.add_argument("--exposures", required=True, help="CSV, wide (unit,<sector>...) or long (unit,sector,weight)")
    p.add_argument("--shocks", required=True, help="CSV with sector,g[,cluster]")
    p.add_argument(
        "--force-reduced-form",
        action="store_true",
        help="insist that X equals the instrument instead of auto-detecting",
    )


def _add_common_args(p, with_L=True):
    p.add_argument("--stat", choices=[s.value for s in Statistic], default="t1")
    p.add_argument("--scheme", choices=SCHEME_TOKENS, default="sign-change")
    p.add_argument("--m", type=float, default=0.0, help="sign-change symmetry point")
    p.add_argument("--sigma", type=float, default=1.0, help="normal-scheme standard deviation")
    p.add_argument(
        "--by-cluster", action="store_true", help="flip signs per shock cluster, not per sector"
    )
    if with_L:
        p.add_argument("--L", type=int, default=999, help="number of simulation draws")
    p.add_argument("--demean", action="store_true", help="demean observed and simulated shocks")


def _add_decision_args(p):
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--sided", choices=sorted(SIDEDNESS_BY_TOKEN), default="two-sided")
    p.add_argument(
        "--clustered", action="store_true", help="cluster the T1 studentizer by shock cluster"
    )


def _add_output_args(p):
    p.add_argument("--format", choices=("json", "csv", "human"), default="human")
    p.add_argument("-o", "--output", default=None, help="write to this file instead of stdout")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None, help="accepted for compatibility; does not change results")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftshare-ri",
        description="Randomization inference for shift-share designs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run one randomization test")
    _add_data_args(p_test)
    p_test.add_argument("--b", type=float, required=True, help="null value")
    _add_common_args(p_test)
    _add_decision_args(p_test)
    _add_output_args(p_test)

    p_ci = sub.add_parser("ci", help="confidence set by test inversion")
    _add_data_args(p_ci)
    p_ci.add_argument("--b-min", type=float, required=True)
    p_ci.add_argument("--b-max", type=float, required=True)
    p_ci.add_argument("--b-steps", type=int, default=101)
    _add_common_args(p_ci)
    _add_decision_args(p_ci)
    _add_output_args(p_ci)

    p_diag = sub.add_parser("diagnose", help="asymptotic regularity report")
    _add_data_args(p_diag)
    p_diag.add_argument("--b", type=float, required=True, help="null value")
    _add_common_args(p_diag)
    # the report makes no decision; these only complete its TestSpec
    p_diag.set_defaults(alpha=0.05, sided="two-sided", clustered=False)
    p_diag.add_argument("--moment-draws", type=int, default=500)
    _add_output_args(p_diag)

    p_sim = sub.add_parser("simulate", help="Monte Carlo experiment from a config file")
    p_sim.add_argument("--config", required=True, help="key=value experiment file")
    _add_output_args(p_sim)

    p_enum = sub.add_parser("enumerate", help="exact test over the whole transformation group")
    _add_data_args(p_enum)
    p_enum.add_argument("--b", type=float, required=True, help="null value")
    _add_common_args(p_enum, with_L=False)
    _add_decision_args(p_enum)
    _add_output_args(p_enum)

    return parser


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"environment variable {SEED_ENV_VAR}={raw!r} is not an integer") from None


def _resolve_threads(args) -> int:
    if args.threads is None:
        return os.cpu_count() or 1
    if args.threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {args.threads}")
    return args.threads


def _emit(args, text: str):
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, obj: dict):
    _emit(args, json.dumps(obj, indent=2) + "\n")


def _load(args):
    return load_design(
        args.outcomes,
        args.exposures,
        args.shocks,
        reduced_form=True if args.force_reduced_form else None,
    )


def _spec_from_args(args, seed: int, L=None) -> TestSpec:
    scheme = build_scheme(args.scheme, m=args.m, sigma=args.sigma, by_cluster=args.by_cluster)
    return TestSpec(
        b=getattr(args, "b", 0.0),
        statistic=Statistic(args.stat),
        scheme=scheme,
        L=L if L is not None else args.L,
        alpha=args.alpha,
        sidedness=SIDEDNESS_BY_TOKEN[args.sided],
        seed=seed,
        demean=args.demean,
        cluster_studentizer=args.clustered,
    )


def _test_payload(args, result, extra=None) -> dict:
    obj = {
        "schema": SCHEMA_VERSION,
        "command": args.command,
        "b": args.b,
        "statistic": args.stat,
        "scheme": args.scheme,
        "sidedness": args.sided,
        "alpha": args.alpha,
        "t_obs": result.t_obs,
        "p_value": result.p_value,
        "reject": bool(result.reject),
        "n_degenerate_redraws": int(result.n_degenerate_redraws),
    }
    if extra:
        obj.update(extra)
    return obj


def _render_kv(args, obj: dict):
    if args.format == "json":
        _emit_json(args, obj)
    elif args.format == "csv":
        lines = ["key,value"]
        for key, value in obj.items():
            if key == "schema":
                continue
            if isinstance(value, (list, tuple)):
                value = ";".join(str(v) for v in value)
            lines.append(f"{key},{value}")
        _emit(args, "\n".join(lines) + "\n")
    else:
        width = max(len(k) for k in obj)
        lines = [f"{k.ljust(width)}  {v}" for k, v in obj.items() if k != "schema"]
        _emit(args, "\n".join(lines) + "\n")


def cmd_test(args) -> int:
    design = _load(args)
    seed = _resolve_seed(args)
    spec = _spec_from_args(args, seed)
    result = ri_test(design, spec, threads=_resolve_threads(args))
    _render_kv(args, _test_payload(args, result, {"L": spec.L, "seed": seed}))
    return 0


def cmd_enumerate(args) -> int:
    design = _load(args)
    seed = _resolve_seed(args)
    spec = _spec_from_args(args, seed, L=1)
    result = exact_enumeration_test(design, spec)
    _render_kv(
        args,
        _test_payload(args, result, {"group_size": int(result.t_sims.shape[0])}),
    )
    return 0


def cmd_ci(args) -> int:
    design = _load(args)
    seed = _resolve_seed(args)
    if args.b_steps < 1:
        raise ConfigError(f"--b-steps must be at least 1, got {args.b_steps}")
    if not (args.b_min <= args.b_max):
        raise ConfigError(f"--b-min {args.b_min} must not exceed --b-max {args.b_max}")
    grid = np.linspace(args.b_min, args.b_max, args.b_steps)
    spec = _spec_from_args(args, seed)
    result = confidence_interval(design, spec, grid, threads=_resolve_threads(args))
    empty = not bool(result.retained.any())
    if args.format == "csv":
        lines = ["b,p_value"]
        lines += [f"{repr(float(b))},{repr(float(p))}" for b, p in zip(result.b_grid, result.p_values)]
        _emit(args, "\n".join(lines) + "\n")
        return 0
    obj = {
        "schema": SCHEMA_VERSION,
        "command": "ci",
        "statistic": args.stat,
        "scheme": args.scheme,
        "alpha": args.alpha,
        "L": args.L,
        "seed": seed,
        "b_grid": [float(v) for v in result.b_grid],
        "p_values": [float(v) for v in result.p_values],
        "retained": [float(v) for v in result.retained_values],
        "hull": list(result.hull) if result.hull is not None else None,
        "disconnected": bool(result.disconnected),
        "empty": empty,
    }
    if args.format == "json":
        _emit_json(args, obj)
    else:
        lines = [
            f"grid      {obj['b_grid'][0]} .. {obj['b_grid'][-1]} ({len(obj['b_grid'])} points)",
            f"retained  {len(obj['retained'])} points",
            f"hull      {obj['hull']}",
            f"disconnected  {obj['disconnected']}",
            f"empty     {obj['empty']}",
        ]
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_diagnose(args) -> int:
    design = _load(args)
    spec = _spec_from_args(args, _resolve_seed(args))
    report = asymptotic_report(
        design,
        spec.b,
        spec.scheme,
        statistic=spec.statistic,
        L=spec.L,
        n_draws=args.moment_draws,
        seed=spec.seed,
        demean=spec.demean,
    )
    obj = {"schema": SCHEMA_VERSION, "command": "diagnose", "b": args.b}
    obj.update(report.to_dict())
    if args.format == "json":
        _emit_json(args, obj)
    elif args.format == "csv":
        lines = ["field,value"]
        for key, value in report.to_dict().items():
            if key == "warnings":
                value = ";".join(report.warnings)
            lines.append(f"{key},{value}")
        _emit(args, "\n".join(lines) + "\n")
    else:
        rows = report.to_dict()
        warnings = rows.pop("warnings")
        width = max(len(k) for k in rows)
        lines = [f"{k.ljust(width)}  {v:.6g}" for k, v in rows.items()]
        for w in warnings:
            lines.append(f"warning: {w}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_simulate(args) -> int:
    config = parse_experiment_config(args.config)
    seed = config.seed if args.seed is None else args.seed
    if config.b_grid is not None:
        if len(config.methods) != 1:
            raise ConfigError(
                "a power curve (b_grid) takes exactly one method; "
                f"the config lists {len(config.methods)}"
            )
        results = power_curve(config.dgp, config.b_grid, config.methods[0], config.reps, seed)
    else:
        results = size_experiment(config.dgp, list(config.methods), config.reps, seed)
    if args.format == "json":
        obj = results_to_json_obj(results)
        obj["command"] = "simulate"
        _emit_json(args, obj)
    elif args.format == "csv":
        _emit(args, results_to_csv(results))
    else:
        lines = [
            f"{r.method}: reject {r.rejection_rate:.4f} (se {r.mc_se:.4f}) "
            f"at b={r.b_tested:.6g}, reps={r.reps}, failures={r.failures}"
            + ("  [FLAGGED >1% failures]" if r.flagged else "")
            for r in results
        ]
        _emit(args, "\n".join(lines) + "\n")
    return 0


_COMMANDS = {
    "test": cmd_test,
    "ci": cmd_ci,
    "diagnose": cmd_diagnose,
    "simulate": cmd_simulate,
    "enumerate": cmd_enumerate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NumericDegeneracyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ShiftShareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
