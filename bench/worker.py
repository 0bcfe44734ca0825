"""One workload in its own process: set-up, then a closed measured loop.

Started by ``run.py``; not meant to be run by hand.  Protocol on
stdout: one line ``READY <seconds since launch>`` once set-up (imports,
inputs, one untimed warm-up of every operation kind) is done, then,
unless ``--setup-only``, one JSON line with the raw measurements.
Diagnostics go to stderr.

The loop has one client and starts each operation only after the
previous one finished.  Without tracing, a run spends its time on
library passes, or on desk-bundled a share of it on CLI cold starts.
A calibration loop runs between operations (see ``calibration``).
With tracing,
it runs library passes first untraced and then traced, followed by
stand-alone probes (import times, warm ``cli.main``, tracemalloc peaks
and best-of-five timings).
"""

from __future__ import annotations

import argparse
import contextlib
import io as stdio
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks
import layers
from calibration import CALIBRATIONS
from tracing import Tracer
from workloads import MC_REPS, WORKLOADS, derive

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
LIB_SHARE = 0.7  # of an untraced run's seconds, for library passes when it also runs the CLI
MIN_PASSES = 3
CLI_TIMEOUT_S = 120
BEST_OF = 5
IMPORT_SAMPLES = 3
PUBLIC_MODULES = ("cli", "design", "diagnostics", "estimator", "io", "montecarlo", "ri", "rng", "schemes")


def import_package():
    """Import the package from this checkout's ``src/`` or stop."""
    import importlib

    import shiftshare_ri

    location = Path(shiftshare_ri.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise SystemExit(f"shiftshare_ri was imported from {location}, not from {SRC}")
    mods = {name: importlib.import_module(f"shiftshare_ri.{name}") for name in PUBLIC_MODULES}
    return shiftshare_ri, SimpleNamespace(**mods)


def child_env() -> dict:
    """Environment for CLI and import-probe subprocesses: this
    checkout's sources first, and the BLAS thread setting of this run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Recorder:
    """Counts, latencies and pass times of one run."""

    def __init__(self, tracer: Tracer | None, calibrate):
        self.tracer = tracer
        self.calibrate = calibrate
        self.attempted = 0
        self.failed = 0
        self.latency: dict[str, list[float]] = {}
        self.passes: list[float] = []
        # the same times in units of the calibration time around them
        self.passes_rel: list[float] = []
        self.next_op = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"bench: {what} failed", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)

    def run_op(self, op, traced: bool) -> float:
        """Run one operation; return its duration (0 if it raised)."""
        self.attempted += 1
        tracer = self.tracer if traced else None
        sid = tracer.begin_op(self.next_op, op.kind) if tracer else None
        self.next_op += 1
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception:
            if tracer:
                tracer.end_op(sid)
            self.fail(op.kind)
            return 0.0
        dt = time.perf_counter() - t0
        if tracer:
            tracer.end_op(sid)
            tracer.paused = True
        try:
            op.check(result)
        except Exception:
            self.fail(f"{op.kind} check")
        finally:
            if tracer:
                tracer.paused = False
        self.latency.setdefault(op.kind, []).append(dt)
        return dt

    def run_pass(self, ops, traced: bool) -> None:
        """A pass's time is the sum of its operations' times; the checks
        between operations are not counted.  Its relative time divides
        each operation by the faster of the calibrations just before and
        after it (see ``calibration``)."""
        total = rel = 0.0
        before = self.calibrate()
        for op in ops:
            dt = self.run_op(op, traced)
            after = self.calibrate()
            total += dt
            # the faster neighbour: calibration outliers are always slow ones
            rel += dt / min(before, after)
            before = after
        self.passes.append(total)
        self.passes_rel.append(rel)

    def run_cli(self, call) -> None:
        self.attempted += 1
        argv = [sys.executable, "-m", "shiftshare_ri.cli"] + call.argv
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S)
            dt = time.perf_counter() - t0
            checks.require(proc.returncode == 0, f"exit code {proc.returncode}: {proc.stderr.strip()}")
            checks.check_cli_matches(checks.parse_cli_stdout(proc.stdout), call.expected, call.label)
        except Exception:
            self.fail(f"cli {call.label}")
            return
        self.latency.setdefault("cli", []).append(dt)


def closed_loop(budget_s: float, min_units: int, unit) -> int:
    """Call ``unit(i)`` for i = 0, 1, ... until the next call is expected
    to overrun the budget (judged by the mean so far), at least
    ``min_units`` times."""
    t0 = time.perf_counter()
    n = 0
    while True:
        unit(n)
        n += 1
        elapsed = time.perf_counter() - t0
        if n >= min_units and elapsed + elapsed / n > budget_s:
            return n


def time_import(module: str) -> float:
    """Seconds to import ``module`` in a fresh interpreter."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), capture_output=True,
                         text=True, timeout=CLI_TIMEOUT_S, check=True)
    return float(out.stdout.strip())


def best_of(fn, n=BEST_OF) -> float:
    """Minimum wall time of ``n`` calls, in ms."""
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def traced_peak_mb(fn) -> float:
    """Peak traced Python/numpy allocation of one call, in MB."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def probes(wl, m, absent: list[str]) -> dict[str, float]:
    """Stand-alone per-layer measurements outside the traced loop.  A
    probed function that no longer exists reads 0 and is listed in
    ``absent``."""
    out = {}

    def probe(metric, module, name, measure):
        fn = getattr(module, name, None)
        if fn is None:
            absent.append(f"{module.__name__}.{name}")
            out[metric] = 0.0
        else:
            out[metric] = measure(fn)

    design = wl.main_design()
    t1_spec = wl.main_spec(m.ri.Statistic.T1)
    t2_spec = wl.main_spec(m.ri.Statistic.T2)
    enum_design = wl.enum_design()
    out["ri.t2_test_peak_mb"] = traced_peak_mb(lambda: m.ri.ri_test(design, t2_spec))
    out["ri.enum_peak_mb"] = traced_peak_mb(lambda: m.ri.exact_enumeration_test(enum_design, t1_spec))
    # best-of-five figures, comparable with best-of-n baselines
    out["min.ri_test_t1_ms"] = best_of(lambda: m.ri.ri_test(design, t1_spec))
    draw_args = (design, t1_spec.scheme, t1_spec.L, t1_spec.seed)
    probe("min.generate_draws_ms", m.ri, "generate_draws", lambda f: best_of(lambda: f(*draw_args, b=t1_spec.b)))
    # sign-change draws made here, so the kernel timings do not depend on the draw layer
    kappa = np.random.default_rng([wl.seed, 7]).choice([-1.0, 1.0], size=(t1_spec.L, design.J))
    G = kappa * design.g
    a = m.estimator.sector_residual_sums(design.S, design.null_residuals(t1_spec.b).e_b)
    probe("min.batch_t1_ms", m.estimator, "batch_t1", lambda f: best_of(lambda: f(a, G)))
    probe("min.batch_t2_ms", m.estimator, "batch_t2", lambda f: best_of(lambda: f(a, G, design.S)))
    return out


CLI_METRICS = ("cli.main_ms", "cli.import_s", "cli.import_scipy_stats_s", "cli.import_numpy_s")


def cli_probes(wl, m) -> dict[str, float]:
    """Warm in-process ``cli.main`` with stdout captured, and import
    times each taken in a fresh interpreter."""
    out = {}
    main_ms = []
    for call in wl.cli_calls:
        for _ in range(2):
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(stdio.StringIO()):
                code = m.cli.main(call.argv)
            main_ms.append((time.perf_counter() - t0) * 1e3)
            checks.require(code == 0, f"cli.main {call.label} returned {code}")
    out["cli.main_ms"] = statistics.median(main_ms)
    for metric, module in (("cli.import_s", "shiftshare_ri.cli"), ("cli.import_scipy_stats_s", "scipy.stats"),
                           ("cli.import_numpy_s", "numpy")):
        out[metric] = statistics.median(time_import(module) for _ in range(IMPORT_SAMPLES))
    return out


def environment(pkg, m, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "package": pkg.__file__,
        "package_version": getattr(pkg, "__version__", None),
        "rng_layout": getattr(pkg, "RNG_LAYOUT", getattr(m.rng, "RNG_LAYOUT", None)),
        "seed": seed,
    }


def _version(module: str):
    try:
        return __import__(module).__version__
    except ImportError:
        return None


KIND_METRICS = {
    "test": ("test_ms", "ms", 1e3),
    "ci": ("ci_ms", "ms", 1e3),
    "enum": ("enum_ms", "ms", 1e3),
    "bb": ("bb_ms", "ms", 1e3),
    "diagnose": ("diagnose_ms", "ms", 1e3),
    "cli": ("cli_s", "s", 1.0),
}


def flows(rec: Recorder) -> dict:
    """Per-operation-kind latency summaries with their sample counts.
    A tail percentile is kept only with at least ten samples beyond it."""
    out = {}
    for kind, values in rec.latency.items():
        if kind == "mc":
            out["mc_reps_per_s"] = {"value": MC_REPS * len(values) / sum(values), "unit": "1/s", "n": len(values)}
            continue
        name, unit, scale = KIND_METRICS[kind]
        x = np.asarray(values) * scale
        out[f"{name}.p50"] = {"value": float(np.median(x)), "unit": unit, "n": int(x.size)}
        if x.size >= 100:
            out[f"{name}.p90"] = {"value": float(np.percentile(x, 90)), "unit": unit, "n": int(x.size)}
        out[f"{name}.min"] = {"value": float(x.min()), "unit": unit, "n": int(x.size)}
    return out


def traced_run(wl, m, rec: Recorder, tracer: Tracer, seconds: float) -> dict:
    """Untraced passes, then traced passes, then stand-alone probes;
    returns the per-layer metrics and what the report needs besides."""
    n = closed_loop(seconds / 2, MIN_PASSES, lambda i: rec.run_pass(wl.pass_ops(i), traced=False))
    untraced = flows(rec)
    tracer.install()
    closed_loop(seconds / 2, MIN_PASSES, lambda i: rec.run_pass(wl.pass_ops(n + i), traced=True))
    tracer.uninstall()
    report = layers.LayerReport(tracer)
    per_layer = report.compute()
    rec.attempted += 1
    try:
        per_layer.update(probes(wl, m, tracer.absent))
        if wl.cli_calls:
            per_layer.update(cli_probes(wl, m))
    except Exception:
        rec.fail("probes")
    if not wl.cli_calls:
        for name in CLI_METRICS:
            report.put(name, 0.0, exercised=False)
    # compared in calibration units, so host speed drift between the phases cancels
    overhead = statistics.median(rec.passes_rel[n:]) / statistics.median(rec.passes_rel[:n]) - 1.0
    per_layer["trace.overhead_frac"] = overhead
    per_layer["trace.overhead_ms_per_pass"] = overhead * statistics.median(rec.passes[:n]) * 1e3
    for name in ("test_ms.p50", "ci_ms.p50", "enum_ms.p50", "bb_ms.p50", "diagnose_ms.p50", "mc_reps_per_s"):
        report.put(f"flow.{name}", untraced[name]["value"] if name in untraced else 0.0, name in untraced)
    OUT.mkdir(parents=True, exist_ok=True)
    trace_path = OUT / f"trace-{wl.name}.npz"
    tracer.save(trace_path)
    return {
        "flows_untraced": untraced,
        "per_layer": per_layer,
        "not_exercised": report.not_exercised,
        "absent": tracer.absent,
        "trace_file": str(trace_path.relative_to(ROOT)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--launched-at", type=float, required=True, help="time.monotonic() at launch")
    args = ap.parse_args(argv)
    if args.seed < 0:
        raise SystemExit("--seed must be a nonnegative integer")

    pkg, m = import_package()
    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.register(tracer, m)
        tracer.install()
    wl = WORKLOADS[args.workload](m, args.seed, ROOT)
    rec = Recorder(tracer, CALIBRATIONS[wl.calibration])
    wl.setup()
    for op in wl.pass_ops(derive(args.seed, 0)):  # one untimed warm-up per kind
        rec.attempted += 1
        try:
            op.check(op.run())
        except Exception:
            rec.fail(f"warm-up {op.kind}")
    if tracer:
        tracer.uninstall()
    # CLOCK_MONOTONIC is system-wide, so the launcher's reading compares
    print(f"READY {time.monotonic() - args.launched_at!r}", flush=True)
    if args.setup_only:
        return 0

    result = {"workload": wl.name, "env": environment(pkg, m, args.seed)}
    if args.trace:
        result.update(traced_run(wl, m, rec, tracer, args.seconds))
    else:
        n_cli = len(wl.cli_calls)
        lib_s = LIB_SHARE * args.seconds if n_cli else args.seconds
        closed_loop(lib_s, MIN_PASSES, lambda i: rec.run_pass(wl.pass_ops(i), traced=False))
        if n_cli:
            closed_loop(args.seconds - lib_s, n_cli, lambda i: rec.run_cli(wl.cli_calls[i % n_cli]))

    for label, check in wl.final_checks():
        rec.attempted += 1
        try:
            check()
        except Exception:
            rec.fail(label)

    result.update(
        attempted=rec.attempted,
        failed=rec.failed,
        passes_s=rec.passes,
        passes_rel=rec.passes_rel,
        flows=flows(rec),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
