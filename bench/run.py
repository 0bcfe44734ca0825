"""Benchmark of the shiftshare_ri package: one command, three workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload desk-bundled --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Each workload runs in its own process (``bench/worker.py``) as a closed
loop with one client and no extra threads; BLAS is pinned to one
thread.  With ``--trace 0`` the run reports the end-to-end metrics
named in ``BENCHMARK.json``: set-up time, the lower quartile of the time
of one pass over the workload's library operations in units of a
calibration loop (``bench/calibration.py``), and peak RSS.  It also prints, with sample
counts, the raw latency of each kind of operation and, on
desk-bundled, of CLI cold starts.  With ``--trace 1`` it reports the
per-layer metrics from a traced run instead (``bench/layers.py``).  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record (environment, per-operation latencies with
sample counts, lists of idle and absent layers) is written to
``.bench_out/``.

Set-up time is measured from process launch until the worker reports
its inputs loaded and one warm-up of each operation kind done; the run
sets up ``SETUP_PROBES`` extra times in fresh processes and reports the
median.  Only the package in this checkout's ``src/`` is benchmarked:
without it the command exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("desk-bundled", "wide-t2", "mc-size")
SETUP_PROBES = 2
# Every run, set-up probes included, ends within this many seconds.
DEADLINE_S = 175.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(BLAS_ENV)
    return env


def run_worker(workload, seed, seconds, trace, setup_only, deadline) -> tuple[float, dict | None]:
    """Start one worker; return its set-up seconds and, unless
    ``setup_only``, its result record."""
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    launched = time.monotonic()
    argv += ["--launched-at", repr(launched)]
    # own session, so that a timeout also ends the worker's CLI children
    proc = subprocess.Popen(argv, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} worker overran the {DEADLINE_S:.0f} s limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    lines = [line for line in out.splitlines() if line.strip()]
    ready = [line for line in lines if line.startswith("READY ")]
    if not ready:
        raise BenchError(f"{workload} worker never reported set-up done")
    setup_s = float(ready[0].split()[1])
    if setup_only:
        return setup_s, None
    try:
        return setup_s, json.loads(lines[-1])
    except ValueError:
        raise BenchError(f"{workload} worker printed no result") from None


def git_state() -> dict:
    """Commit and dirty flag of the checkout, or nulls outside git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
        if head.returncode != 0:
            return {"commit": None, "dirty": None}
        status = subprocess.run(["git", "--no-optional-locks", "-C", str(ROOT), "status", "--porcelain"],
                                env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}
    return {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def end_to_end(setups: list[float], rec: dict) -> dict[str, float]:
    """Pass times are reported in units of the calibration time measured
    around them (see ``calibration``)."""
    passes = rec["passes_rel"]
    return {
        "setup_s": statistics.median(setups),
        # The lower quartile, not the median: a calibration taken next to an
        # operation misses host slowdowns that start and end within the
        # operation, so its errors inflate the ratio far more often than
        # they deflate it.
        "pass_rel.p25": statistics.quantiles(passes, n=4, method="inclusive")[0] if len(passes) > 1 else 0.0,
        "peak_rss_mb": rec["peak_rss_mb"],
    }


def run_workload(workload, seed, seconds, trace, spec) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(run_worker(workload, seed, seconds, trace, True, deadline)[0])
    setup_s, rec = run_worker(workload, seed, seconds, trace, False, deadline)
    setups.append(setup_s)
    rec["setup_samples_s"] = setups
    rec["env"].update(git_state())
    produced = end_to_end(setups, rec) if not trace else rec["per_layer"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in produced]
    rec["missing"] = missing
    rec["metrics"] = {m["name"]: {"value": produced.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    return rec


def print_table(workload, seed, seconds, trace, rec) -> None:
    env = rec["env"]
    blas = env.get("blas") or {}
    print(f"{workload}  seed={seed}  seconds={seconds}  trace={trace}  "
          f"(closed loop, 1 client, BLAS threads {env['blas_threads']['OPENBLAS_NUM_THREADS']})")
    counts = {"setup_s": len(rec["setup_samples_s"]), "pass_rel.p25": len(rec["passes_rel"])}
    for name, m in rec["metrics"].items():
        n = counts.get(name)
        print(f"  {name:40s} {m['unit']:6s} {m['value']:12.6g}" + (f"   n={n}" if n else ""))
    if not trace:
        print("  per operation kind (untraced):")
        for name, m in rec["flows"].items():
            print(f"  {name:40s} {m['unit']:6s} {m['value']:12.6g}   n={m['n']}")
    frac = rec["failed"] / rec["attempted"]
    print(f"  {'ops_failed_frac':40s} {'ratio':6s} {frac:12.6g}   ({rec['failed']} of {rec['attempted']})")
    for key in ("not_exercised", "absent", "missing"):
        if rec.get(key):
            print(f"  {key}: {', '.join(rec[key])}")
    print(f"  env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{blas.get('openblas configuration', blas.get('name'))}, nproc {env['nproc']}, "
          f"commit {env['commit']} dirty={env['dirty']}, rng_layout {env['rng_layout']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "shiftshare_ri" / "__init__.py").is_file():
        print(f"bench: no package sources under {SRC}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"bench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for workload in names:
        try:
            rec = run_workload(workload, args.seed, args.seconds, args.trace, spec)
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(rec, indent=1) + "\n", encoding="utf-8")
        print_table(workload, args.seed, args.seconds, args.trace, rec)
        print(f"  record: {path.relative_to(ROOT)}")
        results[workload] = rec

    # with several workloads, metric names carry the workload as a prefix
    prefix = (lambda w: f"{w}.") if args.workload == "all" else (lambda w: "")
    print(json.dumps({
        "correct": all(r["failed"] == 0 and not r["missing"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {prefix(w) + name: m for w, r in results.items() for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
