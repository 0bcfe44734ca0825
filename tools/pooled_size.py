"""Replay the mc-size workload's pooled RI-T1 size check, pass by pass.

mc-size's run-level check bounds the pooled RI-T1 rejection rate from
below by alpha - N_SE * SE, SE = sqrt(alpha (1 - alpha) / n), where n
counts the reps of the whole run.  A run that makes more passes has a
higher bound, so whether the check holds depends on how fast the run
was.  For each seed this runs the workload's untimed warm-up and then
its passes 0, 1, ... in order, as ``bench/worker.py`` does, and prints
the pooled rate and bound at a few pass counts (warm-up reps included,
as in the worker) and the first pass count at which the check fails:

    PYTHONPATH=src python tools/pooled_size.py --seeds 1 2 2311 --passes 200

``bench/`` is only imported, with bytecode writing off.  BLAS is pinned
to one thread before numpy loads, so run it in a fresh interpreter.
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parents[1] / "bench"
SHOWN = (100, 120, 150, 200)


def _bench():
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode, saved = True, sys.dont_write_bytecode
    try:
        workloads, checks, worker = (importlib.import_module(n) for n in ("workloads", "checks", "worker"))
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = saved
    mods = SimpleNamespace(**{n: importlib.import_module(f"shiftshare_ri.{n}") for n in worker.PUBLIC_MODULES})
    return workloads, checks, mods


def _run(op) -> None:
    """One operation and its check; a failed check only fails its pass."""
    try:
        op.check(op.run())
    except Exception as exc:  # the worker records it and goes on
        print(f"  {op.kind} failed: {exc}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", required=True, help="bench workload seeds")
    p.add_argument("--passes", type=int, default=200, help="passes to replay per seed")
    args = p.parse_args(argv)
    # BLAS on one thread, as bench/run.py sets it for its workers
    os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
    workloads, checks, mods = _bench()
    alpha = workloads.ALPHA
    for seed in args.seeds:
        wl = workloads.WORKLOADS["mc-size"](mods, seed, BENCH.parent)
        wl.setup()
        for op in wl.pass_ops(workloads.derive(seed, 0)):  # the warm-up
            _run(op)
        first = None
        for i in range(1, args.passes + 1):
            for op in wl.pass_ops(i - 1):
                _run(op)
            rate = wl.ri_rejects / wl.ri_reps
            bound = alpha - checks.N_SE * math.sqrt(alpha * (1.0 - alpha) / wl.ri_reps)
            if first is None and rate < bound:
                first = i
            if i in SHOWN:
                print(f"seed {seed}: {i} passes, {wl.ri_reps} reps, rate {rate:.4f}, bound {bound:.4f}")
        print(f"seed {seed}: first fails at {first} passes" if first else f"seed {seed}: holds to {args.passes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
