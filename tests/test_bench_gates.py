"""The benchmark's own correctness gates, on a few fixed seeds.

For each workload in ``bench/workloads.py`` this runs its set-up, one
pass of operations with each operation's check, and its run-level
checks, exactly as the benchmark worker does (untimed).  A change that
makes a benchmarked operation raise or a bench check fail therefore
fails here first.  A size bound that fails only when pooled over many
passes can still get past it.  The ``bench/`` files are only imported.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode, saved = True, sys.dont_write_bytecode  # leave bench/ as it is
    try:
        workloads = importlib.import_module("workloads")
        modules = importlib.import_module("worker").PUBLIC_MODULES
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = saved
    mods = SimpleNamespace(
        **{name: importlib.import_module(f"shiftshare_ri.{name}") for name in modules}
    )
    return workloads, mods


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["desk-bundled", "wide-t2", "mc-size"])
def test_one_pass_meets_every_bench_check(bench, name, seed):
    workloads, mods = bench
    wl = workloads.WORKLOADS[name](mods, seed, BENCH.parent)
    wl.setup()
    for op in wl.pass_ops(0):
        op.check(op.run())
    for _label, check in wl.final_checks():
        check()
