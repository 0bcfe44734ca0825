"""The three benchmark workloads.

Each workload builds its inputs from the workload seed and lists the
library operations of one pass (run in order, one at a time);
desk-bundled also lists CLI calls that run the same flows from a cold
interpreter.  The package is reached only through its public modules
(``mods.ri``, ``mods.montecarlo``, ...), looked up at call time so that
the tracer's wrappers apply.

* ``desk-bundled``: an applied user's session on the bundled 40x12 CSVs.
  Time goes to per-draw stream set-up, per-call Python overhead and the
  scipy import, not to arithmetic.
* ``wide-t2``: T2 and T1 tests, a T2 confidence set and a 2^18-element
  enumeration at N=3000, J=200.  The L x N temporaries of ``batch_t2``
  and the 2^J x J enumeration matrix dominate time and memory.
* ``mc-size``: ``size_experiment`` on the README's headline design (N=30,
  J=6, two dominant sectors), calling the ``ri`` layer thousands of
  times with small inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks

L_TEST = 999
ALPHA = 0.05
BB_GAMMA = 0.01
MC_REPS = 100
MC_L = 199


def derive(*key: int) -> int:
    """A 63-bit seed determined by an integer key path."""
    state = np.random.SeedSequence([int(k) for k in key]).generate_state(1, dtype=np.uint64)[0]
    return int(state >> np.uint64(1))


@dataclass
class Op:
    """One library operation: ``run`` is timed, ``check`` is not."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass
class CliCall:
    """One CLI invocation and the fields its JSON output must carry."""

    label: str
    argv: list[str]
    expected: dict


class Workload:
    """Common plumbing; subclasses fill in inputs, passes and CLI calls."""

    name = ""
    # Null value and statistic token of the stand-alone probes.
    probe_b = 0.0
    thread_statistic = "t1"
    # the calibration loop (``calibration.CALIBRATIONS``) that slows down
    # the way this workload does
    calibration = "interp"

    def __init__(self, mods, seed: int, root: Path):
        self.m = mods
        self.seed = seed
        self.root = root
        # only desk-bundled runs CLI cold starts
        self.cli_calls: list[CliCall] = []

    # -- helpers -------------------------------------------------------

    def spec(self, b, statistic, scheme, seed, L=L_TEST, **kw):
        return self.m.ri.TestSpec(
            b=float(b), statistic=statistic, scheme=scheme, L=L, alpha=ALPHA, seed=int(seed), **kw
        )

    def test_op(self, design, spec) -> Op:
        ri = self.m.ri
        return Op(
            "test",
            lambda: ri.ri_test(design, spec),
            lambda res: checks.check_ri_test(res, design, spec, self.m),
        )

    def ci_op(self, design, spec, grid) -> Op:
        ri = self.m.ri
        return Op(
            "ci",
            lambda: ri.confidence_interval(design, spec, grid),
            lambda res: checks.check_ci(res, spec, grid, self.m),
        )

    def enum_op(self, design, spec) -> Op:
        ri = self.m.ri

        def check(res):
            sampled = ri.ri_test(design, spec)
            checks.check_ri_test(sampled, design, spec, self.m)
            checks.check_enumeration(res, sampled, design.J)

        return Op("enum", lambda: ri.exact_enumeration_test(design, spec), check)

    # -- interface -------------------------------------------------------

    def setup(self) -> None:
        """Load or generate inputs, and compute the in-process results
        that any CLI calls are compared with."""
        raise NotImplementedError

    def pass_ops(self, i: int) -> list[Op]:
        raise NotImplementedError

    def main_design(self):
        """The design used for stand-alone probes (minimum timings,
        memory peaks, thread invariance)."""
        raise NotImplementedError

    def enum_design(self):
        """The design of the workload's enumeration, for the memory probe."""
        return self.main_design()

    def main_spec(self, statistic):
        return self.spec(self.probe_b, statistic, self.m.schemes.SignChange(), derive(self.seed, 99))

    def final_checks(self) -> list[tuple[str, Callable[[], None]]]:
        """Run-level checks, made once after the measured loop."""
        ri = self.m.ri
        design = self.main_design()
        spec = self.main_spec(self.m.ri.Statistic(self.thread_statistic))

        def threads():
            one = ri.ri_test(design, spec, threads=1)
            two = ri.ri_test(design, spec, threads=2)
            checks.require(one.t_sims.tobytes() == two.t_sims.tobytes(), "threads=2 changed t_sims")
            checks.require(one.p_value == two.p_value, "threads=2 changed the p-value")

        return [("thread-invariance", threads)]


class DeskBundled(Workload):
    name = "desk-bundled"
    probe_b = 0.6

    def setup(self):
        m = self.m
        data = self.root / "demos" / "data"
        outcomes, exposures, shocks = (data / f for f in ("outcomes.csv", "exposures.csv", "shocks.csv"))
        self.d = m.io.load_design(outcomes, exposures, shocks)
        self.dc = m.io.load_design(outcomes, data / "exposures_concentrated.csv", shocks)
        self.grid = np.linspace(-1.0, 2.0, 121)

        T1 = m.ri.Statistic.T1
        sc = m.schemes.SignChange()
        b = float(np.random.default_rng([self.seed, 1]).uniform(-0.2, 1.4))
        s = derive(self.seed, 1, 0)
        data_args = ["--outcomes", str(outcomes), "--exposures", str(exposures), "--shocks", str(shocks)]
        tail = ["--format", "json", "--threads", "1", "--seed", str(s)]
        test = m.ri.ri_test(self.d, self.spec(b, T1, sc, s))
        enum = m.ri.exact_enumeration_test(self.d, self.spec(b, T1, sc, s, L=1))
        ci = m.ri.confidence_interval(self.d, self.spec(self.grid[0], T1, sc, s), self.grid)
        report = m.diagnostics.asymptotic_report(
            self.d, 0.6, sc, statistic=T1, L=L_TEST, n_draws=500, seed=s, demean=False
        )
        self.cli_calls = [
            CliCall("test", ["test", "--b", repr(b), "--stat", "t1", "--scheme", "sign-change"]
                    + data_args + tail, self.test_expectation(test)),
            CliCall("ci", ["ci", "--b-min", "-1", "--b-max", "2", "--b-steps", "121"] + data_args + tail,
                    {"p_values": [float(p) for p in ci.p_values],
                     "hull": list(ci.hull) if ci.hull is not None else None}),
            CliCall("enumerate", ["enumerate", "--b", repr(b)] + data_args + tail,
                    dict(self.test_expectation(enum), group_size=2**self.d.J)),
            CliCall("diagnose", ["diagnose", "--b", "0.6"] + data_args + tail, report.to_dict()),
        ]

    def pass_ops(self, i):
        m = self.m
        T0, T1 = m.ri.Statistic.T0, m.ri.Statistic.T1
        sch = m.schemes
        rng = np.random.default_rng([self.seed, 2, i])
        b = float(rng.uniform(-0.2, 1.4))

        def s(k):
            return derive(self.seed, 2, i, k)

        d = self.d
        sc = sch.SignChange()
        bb_spec = self.spec(b, T1, sc, s(7))

        def bb_check(p):
            endpoint = m.ri.berger_boos_test(d, bb_spec, -0.2, -0.2, 0.0)
            checks.check_berger_boos(p, endpoint, BB_GAMMA, L_TEST)

        diag_seed = s(9)

        return [
            self.test_op(d, self.spec(b, T1, sc, s(0))),
            self.test_op(
                self.dc,
                self.spec(b, T1, sch.SignChange(by_cluster=True), s(1), cluster_studentizer=True),
            ),
            self.test_op(d, self.spec(b, T1, sch.Permutation(), s(2))),
            self.test_op(d, self.spec(b, T1, sch.RecentredBootstrap(), s(3))),
            self.test_op(d, self.spec(b, T1, sch.IIDNormal(), s(4))),
            self.test_op(d, self.spec(b, T0, sc, s(5))),
            self.ci_op(d, self.spec(self.grid[0], T1, sc, s(6)), self.grid),
            self.enum_op(d, self.spec(b, T1, sc, s(8))),
            Op("bb", lambda: m.ri.berger_boos_test(d, bb_spec, -0.2, 0.2, BB_GAMMA), bb_check),
            Op(
                "diagnose",
                lambda: m.diagnostics.asymptotic_report(d, 0.6, sc, seed=diag_seed),
                checks.check_report,
            ),
        ]

    def main_design(self):
        return self.d

    @staticmethod
    def test_expectation(res) -> dict:
        return {"t_obs": res.t_obs, "p_value": res.p_value, "reject": bool(res.reject)}


class WideT2(Workload):
    name = "wide-t2"
    probe_b = 1.0
    thread_statistic = "t2"
    calibration = "blas"

    def setup(self):
        m = self.m
        mc = m.montecarlo
        dirichlet = mc.DirichletRows(1.0)
        self.wd, _ = mc.generate_dataset(mc.DGPSpec(N=3000, J=200, exposure_design=dirichlet), derive(self.seed, 3, 0))
        self.ed, _ = mc.generate_dataset(mc.DGPSpec(N=200, J=18, exposure_design=dirichlet), derive(self.seed, 3, 1))
        self.grid = np.linspace(0.5, 1.5, 21)

    def pass_ops(self, i):
        m = self.m
        T1, T2 = m.ri.Statistic.T1, m.ri.Statistic.T2
        sc = m.schemes.SignChange()
        b = float(np.random.default_rng([self.seed, 4, i]).uniform(0.5, 1.5))

        def s(k):
            return derive(self.seed, 4, i, k)

        return [
            self.test_op(self.wd, self.spec(b, T2, sc, s(0))),
            self.test_op(self.wd, self.spec(b, T1, sc, s(1))),
            self.ci_op(self.wd, self.spec(self.grid[0], T2, sc, s(2)), self.grid),
            self.enum_op(self.ed, self.spec(b, T1, sc, s(3))),
        ]

    def main_design(self):
        return self.wd

    def enum_design(self):
        return self.ed


class McSize(Workload):
    name = "mc-size"
    probe_b = 1.0

    def setup(self):
        m = self.m
        mc = m.montecarlo
        self.dgp = mc.DGPSpec(N=30, J=6, exposure_design=mc.Concentrated(k_dominant=2))
        sc = m.schemes.SignChange()
        self.methods = [
            mc.MethodSpec(kind=mc.MethodKind.AKM_NORMAL, alpha=ALPHA),
            mc.MethodSpec(kind=mc.MethodKind.RI, statistic=m.ri.Statistic.T1, scheme=sc, L=MC_L, alpha=ALPHA),
            mc.MethodSpec(kind=mc.MethodKind.ENUMERATION, statistic=m.ri.Statistic.T1, scheme=sc, alpha=ALPHA),
        ]
        self.design, _ = mc.generate_dataset(self.dgp, derive(self.seed, 5, 0))
        self.ri_rejects = 0
        self.ri_reps = 0

    def check_results(self, results):
        checks.require(len(results) == len(self.methods), "one result per method expected")
        for r, method in zip(results, self.methods):
            checks.require(r.method == method.label and r.reps == MC_REPS, f"bad result row {r}")
        ri_row, enum_row = results[1], results[2]
        n_ri = ri_row.reps - ri_row.failures
        checks.check_size(ri_row.rejection_rate, n_ri, ALPHA, "RI-T1", lower=True)
        checks.check_size(enum_row.rejection_rate, enum_row.reps - enum_row.failures, ALPHA,
                          "enumeration", lower=False)
        self.ri_rejects += round(ri_row.rejection_rate * n_ri)
        self.ri_reps += n_ri

    def pass_ops(self, i):
        mc = self.m.montecarlo
        master = derive(self.seed, 6, i)
        return [Op("mc", lambda: mc.size_experiment(self.dgp, self.methods, MC_REPS, master), self.check_results)]

    def main_design(self):
        return self.design

    def final_checks(self):
        def pooled_size():
            checks.require(self.ri_reps > 0, "no RI reps were run")
            checks.check_size(self.ri_rejects / self.ri_reps, self.ri_reps, ALPHA, "pooled RI-T1", lower=True)

        return super().final_checks() + [("pooled-size", pooled_size)]


WORKLOADS = {cls.name: cls for cls in (DeskBundled, WideT2, McSize)}
