"""What the traced run wraps, and the per-layer metrics it reports.

Span names are ``<layer>.<function>``.  Unless a metric says otherwise,
a ``*_ms``/``*_us`` value is self time (span duration minus child
spans) averaged per call, and ``*_per_op`` divides by the number of
benchmark operations in the traced phase.  Counts are exact.

Metrics that the workload does not exercise read 0 and are listed as
``not_exercised``; names whose wrapped attribute no longer exists in
the package are listed as ``absent``.
"""

from __future__ import annotations

import numpy as np

from tracing import SpanTable, Tracer

SCHEME_TOKENS = {
    "SignChange": "sign-change",
    "Permutation": "permutation",
    "RecentredBootstrap": "bootstrap",
    "IIDNormal": "normal",
}
KERNELS = ("batch_t0", "batch_t1", "batch_t1_clustered", "batch_t2")
RI_TEST_SPANS = ("ri.ri_test", "montecarlo.ri_test")
AKM_SPANS = ("estimator.shift_share_estimate", "estimator.variance_plugin", "scipy.norm_ppf")


def _kernel_name(kernel):
    """Separate kernel calls on a draw matrix from the one-row call at
    the observed shocks."""

    def classify(args, kwargs):
        G = args[1] if len(args) > 1 else kwargs["G"]
        return f"estimator.{kernel}" if G.shape[0] > 1 else f"estimator.{kernel}.obs"

    return classify


def _note_draws(tracer, args, kwargs, result):
    tracer.note("draws", (result.t_sims.shape[0], result.n_degenerate_redraws))


def _note_enum(tracer, args, kwargs, result):
    tracer.note("enum", (result.t_sims.shape[0], args[0].J))


def _note_t2(tracer, args, kwargs, result):
    G, S = args[1], args[2]
    # Zs = G S' and Zs * Zs: two float64 L x N temporaries per call.
    tracer.note("t2_bytes", 2 * G.shape[0] * S.shape[0] * 8)


def _note_experiment(tracer, args, kwargs, result):
    tracer.note("mc", (result[0].reps, sum(r.failures for r in result), len(result)))


def register(tracer: Tracer, m) -> None:
    """Register every wrapped module attribute with the tracer."""
    t = tracer.target
    # rng: stream construction and seed derivation
    # ``rng.stream`` itself is not wrapped: ``draw_stream`` calls it, and
    # a second span per draw would double the tracing cost of the draws.
    t(m.ri, "draw_stream", "rng.draw_stream")
    for owner in (m.montecarlo, m.schemes):
        t(owner, "stream", "rng.stream")
    t(m.montecarlo, "substream_seed", "rng.substream_seed")
    # schemes: one simulated shock vector per call
    for cls_name, token in SCHEME_TOKENS.items():
        t(getattr(m.schemes, cls_name), "draw", f"schemes.draw.{token}")
    t(m.schemes.SignChange, "signs", "schemes.signs")
    # ri: draws, tests, decisions, inversion, enumeration
    for owner in (m.ri, m.diagnostics):
        t(owner, "generate_draws", "ri.generate_draws")
        t(owner, "simulate_null_statistics", "ri.simulate_null_statistics")
    t(m.ri, "ri_test", "ri.ri_test", on_return=_note_draws)
    t(m.montecarlo, "ri_test", "montecarlo.ri_test", on_return=_note_draws)
    t(m.ri, "exact_enumeration_test", "ri.exact_enumeration_test", on_return=_note_enum)
    t(m.montecarlo, "exact_enumeration_test", "montecarlo.exact_enumeration_test", on_return=_note_enum)
    t(m.ri, "confidence_interval", "ri.confidence_interval")
    t(m.ri, "berger_boos_test", "ri.berger_boos_test")
    t(m.ri, "p_value_from_stats", "ri.decide")
    t(m.ri, "reject_by_order_statistic", "ri.decide")
    # estimator kernels, as called by the engine
    for kernel in KERNELS:
        t(m.ri, kernel, f"estimator.{kernel}", classify=_kernel_name(kernel),
          on_return=_note_t2 if kernel == "batch_t2" else None)
    for owner in (m.ri, m.diagnostics, m.estimator):
        t(owner, "sector_residual_sums", "estimator.sector_residual_sums")
        t(owner, "null_residuals", "design.null_residuals")
    t(m.montecarlo, "shift_share_estimate", "estimator.shift_share_estimate")
    t(m.montecarlo, "variance_plugin", "estimator.variance_plugin")
    # scipy's normal quantile, the AKM comparator's critical value
    if hasattr(m.montecarlo, "norm"):
        t(m.montecarlo.norm, "ppf", "scipy.norm_ppf")
    # design and io
    t(m.design.ShiftShareDesign, "from_arrays", "design.from_arrays")
    t(m.io, "load_design", "io.load_design")
    # montecarlo and diagnostics
    t(m.montecarlo, "generate_dataset", "montecarlo.generate_dataset")
    t(m.montecarlo, "size_experiment", "montecarlo.size_experiment", on_return=_note_experiment)
    for name in ("asymptotic_report", "prop2_conditions", "prop3_conditions", "normality_distance"):
        t(m.diagnostics, name, f"diagnostics.{name}")


class LayerReport:
    """Per-layer metrics from a span table; 0 where a layer was idle."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.table = SpanTable(tracer)
        self.values: dict[str, float] = {}
        self.not_exercised: list[str] = []
        tab = self.table
        self.n_ops = int(np.count_nonzero(tab.mask(prefix="op.", traced_only=True)))

    def put(self, name: str, value: float, exercised: bool = True) -> None:
        self.values[name] = float(value) if exercised else 0.0
        if not exercised:
            self.not_exercised.append(name)

    def count(self, *names, traced_only=True, prefix=None) -> int:
        return int(np.count_nonzero(self.table.mask(*names, prefix=prefix, traced_only=traced_only)))

    def self_ns(self, *names, traced_only=True, prefix=None) -> float:
        return float(self.table.self_ns[self.table.mask(*names, prefix=prefix, traced_only=traced_only)].sum())

    def dur_ns(self, *names, traced_only=True) -> float:
        return float(self.table.dur_ns[self.table.mask(*names, traced_only=traced_only)].sum())

    def per_call(self, metric, *names, scale, traced_only=True) -> None:
        n = self.count(*names, traced_only=traced_only)
        self.put(metric, self.self_ns(*names, traced_only=traced_only) / scale / max(n, 1), n > 0)

    def per_op(self, metric, value_ns, exercised) -> None:
        self.put(metric, value_ns / 1e6 / max(self.n_ops, 1), exercised)

    def coverage(self, metric, *names) -> None:
        dur = self.dur_ns(*names)
        covered = dur - self.self_ns(*names)
        self.put(metric, covered / dur if dur > 0 else 0.0, dur > 0)

    def compute(self) -> dict[str, float]:
        tab, notes, n_ops = self.table, self.tracer.notes, max(self.n_ops, 1)
        # rng
        streams = ("rng.stream", "rng.draw_stream")
        n_stream = self.count(*streams)
        self.put("rng.stream_calls_per_op", n_stream / n_ops, n_stream > 0)
        self.put("rng.stream_us", self.self_ns(*streams) / 1e3 / max(n_stream, 1), n_stream > 0)
        self.per_op("rng.self_ms_per_op", self.self_ns(prefix="rng."), self.count(prefix="rng.") > 0)
        # schemes
        parents = tab.parent_names()
        draw_ids = [i for i, n in enumerate(tab.names) if n.startswith("schemes.draw.")]
        signs = tab.mask("schemes.signs", traced_only=True)
        top_signs = int(np.count_nonzero(signs & ~np.isin(parents, draw_ids)))
        n_draw = self.count(prefix="schemes.draw.") + top_signs
        self.put("schemes.draw_calls_per_op", n_draw / n_ops, n_draw > 0)
        for token in SCHEME_TOKENS.values():
            names = (f"schemes.draw.{token}", "schemes.signs") if token == "sign-change" else (f"schemes.draw.{token}",)
            self.per_op(f"schemes.draw_ms_per_op.{token}", self.self_ns(*names), self.count(*names) > 0)
        # ri draws
        self.per_call("ri.generate_draws_self_ms", "ri.generate_draws", scale=1e6)
        draws = notes.get("draws", [])
        L_total = sum(L for L, _ in draws)
        self.put("ri.useful_draw_ratio", L_total / max(sum(L + r for L, r in draws), 1), bool(draws))
        # estimator kernels
        for kernel in KERNELS:
            self.per_call(f"estimator.{kernel}_ms", f"estimator.{kernel}", scale=1e6)
        t2_bytes = notes.get("t2_bytes", [])
        self.put("estimator.batch_t2_bytes", max(t2_bytes, default=0), bool(t2_bytes))
        # ri decision, inversion, enumeration
        n_tests = self.count(*RI_TEST_SPANS)
        self.put("ri.decide_us", self.self_ns("ri.decide") / 1e3 / max(n_tests, 1), n_tests > 0)
        ci_ids = [i for i, n in enumerate(tab.names) if n == "ri.confidence_interval"]
        n_ci = self.count("ri.confidence_interval")
        ci_points = int(np.count_nonzero(tab.mask("ri.ri_test", traced_only=True) & np.isin(parents, ci_ids)))
        self.put("ri.ci_tests_per_call", ci_points / max(n_ci, 1), n_ci > 0)
        self.put("ri.ci_ms_per_point", self.dur_ns("ri.confidence_interval") / 1e6 / max(ci_points, 1), n_ci > 0)
        enums = notes.get("enum", [])
        self.put("ri.enum_group_size", max((s for s, _ in enums), default=0), bool(enums))
        self.put("ri.enum_bytes", max((8 * s * j for s, j in enums), default=0), bool(enums))
        # design and io: these run during set-up too, so every call counts
        self.per_call("design.from_arrays_ms", "design.from_arrays", scale=1e6, traced_only=False)
        self.per_call("design.null_residuals_us", "design.null_residuals", scale=1e3)
        self.per_call("estimator.sector_residual_sums_us", "estimator.sector_residual_sums", scale=1e3)
        self.per_call("io.load_design_ms", "io.load_design", scale=1e6, traced_only=False)
        # montecarlo
        self.per_call("montecarlo.generate_dataset_ms", "montecarlo.generate_dataset", scale=1e6, traced_only=False)
        exps = notes.get("mc", [])
        reps = sum(r for r, _, _ in exps)
        for metric, names in (("montecarlo.ri_ms_per_rep", ("montecarlo.ri_test",)),
                              ("montecarlo.enum_ms_per_rep", ("montecarlo.exact_enumeration_test",)),
                              ("montecarlo.akm_ms_per_rep", AKM_SPANS)):
            self.put(metric, self.dur_ns(*names) / 1e6 / max(reps, 1), reps > 0 and self.count(*names) > 0)
        tried = sum(r * k for r, _, k in exps)
        self.put("montecarlo.failures_frac", sum(f for _, f, _ in exps) / max(tried, 1), bool(exps))
        # diagnostics
        self.per_call("diagnostics.asymptotic_report_ms", "diagnostics.asymptotic_report", scale=1e6)
        self.per_call("diagnostics.prop3_conditions_ms", "diagnostics.prop3_conditions", scale=1e6)
        # how much of each flow the named layers account for
        self.coverage("trace.coverage.ri_test", *RI_TEST_SPANS)
        self.coverage("trace.coverage.confidence_interval", "ri.confidence_interval")
        self.coverage("trace.coverage.size_experiment", "montecarlo.size_experiment")
        self.put("trace.spans", tab.name.size)
        return self.values
