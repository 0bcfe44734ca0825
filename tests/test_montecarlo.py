import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from shiftshare_ri import (
    ConfigError,
    DGPSpec,
    ExperimentResult,
    IIDNormal,
    KnownDistribution,
    MethodKind,
    MethodSpec,
    Permutation,
    RecentredBootstrap,
    SignChange,
    Statistic,
    generate_dataset,
    parse_experiment_config,
    power_curve,
    size_experiment,
)
from shiftshare_ri.montecarlo import (
    ClusteredShocks,
    Concentrated,
    CorrelatedWithExposure,
    DirichletRows,
    IIDAround,
    IIDErrors,
    IV,
    NormalShocks,
    RademacherShocks,
    ReducedForm,
    SectorFactorErrors,
    SingleExposure,
    UniformShocks,
    _COMPONENTS,
    build_scheme,
    results_to_csv,
    results_to_json_obj,
    shock_covariance,
)


def test_dgp_validation():
    with pytest.raises(ConfigError):
        DGPSpec(N=10, J=8)  # single exposure needs N == J
    with pytest.raises(ConfigError):
        DGPSpec(N=10, J=4, exposure_design=Concentrated(k_dominant=9))
    with pytest.raises(ConfigError):
        DGPSpec(N=10, J=5, exposure_design=DirichletRows(), shock_law=ClusteredShocks(block_size=2))
    with pytest.raises(ConfigError):
        DGPSpec(N=10, J=10, beta=np.inf)
    with pytest.raises(ConfigError):
        DGPSpec(N=1, J=1)
    # components are checked against their slot, integers by the TestSpec rule
    with pytest.raises(ConfigError, match="shock_law"):
        DGPSpec(N=8, J=8, shock_law="normal")
    with pytest.raises(ConfigError, match="first_stage"):
        DGPSpec(N=8, J=8, first_stage=IIDErrors())
    with pytest.raises(ConfigError, match="beta_heterogeneity"):
        DGPSpec(N=8, J=8, beta_heterogeneity=NormalShocks())
    with pytest.raises(ConfigError, match="exposure_design"):
        DGPSpec(N=8, J=8, exposure_design=None)
    with pytest.raises(ConfigError):
        DGPSpec(N=True, J=8)
    with pytest.raises(ConfigError):
        DGPSpec(N=8.0, J=8)
    with pytest.raises(ConfigError, match="k_dominant"):
        Concentrated(k_dominant=True)
    with pytest.raises(ConfigError, match="block_size"):
        ClusteredShocks(block_size=2.0)
    spec = DGPSpec(
        N=np.int64(8), J=np.int32(4), exposure_design=Concentrated(k_dominant=np.int64(2)),
        shock_law=ClusteredShocks(block_size=np.int16(2)),
    )
    assert type(spec.N) is int and type(spec.J) is int and (spec.N, spec.J) == (8, 4)
    assert type(spec.exposure_design.k_dominant) is int
    assert type(spec.shock_law.block_size) is int


def test_generate_dataset_reproducible():
    dgp = DGPSpec(N=12, J=6, exposure_design=DirichletRows())
    d1, t1 = generate_dataset(dgp, seed=9)
    d2, t2 = generate_dataset(dgp, seed=9)
    npt.assert_array_equal(d1.Y, d2.Y)
    npt.assert_array_equal(d1.S, d2.S)
    npt.assert_array_equal(d1.g, d2.g)
    npt.assert_array_equal(t1.beta_units, t2.beta_units)
    d3, _ = generate_dataset(dgp, seed=10)
    assert not np.array_equal(d1.g, d3.g)


def test_homogeneous_truth_is_exact():
    dgp = DGPSpec(N=15, J=5, exposure_design=DirichletRows(), beta=0.7)
    _, truth = generate_dataset(dgp, seed=3)
    assert truth.beta_target == 0.7
    assert truth.beta_target_sample == 0.7
    npt.assert_array_equal(truth.beta_units, np.full(15, 0.7))


def test_single_exposure_target_is_mean_of_unit_effects():
    # identity exposures with iid shocks weight every unit equally
    dgp = DGPSpec(N=20, J=20, beta=1.0, beta_heterogeneity=IIDAround(sd=0.5))
    _, truth = generate_dataset(dgp, seed=4)
    assert truth.beta_target == pytest.approx(truth.beta_units.mean(), rel=1e-12)


def test_sample_target_uses_realized_weights():
    dgp = DGPSpec(
        N=18, J=9, exposure_design=DirichletRows(), beta_heterogeneity=IIDAround(sd=0.4)
    )
    design, truth = generate_dataset(dgp, seed=5)
    w = design.Z * design.X
    manual = (w * truth.beta_units).sum() / w.sum()
    assert truth.beta_target_sample == pytest.approx(manual, rel=1e-12)


def test_shock_covariance_structures():
    npt.assert_allclose(shock_covariance(NormalShocks(sigma=2.0), 3), 4.0 * np.eye(3))
    npt.assert_allclose(shock_covariance(UniformShocks(half_width=3.0), 2), 3.0 * np.eye(2))
    npt.assert_allclose(shock_covariance(RademacherShocks(scale=0.5), 2), 0.25 * np.eye(2))
    cov = shock_covariance(ClusteredShocks(block_size=2, rho=0.6, sigma=1.0), 4)
    expect = np.array(
        [[1.0, 0.6, 0, 0], [0.6, 1.0, 0, 0], [0, 0, 1.0, 0.6], [0, 0, 0.6, 1.0]]
    )
    npt.assert_allclose(cov, expect)


def test_shock_sample_mean_matches_law():
    # 2000 datasets of 50 shocks each: the pooled mean of 1e5 standard
    # normal draws should sit within 3 standard errors of zero
    dgp = DGPSpec(N=50, J=50, beta=0.0)
    total, count = 0.0, 0
    for rep in range(2000):
        design, _ = generate_dataset(dgp, seed=rep)
        total += design.g.sum()
        count += design.g.size
    assert abs(total / count) < 3.0 / np.sqrt(count)


def test_clustered_shocks_correlate_within_blocks():
    dgp = DGPSpec(
        N=8, J=4, exposure_design=DirichletRows(),
        shock_law=ClusteredShocks(block_size=2, rho=0.6),
    )
    prods, vars_ = [], []
    for rep in range(3000):
        design, _ = generate_dataset(dgp, seed=rep)
        g = design.g
        prods += [g[0] * g[1], g[2] * g[3]]
        vars_ += list(g**2)
    assert np.mean(prods) == pytest.approx(0.6, abs=0.06)
    assert np.mean(vars_) == pytest.approx(1.0, abs=0.05)
    design, _ = generate_dataset(dgp, seed=0)
    npt.assert_array_equal(design.cluster_ids, [0, 0, 1, 1])


def test_iv_first_stage_produces_structural_design():
    dgp = DGPSpec(
        N=30, J=6, exposure_design=DirichletRows(), first_stage=IV(strength=1.0, noise_sd=0.5)
    )
    design, _ = generate_dataset(dgp, seed=6)
    assert not design.reduced_form
    assert not np.allclose(design.X, design.Z)
    # the intended first stage is positively coupled
    assert np.corrcoef(design.X, design.Z)[0, 1] > 0.2


def test_sector_factor_errors_and_concentrated_exposures_run():
    dgp = DGPSpec(
        N=25, J=6, exposure_design=Concentrated(k_dominant=2),
        error_model=SectorFactorErrors(),
    )
    design, truth = generate_dataset(dgp, seed=7)
    assert np.all(np.isfinite(design.Y))
    assert truth.epsilon.shape == (25,)
    # dominant sectors soak up most exposure mass
    share = design.S[:, :2].sum() / design.S.sum()
    assert share > 0.5


def test_exposure_correlated_heterogeneity_tracks_row_concentration():
    dgp = DGPSpec(
        N=60, J=8, exposure_design=DirichletRows(),
        beta_heterogeneity=CorrelatedWithExposure(strength=0.5),
    )
    design, truth = generate_dataset(dgp, seed=8)
    hhi_rows = (design.S**2).sum(axis=1)
    corr = np.corrcoef(hhi_rows, truth.beta_units)[0, 1]
    assert corr > 0.99  # deterministic tilt in the row concentration


def method_t1(L=19, alpha=0.1):
    return MethodSpec(kind=MethodKind.RI, scheme=SignChange(), L=L, alpha=alpha)


def test_size_experiment_validation():
    dgp = DGPSpec(N=8, J=8)
    with pytest.raises(ConfigError):
        size_experiment(dgp, [method_t1()], reps=50, master_seed=0)
    with pytest.raises(ConfigError):
        size_experiment(dgp, [], reps=200, master_seed=0)


def test_experiment_seed_must_be_nonnegative_integer():
    dgp = DGPSpec(N=8, J=8)
    for bad in (-1, 1.5, True):
        with pytest.raises(ConfigError, match="seed"):
            size_experiment(dgp, [method_t1()], reps=100, master_seed=bad)
        with pytest.raises(ConfigError, match="seed"):
            power_curve(dgp, [0.0], method_t1(), reps=100, master_seed=bad)
    # seeds beyond 64 bits stay valid master seeds
    res = size_experiment(dgp, [method_t1()], reps=100, master_seed=2**64 + 3)[0]
    assert res.reps == 100


def test_size_experiment_deterministic_and_sane():
    dgp = DGPSpec(N=10, J=10, beta=0.5)
    methods = [method_t1(), MethodSpec(kind=MethodKind.AKM_NORMAL, alpha=0.1)]
    r1 = size_experiment(dgp, methods, reps=120, master_seed=77)
    r2 = size_experiment(dgp, methods, reps=120, master_seed=77)
    assert r1 == r2
    for res in r1:
        assert res.reps == 120
        assert res.failures == 0
        assert 0.0 <= res.rejection_rate <= 1.0
        n_ok = res.reps - res.failures
        expect_se = np.sqrt(res.rejection_rate * (1 - res.rejection_rate) / n_ok)
        assert res.mc_se == pytest.approx(expect_se)
        assert res.b_tested == pytest.approx(0.5)
    assert r1[0].method == "RI-T1/sign-change"
    assert r1[1].method == "AKM-normal"


def test_size_experiment_counts_failures_without_dying():
    zero = KnownDistribution(lambda rng, S, e_b, g: np.zeros(g.shape[0]))
    dgp = DGPSpec(N=6, J=6)
    method = MethodSpec(kind=MethodKind.RI, scheme=zero, L=5, alpha=0.1)
    res = size_experiment(dgp, [method], reps=100, master_seed=1)[0]
    assert res.failures == 100
    assert np.isnan(res.rejection_rate)
    assert res.flagged


def test_flagged_threshold_is_one_percent():
    ok = ExperimentResult("m", 0.0, 0.1, 0.01, reps=100, failures=1)
    bad = ExperimentResult("m", 0.0, 0.1, 0.01, reps=100, failures=2)
    assert not ok.flagged
    assert bad.flagged


def test_power_curve_matches_size_run_at_the_target():
    dgp = DGPSpec(N=12, J=12, beta=0.8)
    method = method_t1()
    size = size_experiment(dgp, [method], reps=110, master_seed=21)[0]
    curve = power_curve(dgp, [0.3, 0.8, 1.3], method, reps=110, master_seed=21)
    at_target = [r for r in curve if r.b_tested == 0.8][0]
    assert at_target.rejection_rate == size.rejection_rate
    assert at_target.failures == size.failures
    # power grows away from the target
    away = [r for r in curve if r.b_tested != 0.8]
    assert all(r.rejection_rate >= at_target.rejection_rate for r in away)


def test_power_curve_point_does_not_depend_on_the_rest_of_the_grid():
    # every grid point reuses each rep's test seed
    dgp = DGPSpec(N=10, J=5, exposure_design=DirichletRows(), beta=1.0)
    method = method_t1(L=19, alpha=0.2)
    curve = power_curve(dgp, [0.2, 0.6, 1.0], method, reps=100, master_seed=8)
    for res in curve:
        assert power_curve(dgp, [res.b_tested], method, reps=100, master_seed=8) == [res]


def test_power_curve_validation():
    dgp = DGPSpec(N=8, J=8)
    with pytest.raises(ConfigError):
        power_curve(dgp, [], method_t1(), reps=120, master_seed=0)
    with pytest.raises(ConfigError):
        power_curve(dgp, [0.0, np.nan], method_t1(), reps=120, master_seed=0)
    with pytest.raises(ConfigError):
        power_curve(dgp, [0.0], method_t1(), reps=10, master_seed=0)


def test_method_spec_labels_and_validation():
    assert method_t1().label == "RI-T1/sign-change"
    assert MethodSpec(kind=MethodKind.AKM_NORMAL).label == "AKM-normal"
    enum_label = MethodSpec(kind=MethodKind.ENUMERATION, scheme=SignChange()).label
    assert enum_label == "enumeration/sign-change"
    custom = MethodSpec(kind=MethodKind.RI, scheme=SignChange(), label="mine")
    assert custom.label == "mine"
    with pytest.raises(ConfigError):
        MethodSpec(kind=MethodKind.RI)  # needs a scheme
    with pytest.raises(ConfigError):
        MethodSpec(kind=MethodKind.AKM_NORMAL, alpha=1.5)


@pytest.mark.parametrize(
    "scheme", [IIDNormal(), RecentredBootstrap(), KnownDistribution(lambda rng, S, e_b, g: g)]
)
def test_enumeration_method_needs_a_group_scheme(scheme):
    with pytest.raises(ConfigError, match="sign-change and permutation schemes only"):
        MethodSpec(MethodKind.ENUMERATION, scheme=scheme)


@pytest.mark.parametrize("token", ["bootstrap", "normal"])
def test_config_pairing_enumeration_with_a_sampled_scheme_fails_to_parse(tmp_path, token):
    cfg = tmp_path / "enum.cfg"
    cfg.write_text(f"n = 6\nj = 6\nscheme = {token}\nmethods = ri-t1, enumeration\n")
    with pytest.raises(ConfigError, match="sign-change and permutation schemes only"):
        parse_experiment_config(cfg)


def test_build_scheme_tokens():
    assert build_scheme("sign-change", m=0.3).m == 0.3
    assert build_scheme("normal", sigma=2.0).sigma == 2.0
    assert build_scheme("permutation").__class__.__name__ == "Permutation"
    assert build_scheme("bootstrap").__class__.__name__ == "RecentredBootstrap"
    with pytest.raises(ConfigError):
        build_scheme("wishful")


def test_parse_full_config(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# experiment description\n"
        "n = 24\n"
        "J = 8   # keys are case-insensitive\n"
        "exposure = dirichlet\n"
        "exposure.concentration = 0.7\n"
        "shocks = clustered\n"
        "shocks.block_size = 2\n"
        "shocks.rho = 0.4\n"
        "beta = 0.9\n"
        "heterogeneity = iid-around\n"
        "heterogeneity.sd = 0.3\n"
        "errors = sector-factor\n"
        "first_stage = reduced-form\n"
        "methods = ri-t1, akm-normal\n"
        "scheme = sign-change\n"
        "scheme.by_cluster = true\n"
        "alpha = 0.1\n"
        "l = 99\n"
        "reps = 150\n"
        "seed = 11\n"
        "clustered = true\n"
    )
    parsed = parse_experiment_config(cfg)
    assert parsed.dgp.N == 24 and parsed.dgp.J == 8
    assert isinstance(parsed.dgp.exposure_design, DirichletRows)
    assert parsed.dgp.exposure_design.concentration == 0.7
    assert isinstance(parsed.dgp.shock_law, ClusteredShocks)
    assert parsed.dgp.shock_law.rho == 0.4
    assert isinstance(parsed.dgp.beta_heterogeneity, IIDAround)
    assert isinstance(parsed.dgp.error_model, SectorFactorErrors)
    assert len(parsed.methods) == 2
    ri, akm = parsed.methods
    assert ri.kind is MethodKind.RI and ri.L == 99 and ri.alpha == 0.1
    assert isinstance(ri.scheme, SignChange) and ri.scheme.by_cluster
    assert ri.cluster_studentizer
    assert akm.kind is MethodKind.AKM_NORMAL
    assert parsed.reps == 150 and parsed.seed == 11
    assert parsed.b_grid is None


def test_parse_minimal_config_defaults(tmp_path):
    cfg = tmp_path / "min.cfg"
    cfg.write_text("n = 10\nj = 10\n")
    parsed = parse_experiment_config(cfg)
    assert isinstance(parsed.dgp.exposure_design, SingleExposure)
    assert isinstance(parsed.dgp.shock_law, NormalShocks)
    assert isinstance(parsed.dgp.error_model, IIDErrors)
    assert parsed.dgp.beta == 1.0
    assert len(parsed.methods) == 1
    assert parsed.methods[0].statistic is Statistic.T1
    assert parsed.methods[0].L == 199
    assert parsed.reps == 500 and parsed.seed == 0


def test_parse_config_b_grid(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("n = 10\nj = 10\nb_grid = 0.0, 0.5,1.0\n")
    parsed = parse_experiment_config(cfg)
    npt.assert_allclose(parsed.b_grid, [0.0, 0.5, 1.0])


def test_parse_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("n = 10\nj = 10\nmystery = 3\n")
    with pytest.raises(ConfigError, match="mystery"):
        parse_experiment_config(bad)

    dup = tmp_path / "dup.cfg"
    dup.write_text("n = 10\nn = 12\nj = 10\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_experiment_config(dup)

    missing = tmp_path / "missing.cfg"
    missing.write_text("n = 10\n")
    with pytest.raises(ConfigError, match="'j'"):
        parse_experiment_config(missing)

    badmethod = tmp_path / "badmethod.cfg"
    badmethod.write_text("n = 10\nj = 10\nmethods = ri-t9\n")
    with pytest.raises(ConfigError, match="ri-t9"):
        parse_experiment_config(badmethod)

    badnum = tmp_path / "badnum.cfg"
    badnum.write_text("n = ten\nj = 10\n")
    with pytest.raises(ConfigError, match="'n'"):
        parse_experiment_config(badnum)

    noeq = tmp_path / "noeq.cfg"
    noeq.write_text("n = 10\nj\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_experiment_config(noeq)


# every (component, token) of the config file and the class it builds
CONFIG_COMPONENTS = [
    ("exposure", "single", SingleExposure),
    ("exposure", "dirichlet", DirichletRows),
    ("exposure", "concentrated", Concentrated),
    ("shocks", "normal", NormalShocks),
    ("shocks", "uniform", UniformShocks),
    ("shocks", "rademacher", RademacherShocks),
    ("shocks", "clustered", ClusteredShocks),
    ("heterogeneity", "none", None),
    ("heterogeneity", "iid-around", IIDAround),
    ("heterogeneity", "exposure-correlated", CorrelatedWithExposure),
    ("errors", "iid", IIDErrors),
    ("errors", "sector-factor", SectorFactorErrors),
    ("first_stage", "reduced-form", ReducedForm),
    ("first_stage", "iv", IV),
    ("scheme", "sign-change", SignChange),
    ("scheme", "permutation", Permutation),
    ("scheme", "bootstrap", RecentredBootstrap),
    ("scheme", "normal", IIDNormal),
]


def test_config_components_cover_the_registry():
    registered = {
        (key, token, cls)
        for key, (_, choices) in _COMPONENTS.items()
        for token, cls in choices.items()
    }
    assert registered == set(CONFIG_COMPONENTS)


@pytest.mark.parametrize("key,token,cls", CONFIG_COMPONENTS)
def test_config_component_round_trip(tmp_path, key, token, cls):
    values = {}
    for f in (dataclasses.fields(cls) if cls is not None else ()):
        if isinstance(f.default, bool):
            values[f.name] = not f.default
        elif isinstance(f.default, int):
            values[f.name] = f.default + 1
        else:
            values[f.name] = f.default / 2 + 0.1
    assert all(v != getattr(cls, n) for n, v in values.items())
    size = "n = 6\nj = 6\n" if (key, token) == ("exposure", "single") else (
        "n = 12\nj = 6\n" + ("" if key == "exposure" else "exposure = dirichlet\n")
    )
    text = size + f"{key} = {token}\n" + "".join(f"{key}.{n} = {v}\n" for n, v in values.items())
    cfg = tmp_path / "component.cfg"
    cfg.write_text(text)
    parsed = parse_experiment_config(cfg)
    built = {
        "exposure": parsed.dgp.exposure_design,
        "shocks": parsed.dgp.shock_law,
        "heterogeneity": parsed.dgp.beta_heterogeneity,
        "errors": parsed.dgp.error_model,
        "first_stage": parsed.dgp.first_stage,
        "scheme": parsed.methods[0].scheme,
    }[key]
    assert built == (None if cls is None else cls(**values))
    assert type(built) is type(None if cls is None else cls(**values))


def test_config_sub_key_of_unchosen_token_is_an_error(tmp_path):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("n = 10\nj = 10\nshocks.rho = abc\nshocks = normal\n")
    with pytest.raises(ConfigError) as exc:
        parse_experiment_config(cfg)
    assert str(exc.value) == "config line 3: key 'shocks.rho' does not apply to shocks = normal"
    cfg.write_text("n = 10\nj = 10\nscheme.sigma = 2\n")
    with pytest.raises(ConfigError, match="'scheme.sigma' does not apply to scheme = sign-change"):
        parse_experiment_config(cfg)
    cfg.write_text("n = 10\nj = 10\nheterogeneity.sd = 0.2\n")
    with pytest.raises(ConfigError, match="does not apply to heterogeneity = none"):
        parse_experiment_config(cfg)


def test_results_to_csv_layout():
    rows = [
        ExperimentResult("RI-T1/sign-change", 0.5, 0.05, 0.01, 200, 0),
        ExperimentResult("AKM-normal", 0.5, 0.125, 0.02, 200, 3),
    ]
    text = results_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "method,b,reject_rate,mc_se,reps,failures"
    assert lines[1] == "RI-T1/sign-change,0.5,0.05,0.01,200,0"
    assert lines[2] == "AKM-normal,0.5,0.125,0.02,200,3"
    assert text.endswith("\n")


def test_results_to_json_layout():
    rows = [ExperimentResult("m", 1.0, 0.04, 0.01, 300, 6)]
    obj = results_to_json_obj(rows)
    assert obj["schema"] == 1
    entry = obj["results"][0]
    assert entry["method"] == "m"
    assert entry["flagged"] is True
    assert set(entry) == {"method", "b", "reject_rate", "mc_se", "reps", "failures", "flagged"}
