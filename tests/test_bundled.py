"""The bundled demo data and config behave as documented."""

import json
from pathlib import Path

import numpy as np
import pytest

from shiftshare_ri import (
    SignChange,
    Statistic,
    TestSpec,
    ZeroVarianceError,
    berger_boos_test,
    confidence_interval,
    exact_enumeration_test,
    load_design,
    ri_test,
    shift_share_estimate,
    stat_t2,
)
from shiftshare_ri.cli import main

DEMOS = Path(__file__).parent.parent / "demos"


def data_args(exposures="exposures.csv"):
    return [
        "--outcomes", str(DEMOS / "data" / "outcomes.csv"),
        "--exposures", str(DEMOS / "data" / exposures),
        "--shocks", str(DEMOS / "data" / "shocks.csv"),
    ]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_bundled_test_command_is_deterministic_and_matches_library(capsys):
    argv = ["test", *data_args(), "--b", "0", "--stat", "t1", "--scheme", "sign-change",
            "--L", "999", "--alpha", "0.05", "--seed", "42", "--format", "json"]
    code_a, out_a = run(capsys, argv)
    code_b, out_b = run(capsys, argv)
    assert code_a == code_b == 0
    assert out_a == out_b  # byte-for-byte reproducible
    payload = json.loads(out_a)

    design = load_design(
        DEMOS / "data" / "outcomes.csv",
        DEMOS / "data" / "exposures.csv",
        DEMOS / "data" / "shocks.csv",
    )
    spec = TestSpec(b=0.0, statistic=Statistic.T1, scheme=SignChange(), L=999,
                    alpha=0.05, seed=42)
    res = ri_test(design, spec)
    assert payload["p_value"] == res.p_value
    assert payload["t_obs"] == res.t_obs
    assert payload["reject"] == res.reject


def test_bundled_ci_straddles_the_estimate(capsys):
    design = load_design(
        DEMOS / "data" / "outcomes.csv",
        DEMOS / "data" / "exposures.csv",
        DEMOS / "data" / "shocks.csv",
    )
    beta_hat = shift_share_estimate(design).beta_hat
    code, out = run(capsys, [
        "ci", *data_args(), "--b-min", "-1", "--b-max", "2.5", "--b-steps", "71",
        "--L", "499", "--alpha", "0.05", "--seed", "42", "--format", "json",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["empty"] is False
    retained = np.asarray(payload["retained"], dtype=np.float64)
    grid = np.linspace(-1, 2.5, 71)
    nearest = grid[np.argmin(np.abs(grid - beta_hat))]
    assert np.any(np.isclose(retained, nearest))


def test_concentrated_example_warns_about_concentration(capsys):
    code, out = run(capsys, [
        "diagnose", *data_args("exposures_concentrated.csv"), "--b", "0.6",
        "--scheme", "normal", "--L", "2000", "--moment-draws", "300",
        "--seed", "9", "--format", "json",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["hhi"] > 0.9  # one sector carries nearly all importance
    assert any("concentration" in w for w in payload["warnings"])


T2_ENTRY_POINTS = {
    "ri_test": lambda d, spec: ri_test(d, spec),
    "confidence_interval": lambda d, spec: confidence_interval(d, spec, [0.0, 0.2, 0.6]),
    "berger_boos_test": lambda d, spec: berger_boos_test(d, spec, -0.1, 0.1, gamma=0.01),
    "exact_enumeration_test": lambda d, spec: exact_enumeration_test(d, spec),
    "stat_t2": lambda d, spec: stat_t2(d, spec.b),
}


@pytest.mark.parametrize("entry", sorted(T2_ENTRY_POINTS))
def test_t2_on_rank_deficient_exposures_is_zero_variance(entry):
    # every unit has the same exposure row, so S has rank 1 and the T2
    # studentizer is exactly zero for every shock vector; what the
    # arithmetic leaves of it is rounding residue
    design = load_design(
        DEMOS / "data" / "outcomes.csv",
        DEMOS / "data" / "exposures_concentrated.csv",
        DEMOS / "data" / "shocks.csv",
    )
    spec = TestSpec(b=0.2, statistic=Statistic.T2, scheme=SignChange(), L=99, seed=0)
    with pytest.raises(ZeroVarianceError):
        T2_ENTRY_POINTS[entry](design, spec)


def test_t2_on_rank_deficient_exposures_exits_3(capsys):
    code = main([
        "test", *data_args("exposures_concentrated.csv"), "--b", "0.2", "--stat", "t2",
        "--L", "99", "--format", "json",
    ])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "studentizer" in captured.err


def test_t2_on_rank_deficient_exposures_names_the_exposure_rank(capsys):
    code = main([
        "test", *data_args("exposures_concentrated.csv"), "--b", "0.2", "--stat", "t2", "--L", "99",
    ])
    err = capsys.readouterr().err
    assert code == 3
    assert "T2 statistic" in err and "rank one" in err and "same exposure row" in err
    assert "orthogonal to every shocked sector" not in err


def test_bundled_experiment_config_level_and_determinism(capsys):
    argv = ["simulate", "--config", str(DEMOS / "configs" / "size_small_J.cfg"),
            "--format", "csv"]
    code_a, out_a = run(capsys, argv)
    code_b, out_b = run(capsys, argv)
    assert code_a == code_b == 0
    assert out_a == out_b  # config seed makes reruns identical

    rows = [line.split(",") for line in out_a.strip().splitlines()[1:]]
    by_method = {r[0]: r for r in rows}
    rate = float(by_method["RI-T1/sign-change"][2])
    mc_se = float(by_method["RI-T1/sign-change"][3])
    assert abs(rate - 0.1) <= 3.0 * mc_se  # sign flips are exact here
    assert float(by_method["AKM-normal"][2]) > 0.1  # the comparator is not


def test_bundled_experiment_config_pinned_counts(capsys):
    # reject counts and failures of the bundled size study, frozen so a
    # change to the harness, the config parser or the seeding shows here
    code, out = run(capsys, ["simulate", "--config", str(DEMOS / "configs" / "size_small_J.cfg"),
                             "--format", "csv"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    counts = {r[0]: (round(float(r[2]) * int(r[4])), int(r[4]), int(r[5])) for r in rows}
    assert counts == {
        "RI-T1/sign-change": (38, 400, 0),
        "AKM-normal": (119, 400, 0),
    }
