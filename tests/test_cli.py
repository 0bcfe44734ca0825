import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shiftshare_ri
from shiftshare_ri.cli import main


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    out = root / "outcomes.csv"
    exp = root / "exposures.csv"
    sho = root / "shocks.csv"
    rng = np.random.default_rng(17)
    S = rng.dirichlet(np.ones(4), size=6)
    g = rng.normal(size=4)
    Z = S @ g
    Y = 0.6 * Z + 0.3 * rng.normal(size=6)
    out.write_text("unit,Y\n" + "".join(f"u{i},{float(Y[i])!r}\n" for i in range(6)))
    exp.write_text(
        "unit,s1,s2,s3,s4\n"
        + "".join("u%d,%s\n" % (i, ",".join(repr(float(v)) for v in S[i])) for i in range(6))
    )
    sho.write_text("sector,g\n" + "".join(f"s{j + 1},{float(g[j])!r}\n" for j in range(4)))

    outx = root / "outcomes_iv.csv"
    X = Z + rng.normal(size=6)
    Yx = 0.6 * X + 0.3 * rng.normal(size=6)
    outx.write_text(
        "unit,Y,X\n" + "".join(f"u{i},{float(Yx[i])!r},{float(X[i])!r}\n" for i in range(6))
    )

    flat = root / "outcomes_flat.csv"  # Y = 2 X exactly: degenerate at b=2
    flat.write_text(
        "unit,Y,X\n"
        + "".join(f"u{i},{float(2 * Z[i])!r},{float(Z[i])!r}\n" for i in range(6))
    )
    return {"out": out, "exp": exp, "sho": sho, "outx": outx, "flat": flat}


def base_args(data, outcomes="out"):
    return [
        "--outcomes", str(data[outcomes]),
        "--exposures", str(data["exp"]),
        "--shocks", str(data["sho"]),
    ]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_test_command_json(capsys, data):
    code, out, err = run_cli(
        capsys,
        ["test", *base_args(data), "--b", "0.0", "--L", "99", "--seed", "5",
         "--format", "json"],
    )
    assert code == 0
    obj = json.loads(out)  # stdout is one JSON document
    assert obj["schema"] == 1
    assert obj["command"] == "test"
    assert obj["statistic"] == "t1"
    assert obj["L"] == 99 and obj["seed"] == 5
    assert 0.0 < obj["p_value"] <= 1.0
    assert isinstance(obj["reject"], bool)
    assert err == ""


def test_thread_count_does_not_change_output(capsys, data):
    argv = ["test", *base_args(data), "--b", "0.2", "--L", "300", "--seed", "9",
            "--format", "json"]
    outs = []
    for threads in ("1", "4", "16"):
        code, out, _ = run_cli(capsys, argv + ["--threads", threads])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


def test_seed_controls_draws(capsys, data):
    argv = ["test", *base_args(data), "--b", "0.0", "--L", "49", "--format", "json"]
    _, out_a, _ = run_cli(capsys, argv + ["--seed", "1"])
    _, out_a2, _ = run_cli(capsys, argv + ["--seed", "1"])
    _, out_b, _ = run_cli(capsys, argv + ["--seed", "2"])
    assert out_a == out_a2
    assert json.loads(out_a)["seed"] == 1
    assert json.loads(out_b)["seed"] == 2


def test_seed_env_var(capsys, data, monkeypatch):
    argv = ["test", *base_args(data), "--b", "0.0", "--L", "49", "--format", "json"]
    monkeypatch.setenv("SHIFTSHARE_RI_SEED", "7")
    _, out_env, _ = run_cli(capsys, argv)
    monkeypatch.delenv("SHIFTSHARE_RI_SEED")
    _, out_flag, _ = run_cli(capsys, argv + ["--seed", "7"])
    assert out_env == out_flag

    monkeypatch.setenv("SHIFTSHARE_RI_SEED", "pony")
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert "SHIFTSHARE_RI_SEED" in err


def test_flag_overrides_env_seed(capsys, data, monkeypatch):
    argv = ["test", *base_args(data), "--b", "0.0", "--L", "49", "--format", "json"]
    monkeypatch.setenv("SHIFTSHARE_RI_SEED", "7")
    _, out, _ = run_cli(capsys, argv + ["--seed", "3"])
    assert json.loads(out)["seed"] == 3


def test_test_command_csv_and_human(capsys, data):
    argv = ["test", *base_args(data), "--b", "0.0", "--L", "29"]
    code, out, _ = run_cli(capsys, argv + ["--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("p_value,") for line in lines)
    code, out, _ = run_cli(capsys, argv)  # human is the default
    assert code == 0
    assert "p_value" in out


def test_output_file(tmp_path, capsys, data):
    target = tmp_path / "result.json"
    code, out, _ = run_cli(
        capsys,
        ["test", *base_args(data), "--b", "0.0", "--L", "29", "--format", "json",
         "-o", str(target)],
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["schema"] == 1


def test_ci_command_json_and_csv(capsys, data):
    argv = ["ci", *base_args(data), "--b-min", "-2", "--b-max", "3",
            "--b-steps", "21", "--L", "99", "--seed", "4", "--alpha", "0.1"]
    code, out, _ = run_cli(capsys, argv + ["--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["command"] == "ci"
    assert len(obj["b_grid"]) == 21 and len(obj["p_values"]) == 21
    assert isinstance(obj["retained"], list)
    assert obj["empty"] == (len(obj["retained"]) == 0)
    if obj["retained"]:
        assert obj["hull"] == [min(obj["retained"]), max(obj["retained"])]

    code, out, _ = run_cli(capsys, argv + ["--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "b,p_value"
    assert len(lines) == 22


def test_enumerate_command(capsys, data):
    code, out, _ = run_cli(
        capsys,
        ["enumerate", *base_args(data), "--b", "0.0", "--format", "json", "--seed", "0"],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["command"] == "enumerate"
    assert obj["group_size"] == 16  # 2^4 sign patterns
    assert 1 / 16 <= obj["p_value"] <= 1.0


def test_diagnose_matches_library(capsys, data):
    from shiftshare_ri import IIDNormal, asymptotic_report, load_design

    code, out, _ = run_cli(
        capsys,
        ["diagnose", *base_args(data), "--b", "0.1", "--scheme", "normal",
         "--L", "200", "--moment-draws", "100", "--seed", "3", "--format", "json"],
    )
    assert code == 0
    obj = json.loads(out)
    design = load_design(data["out"], data["exp"], data["sho"])
    rep = asymptotic_report(design, 0.1, IIDNormal(), L=200, n_draws=100, seed=3)
    assert obj["v_J"] == rep.v_J
    assert obj["cond2"] == rep.cond2
    assert obj["ks_distance"] == rep.ks_distance
    assert obj["warnings"] == list(rep.warnings)


@pytest.mark.parametrize(
    "flag", [["--alpha", "0.3"], ["--sided", "left"], ["--clustered"]]
)
def test_diagnose_rejects_decision_flags(capsys, data, flag):
    # the report takes no level, sidedness or clustered studentizer
    with pytest.raises(SystemExit) as exc:
        main(["diagnose", *base_args(data), "--b", "0.1", "--L", "50", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_simulate_command(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n = 8\nj = 8\nreps = 100\nl = 19\nseed = 2\nmethods = ri-t1\n")
    code, out, _ = run_cli(capsys, ["simulate", "--config", str(cfg), "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "method,b,reject_rate,mc_se,reps,failures"
    assert lines[1].startswith("RI-T1/sign-change,")

    code, out_json, _ = run_cli(capsys, ["simulate", "--config", str(cfg), "--format", "json"])
    assert code == 0
    obj = json.loads(out_json)
    assert obj["schema"] == 1 and obj["command"] == "simulate"
    assert obj["results"][0]["reps"] == 100

    # --seed overrides the config seed deterministically
    _, a, _ = run_cli(capsys, ["simulate", "--config", str(cfg), "--seed", "9", "--format", "csv"])
    _, b, _ = run_cli(capsys, ["simulate", "--config", str(cfg), "--seed", "9", "--format", "csv"])
    assert a == b


def test_simulate_power_curve_needs_single_method(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "n = 8\nj = 8\nreps = 100\nl = 19\nmethods = ri-t1, akm-normal\nb_grid = 0.5, 1.0\n"
    )
    code, _, err = run_cli(capsys, ["simulate", "--config", str(cfg)])
    assert code == 2
    assert "one method" in err


@pytest.mark.parametrize("where", ["config", "flag"])
def test_simulate_negative_seed_is_usage_error(tmp_path, capsys, where):
    cfg = tmp_path / "exp.cfg"
    seed_line = "seed = -1\n" if where == "config" else ""
    cfg.write_text("n = 8\nj = 8\nreps = 100\nl = 19\n" + seed_line)
    flag = ["--seed", "-1"] if where == "flag" else []
    code, out, err = run_cli(capsys, ["simulate", "--config", str(cfg), *flag])
    assert code == 2
    assert out == ""
    assert "seed" in err


def test_exit_code_2_on_missing_file(capsys, data, tmp_path):
    code, _, err = run_cli(
        capsys,
        ["test", "--outcomes", str(tmp_path / "nope.csv"),
         "--exposures", str(data["exp"]), "--shocks", str(data["sho"]),
         "--b", "0.0"],
    )
    assert code == 2
    assert "error:" in err


def test_exit_code_2_on_t2_with_structural_x(capsys, data):
    code, _, err = run_cli(
        capsys,
        ["test", *base_args(data, outcomes="outx"), "--b", "0.0", "--stat", "t2",
         "--L", "29"],
    )
    assert code == 2
    assert "reduced-form" in err


def test_exit_code_2_on_bad_l(capsys, data):
    code, _, err = run_cli(
        capsys, ["test", *base_args(data), "--b", "0.0", "--L", "0"]
    )
    assert code == 2
    assert "L" in err


def test_exit_code_3_on_degenerate_statistic(capsys, data):
    # Y = 2 X exactly: at b = 2 the null residuals vanish
    code, _, err = run_cli(
        capsys,
        ["test", *base_args(data, outcomes="flat"), "--b", "2.0", "--L", "29"],
    )
    assert code == 3
    assert "studentizer" in err


def test_simulate_rejects_enumeration_with_bootstrap_before_any_rep(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n = 8\nj = 8\nreps = 100\nscheme = bootstrap\nmethods = ri-t1, enumeration\n")
    code, out, err = run_cli(capsys, ["simulate", "--config", str(cfg)])
    assert code == 2
    assert out == ""
    assert "sign-change and permutation schemes only" in err


def test_unknown_flag_exits_2(data):
    with pytest.raises(SystemExit) as exc:
        main(["test", *base_args(data), "--b", "0.0", "--frobnicate"])
    assert exc.value.code == 2


def test_console_script_installed(data, tmp_path):
    # Build the console script that an installer makes from this checkout's
    # [project.scripts] entry, so the test needs no install and cannot pick
    # up a shiftshare-ri from another checkout on PATH.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert "shiftshare-ri" in scripts, "console script shiftshare-ri not declared"
    module, _, attr = scripts["shiftshare-ri"].partition(":")
    bindir = tmp_path / "bin"
    bindir.mkdir()
    launcher = bindir / "shiftshare-ri"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import re\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
        f"    sys.exit({attr}())\n"
    )
    launcher.chmod(0o755)
    exe = shutil.which(
        "shiftshare-ri", path=os.pathsep.join([str(bindir), os.environ.get("PATH", "")])
    )
    assert exe, "console script shiftshare-ri not on PATH"

    src = str(Path(shiftshare_ri.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [exe, "test", *base_args(data), "--b", "0.0", "--L", "29", "--seed", "1",
         "--format", "json"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["schema"] == 1

    inproc = subprocess.run(
        [sys.executable, "-m", "shiftshare_ri.cli", "test", *base_args(data),
         "--b", "0.0", "--L", "29", "--seed", "1", "--format", "json"],
        capture_output=True, text=True, env=env,
    )
    assert inproc.stdout == proc.stdout


def test_cli_import_does_not_load_scipy():
    src = str(Path(shiftshare_ri.__file__).resolve().parents[1])
    code = "import sys, shiftshare_ri.cli; assert 'scipy' not in sys.modules"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
