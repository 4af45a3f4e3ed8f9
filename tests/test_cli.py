import json
import os
from dataclasses import replace

import pytest

from extremalflow import cli, verification
from extremalflow.cli import ConfigError, load_config, main
from extremalflow.solutions import grim_reaper_dominating_sigma


def write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


BASE_CFG = """
# reference configuration
A = 1.0
a = 0.5
grid_n = 101
sigma = 0.1
scheme = semi_implicit
t_max = 30.0
"""


# --- configuration parsing -----------------------------------------------------


def test_defaults_without_file():
    cfg = load_config(None)
    assert cfg.A == 1.0 and cfg.grid_n == 201 and cfg.scheme == "semi_implicit"


def test_config_parsing_and_overrides(tmp_path):
    path = write_cfg(tmp_path, BASE_CFG + "sample_interval = 0.05\nphi = parabola\n")
    cfg = load_config(path, {"sigma": 0.7, "grid_n": 201})
    assert cfg.sigma == 0.7
    assert cfg.grid_n == 201
    assert cfg.sample_interval == 0.05
    assert cfg.family().phi == "parabola"
    # bisect_hi = auto certifies the configured profile
    assert cfg.bisect_hi_value() == grim_reaper_dominating_sigma(cfg.params(), "parabola")


def test_config_rejects_unknown_key(tmp_path):
    path = write_cfg(tmp_path, "unknown_key = 3\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_rejects_bad_values(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, "grid_n = many\n"))
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, "A = 1.0\na = 1.5\n"))  # a > 1/A
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, "cfl = 0.4\nscheme = explicit\n"))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "nope.cfg"))


@pytest.mark.parametrize("key", ["cfl", "t_max", "sample_interval", "converge", "width_tol"])
def test_nan_setting_exits_1(tmp_path, capsys, key):
    # `load_config` rejects NaN before any simulation starts; width_tol is
    # checked by the bisection itself
    cfg = write_cfg(tmp_path, BASE_CFG + f"{key} = nan\n")
    command = "bisect" if key == "width_tol" else "run"
    argv = [command, "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]
    assert main(argv) == 1
    assert "must be positive" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "setting, message",
    [
        ("t_max = inf", "must be positive"),
        ("sample_interval = 1e-13", "sample_interval must be at least 1e-9"),
    ],
)
def test_out_of_range_setting_exits_1(tmp_path, capsys, setting, message):
    # an infinite horizon never ends; sample intervals stay three decades
    # above the stop rule's 1e-12 horizon slack
    cfg = write_cfg(tmp_path, BASE_CFG + setting + "\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["escape_gap", "dissipation"])
def test_stop_rule_constants_are_not_config_keys(tmp_path, capsys, key):
    # the escape clearance and the dissipation floor are evolvers constants
    cfg = write_cfg(tmp_path, BASE_CFG + f"{key} = 1e-3\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 1
    assert "unknown key" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sigma_list_parsing(tmp_path):
    cfg = load_config(write_cfg(tmp_path, "sigmas = -1, 0, 0.1\n"))
    assert cfg.sigma_list() == [-1.0, 0.0, 0.1]
    with pytest.raises(ConfigError):
        load_config(None).sigma_list()  # empty by default


def test_sweep_naming_no_amplitude_exits_1(tmp_path, capsys):
    # a list of separators names no amplitude: an error, not an empty sweep.csv
    cfg = write_cfg(tmp_path, BASE_CFG)
    for sigmas in (",", " , ", ",,"):
        out = tmp_path / "out"
        argv = ["sweep", "--config", cfg, f"--sigmas={sigmas}", "--out", str(out), "--quiet"]
        assert main(argv) == 1
        assert "config error: sweep needs amplitudes" in capsys.readouterr().err
        assert not out.exists()


def test_override_flags_set_their_keys(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, BASE_CFG)
    seen = []
    for name in ("cmd_sweep", "cmd_bisect"):
        monkeypatch.setattr(cli, name, lambda c, quiet: seen.append(c) or 0)
    common = ["--config", cfg, "--out", "o", "--sigma", "0.7", "--grid", "41"]
    assert main(["sweep", *common, "--sigmas=-1,2"]) == 0
    assert main(["bisect", *common, "--lo", "3", "--hi", "3.6", "--width-tol", "0.2"]) == 0
    base = replace(load_config(cfg), out_dir="o", sigma=0.7, grid_n=41)
    assert seen == [
        replace(base, sigmas="-1,2"),
        replace(base, bisect_lo=3.0, bisect_hi="3.6", width_tol=0.2),
    ]


# --- commands ---------------------------------------------------------------------


def test_run_writes_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out, "--quiet"]) == 0
    files = os.listdir(out)
    assert "summary.json" in files and "diagnostics.csv" in files
    assert any(f.startswith("snapshot_") for f in files)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["category"] == "ConvergeLower"
    assert summary["undetermined"] is False


def test_run_is_byte_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(["run", "--config", cfg, "--out", out1, "--quiet"]) == 0
    assert main(["run", "--config", cfg, "--out", out2, "--quiet"]) == 0
    s1 = (tmp_path / "o1" / "summary.json").read_bytes()
    s2 = (tmp_path / "o2" / "summary.json").read_bytes()
    assert s1 == s2
    d1 = (tmp_path / "o1" / "diagnostics.csv").read_bytes()
    d2 = (tmp_path / "o2" / "diagnostics.csv").read_bytes()
    assert d1 == d2


def test_run_missing_config_exits_1(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("run", "grid_n 41\n", "run.cfg:1: expected key = value"),
        ("bisect", "bisect_hi = abc\n", "config error: bisect_hi must be a number or 'auto', got 'abc'"),
        ("sweep", "sigmas = 1,x\n", "config error: bad sigmas list: '1,x'"),
    ],
)
def test_config_errors_exit_1(tmp_path, capsys, command, text, message):
    cfg = write_cfg(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_order_violation_exits_1(tmp_path, capsys, monkeypatch):
    def violated(*args):
        raise cli.MonotonicityError("ConvergeLower at sigma=5 above Escape at sigma=4")

    monkeypatch.setattr(cli, "sweep", violated)
    cfg = write_cfg(tmp_path, "sigmas = 4,5\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("diagnostic failure: ConvergeLower at sigma=5")
    assert not (tmp_path / "out").exists()


def test_out_of_scope_regime_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "A = 1.0\na = 1.2\n")
    assert main(["run", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "a <= 1/A" in err


def test_sweep_csv(tmp_path):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out = str(tmp_path / "sw")
    rc = main(["sweep", "--config", cfg, "--sigmas=-1,0,0.1", "--out", out, "--quiet"])
    assert rc == 0
    lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "sigma,category,t_event,final_sgn"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[1] for r in rows] == ["ConvergeLower"] * 3
    assert [float(r[0]) for r in rows] == [-1.0, 0.0, 0.1]


def test_bisect_json(tmp_path):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out = str(tmp_path / "bi")
    rc = main(
        [
            "bisect",
            "--config",
            cfg,
            "--lo",
            "3.0",
            "--hi",
            "3.6",
            "--width-tol",
            "0.2",
            "--out",
            out,
            "--quiet",
        ]
    )
    assert rc == 0
    payload = json.loads((tmp_path / "bi" / "bracket.json").read_text())
    assert payload["width"] <= 0.2
    assert payload["lo"] < payload["hi"]
    # the stop rule's constants are written beside the configured tolerances
    assert payload["tolerances"] == {
        "converge": 1e-3, "dissipation": 1e-4, "escape_gap": 1e-3, "t_max": 30.0, "width_tol": 0.2
    }
    assert payload["iterations"]


def test_bisect_invalid_bracket_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG)
    rc = main(["bisect", "--config", cfg, "--lo", "5.0", "--hi", "3.0", "--quiet"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_verify_single_criterion(capsys):
    assert main(["verify", "--only", "10"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "sign-word algebra" in out


def test_verify_with_coarse_config(tmp_path, capsys):
    # the suite is pinned in VerificationContext, so `verify` takes no
    # configuration and no override
    cfg = write_cfg(tmp_path, "grid_n = 17\n")
    for extra in (["--config", cfg], ["--out", str(tmp_path)], ["--sigma", "1"], ["--grid", "17"]):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *extra, "--only", "2,3,10", "--quiet"])
        assert exc.value.code == 2
    capsys.readouterr()
    assert main(["verify", "--only", "2,3,10", "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_verify_rejects_an_empty_selection(capsys):
    # a selection naming no criterion runs none, rather than all eleven
    for only in (",", "", " , "):
        assert main(["verify", "--only", only]) == 1
        captured = capsys.readouterr()
        assert "selects no criterion" in captured.err and captured.out == ""


def test_verify_runs_a_repeated_criterion_once(capsys):
    assert main(["verify", "--only", "10,10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[-1] == "1/1 acceptance criteria passed"


def test_run_all_selects_each_criterion_once(monkeypatch):
    ran = []

    def fake_run_one(number, ctx):
        ran.append(number)
        return verification.CriterionResult(number, "fake", True, "")

    monkeypatch.setattr(verification, "run_one", fake_run_one)
    assert [r.number for r in verification.run_all([10, 2, 10], quiet=True)] == [2, 10]
    with pytest.raises(ValueError, match="no acceptance criterion"):
        verification.run_all([], quiet=True)
    assert ran == [2, 10]
    ran.clear()
    verification.run_all(None, quiet=True)
    assert ran == sorted(verification.CRITERIA)


def test_run_all_rejects_unknown_criteria_before_running(monkeypatch):
    # the selection is checked before the context and its runs are built
    def build():
        raise AssertionError("VerificationContext built")

    monkeypatch.setattr(verification, "VerificationContext", build)
    for numbers in ([12], ["10"], [10, 0]):
        with pytest.raises(ValueError, match=r"unknown criteria .*valid are \[1, 2,"):
            verification.run_all(numbers, quiet=True)


def test_verify_rejects_bad_selection(capsys):
    assert main(["verify", "--only", "12"]) == 1
    assert main(["verify", "--only", "abc"]) == 1
