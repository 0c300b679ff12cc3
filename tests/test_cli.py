"""End-to-end command-line tests: replay of the bundled example log,
the calibrate -> simulate hand-off, artifact determinism, and one
concrete reproduction per exit code."""

import importlib.resources
import json
import math

import numpy as np
import pytest

from bookvol import __version__, cli, errors
from bookvol.calibration import SESSION_START_NS, format_log, synthesize_log
from bookvol.cli import main
from bookvol.params import demo_params, save_params


EXAMPLE_LOG = str(importlib.resources.files("bookvol") / "data" / "example1.log")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert f"bookvol {__version__}" in capsys.readouterr().out


def test_replay_bundled_example(capsys):
    assert main(["replay", EXAMPLE_LOG]) == 0
    out = capsys.readouterr().out
    assert "pi,120" in out
    assert "120,10,s1,b2" in out          # one fill: ten shares at the maker price
    buy_section = out.split("# buy book")[1].split("# sell book")[0]
    assert buy_section.index("125,5") < buy_section.index("100,10")
    assert "130,10" in out.split("# sell book")[1]


def test_artifact_manifest_shape(tmp_path, capsys):
    out = tmp_path / "quotes.csv"
    rc = main(["price", "--paths", "40", "--expiry", "0.001",
               "--strikes", "20.0,20.2", "--seed", "7", "--out", str(out)])
    assert rc == 0
    assert out.exists()
    manifest = json.loads((tmp_path / "quotes.csv.manifest.json").read_text())
    assert set(manifest) == {"command", "version", "seed", "config_sha256"}
    assert manifest["command"] == "price"
    assert manifest["seed"] == 7
    assert manifest["version"] == __version__


def test_artifacts_are_byte_identical_across_runs(tmp_path, capsys):
    argv = ["smile", "--paths", "60", "--expiry", "0.001",
            "--strikes", "20.0,20.1", "--seed", "3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.manifest.json").read_bytes() == \
           (tmp_path / "b.csv.manifest.json").read_bytes()


def test_calibrate_feeds_simulate(tmp_path, capsys):
    params = demo_params()
    log = tmp_path / "session.log"
    log.write_text(format_log(synthesize_log(params, 120, seed=5)))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"calibrate": {
        "pi0": params.pi0, "K": params.K, "delta_p": params.delta_p,
        "p_min": 19.0, "p_max": 21.5,
    }}))
    fit = tmp_path / "fit.json"
    rc = main(["calibrate", str(log), "--config", str(config), "--out", str(fit)])
    assert rc == 0
    assert "buckets" in json.loads(fit.read_text())

    capsys.readouterr()
    rc = main(["simulate", "--config", str(fit), "--paths", "5",
               "--expiry", "0.0003", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "path,pi,alive" in out
    assert "max_rel_residual" in out


def test_replay_and_calibrate_report_malformed_lines(tmp_path, capsys):
    params = demo_params()
    lines = format_log(synthesize_log(params, 120, seed=5)).splitlines(keepends=True)
    log = tmp_path / "session.log"
    log.write_text("".join(lines[:3] + ["garbage\n"] + lines[3:]))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"calibrate": {
        "pi0": params.pi0, "K": params.K, "delta_p": params.delta_p,
        "p_min": 19.0, "p_max": 21.5,
    }}))

    assert main(["replay", str(log), "--out", str(tmp_path / "r.csv")]) == 0
    assert "warning: 1 malformed lines skipped" in capsys.readouterr().err
    with pytest.warns(RuntimeWarning,
                      match=r"1 malformed lines skipped \(first: line 4: expected 6 fields"):
        assert main(["calibrate", str(log), "--config", str(config),
                     "--out", str(tmp_path / "fit.json")]) == 0


def test_simulate_prints_paths_and_diagnostics(capsys):
    rc = main(["simulate", "--paths", "3", "--expiry", "0.0002", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "path,pi,alive" in out
    assert out.count("\n# diagnostics\n") == 1
    path_lines = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert len(path_lines) >= 3


@pytest.mark.parametrize("measure", ["risk_neutral", "physical"])
def test_simulate_verbose_table_adds_up_to_the_artifact(tmp_path, capsys, measure):
    save_params(demo_params(), tmp_path / "p.json")
    d = json.loads((tmp_path / "p.json").read_text())
    d["sigma_Q_rel(-K)"] *= 8              # a stressed book: aborts
    for bucket in d["buckets"]:
        bucket["sigma_q_rel(k)"] *= 8
    (tmp_path / "config.json").write_text(json.dumps({"model": d,
                                                      "simulate": {"measure": measure}}))
    rc = main(["simulate", "--config", str(tmp_path / "config.json"), "--paths", "60",
               "--expiry", "0.0015", "--seed", "5", "--verbose"])
    assert rc == 0
    captured = capsys.readouterr()
    artifact = dict(line.split(",", 1)
                    for line in captured.out.split("# diagnostics\n")[1].splitlines())
    table = captured.err.split("# per-step diagnostics\n")[1].splitlines()
    assert table[0] == ("step,alive,aborted_top,aborted_bottom,aborted_broken,"
                        "aborted_singular,path0_rel_residual")
    rows = [line.split(",") for line in table[1:] if line[:1].isdigit()]
    assert [int(r[0]) for r in rows] == list(range(int(artifact["n_steps"])))
    columns = {name: [r[i] for r in rows] for i, name in enumerate(table[0].split(","))}
    for column, key in [("aborted_top", "n_aborted_top"),
                        ("aborted_bottom", "n_aborted_bottom"),
                        ("aborted_broken", "n_aborted_broken"),
                        ("aborted_singular", "n_aborted_singular")]:
        assert sum(map(int, columns[column])) == int(artifact[key])
    aborted = sum(int(artifact[k]) for k in ("n_aborted_top", "n_aborted_bottom",
                                             "n_aborted_broken", "n_aborted_singular"))
    assert int(columns["alive"][-1]) == 60 - aborted
    residuals = [float(v) for v in columns["path0_rel_residual"]]
    solved = [v for v in residuals if not math.isnan(v)]
    assert f"{max(solved, default=0.0):.6e}" == artifact["max_rel_residual"]
    if measure == "risk_neutral":
        assert aborted > 0
        assert int(artifact["n_aborted_singular"]) > 0
    else:
        assert np.isnan(residuals).all()


# ----------------------------------------------------------------------
# exit codes

@pytest.mark.parametrize("exc, code", [
    (errors.ConfigError("boom"), 2),
    (errors.ParseError("boom"), 2),
    (errors.OrderError("boom"), 2),
    (errors.GridError("boom"), 2),
    (errors.UndefinedInverseError("boom"), 2),
    (errors.UnknownOrderError("boom"), 2),
    (OSError("boom"), 2),
    (ValueError("boom"), 2),
    (errors.SingularSystemError("boom"), 3),
    (errors.SimulationError("boom"), 4),
    (errors.FitError("boom"), 5),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
def test_error_exit_codes(monkeypatch, capsys, exc, code):
    def fail(args):
        raise exc
    monkeypatch.setattr(cli, "cmd_replay", fail)
    assert main(["replay", "any.log"]) == code
    assert "boom" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["replay", EXAMPLE_LOG, "--seed", "1"],
    ["calibrate", EXAMPLE_LOG, "--seed", "1"],
    ["price", "--verbose"],
    ["smile", "--verbose"],
], ids=["replay--seed", "calibrate--seed", "price--verbose", "smile--verbose"])
def test_flag_the_command_does_not_read_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_missing_log_exits_2(capsys):
    assert main(["replay", "/no/such/file.log"]) == 2


def test_unparseable_strikes_exit_2(capsys):
    assert main(["price", "--strikes", "arbitrage", "--paths", "10",
                 "--expiry", "0.001"]) == 2


@pytest.mark.parametrize("argv", [
    ["smile", "--paths", "10", "--strikes", "nan,20.0"],
    ["price", "--paths", "10", "--expiry", "0.002", "--strikes", "inf"],
], ids=["nan", "inf"])
def test_non_finite_strike_exits_2_before_simulating(argv, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("simulated despite a rejected strike")
    monkeypatch.setattr(cli.pricing, "simulate_ensemble", no_run)
    assert main(argv) == 2
    assert "strikes must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "price", "smile"])
def test_negative_seed_exits_2(command, capsys):
    assert main([command, "--paths", "10", "--expiry", "0.002", "--seed", "-1"]) == 2
    assert "seed must be in [0, 2**64), got -1" in capsys.readouterr().err


def test_broken_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad), "--paths", "2",
                 "--expiry", "0.0002"]) == 2


def test_non_finite_opening_price_exits_2(tmp_path, capsys):
    log = tmp_path / "one.log"
    log.write_text("A,B,%d,x,20.3,5\n" % SESSION_START_NS)
    cfg = tmp_path / "nan.json"
    cfg.write_text(json.dumps({"replay": {"opening_price": "nan"}}))
    assert main(["replay", str(log), "--config", str(cfg)]) == 2
    assert "positive and finite" in capsys.readouterr().err


def test_simulate_step_longer_than_expiry_exits_2(capsys):
    assert main(["simulate", "--paths", "3", "--expiry", "0.0002", "--dt", "0.01"]) == 2
    assert "dt must be in (0, expiry]" in capsys.readouterr().err


def test_calibrate_without_grid_spec_exits_2(tmp_path, capsys):
    log = tmp_path / "tiny.log"
    log.write_text("A,B,%d,x,20.3,5\n" % SESSION_START_NS)
    assert main(["calibrate", str(log)]) == 2


def test_degenerate_noise_exits_3(tmp_path, capsys):
    save_params(demo_params(), tmp_path / "p.json")
    d = json.loads((tmp_path / "p.json").read_text())
    d["buckets"][3]["sigma_q_rel(k)"] = 0.0   # one dead factor among live ones
    (tmp_path / "flat.json").write_text(json.dumps(d))
    rc = main(["simulate", "--config", str(tmp_path / "flat.json"),
               "--paths", "2", "--expiry", "0.0002", "--seed", "0"])
    assert rc == 3


def test_inconsistent_demand_exits_4(tmp_path, capsys):
    save_params(demo_params(), tmp_path / "p.json")
    d = json.loads((tmp_path / "p.json").read_text())
    d["Q(-K,0)"] = 1e20                   # demand positive across the whole grid
    (tmp_path / "huge.json").write_text(json.dumps(d))
    rc = main(["simulate", "--config", str(tmp_path / "huge.json"),
               "--paths", "2", "--expiry", "0.0002", "--seed", "0"])
    assert rc == 4
    assert ("all 2 simulated paths aborted (top 0, bottom 0, broken 2, singular 0)"
            in capsys.readouterr().err)


def test_singular_kill_on_every_path_exits_3(tmp_path, capsys):
    save_params(demo_params(), tmp_path / "p.json")
    d = json.loads((tmp_path / "p.json").read_text())
    d["buckets"][2]["q(k,0)"] = math.exp(-700)   # an all but empty interior bucket
    (tmp_path / "thin.json").write_text(json.dumps(d))
    rc = main(["simulate", "--config", str(tmp_path / "thin.json"),
               "--paths", "2", "--expiry", "0.0002", "--seed", "0"])
    assert rc == 3
    assert "(top 0, bottom 0, broken 0, singular 2)" in capsys.readouterr().err


@pytest.mark.parametrize("grid, message", [
    ({"delta_p": 0}, "delta_p must be positive and finite, got 0.0"),
    ({"delta_p": -0.05}, "delta_p must be positive and finite, got -0.05"),
    ({"delta_p": "nan"}, "delta_p must be positive and finite, got nan"),
    ({"K": 0}, "K must be at least 1, got 0"),
], ids=["delta_p=0", "delta_p<0", "delta_p=nan", "K=0"])
def test_calibrate_rejects_a_bad_grid_with_exit_2(grid, message, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"calibrate": {"pi0": 20.16, "K": 7, "delta_p": 0.05, **grid}}))
    log = str(importlib.resources.files("bookvol") / "data" / "synthetic_session.log")
    assert main(["calibrate", log, "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_too_little_data_exits_5(tmp_path, capsys):
    log = tmp_path / "tiny.log"
    log.write_text("".join(
        "A,B,%d,x%d,20.3,5\n" % (SESSION_START_NS + i, i) for i in range(3)))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"calibrate": {"pi0": 20.0, "K": 2,
                                                "delta_p": 0.1}}))
    assert main(["calibrate", str(log), "--config", str(config)]) == 5


def test_log_outside_the_session_exits_5_naming_the_dropped_messages(tmp_path, capsys):
    log = tmp_path / "early.log"
    log.write_text("A,B,100,x,20.3,5\nA,S,101,y,20.4,5\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"calibrate": {"pi0": 20.0, "K": 2,
                                                "delta_p": 0.1}}))
    assert main(["calibrate", str(log), "--config", str(config)]) == 5
    assert "clean dropped all 2 parsed messages" in capsys.readouterr().err
