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
from bookvol.params import demo_params, params_to_dict, save_params


EXAMPLE_LOG = str(importlib.resources.files("bookvol") / "data" / "example1.log")
DEMO_CONFIG = str(importlib.resources.files("bookvol") / "data" / "demo_config.json")


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


@pytest.mark.parametrize("command", ["replay", "calibrate"])
def test_manifest_hashes_the_log_content_not_its_path(command, tmp_path, capsys):
    """One order size scaled by 1.01 in the log, at the same path, changes
    the manifest's config hash."""
    params = demo_params()
    lines = format_log(synthesize_log(params, 120, seed=5)).splitlines(keepends=True)
    head, size = lines[-1].rstrip("\n").rsplit(",", 1)
    edited = lines[:-1] + [f"{head},{float(size) * 1.01!r}\n"]
    log, out = tmp_path / "session.log", tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"calibrate": {
        "pi0": params.pi0, "K": params.K, "delta_p": params.delta_p,
        "p_min": 19.0, "p_max": 21.5,
    }}))
    digests = []
    for text in ("".join(lines), "".join(edited)):
        log.write_text(text)
        assert main([command, str(log), "--config", str(config), "--out", str(out)]) == 0
        digests.append(json.loads((tmp_path / "out.manifest.json").read_text())["config_sha256"])
    assert digests[0] != digests[1]


@pytest.mark.filterwarnings("default::RuntimeWarning")
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
    fit = tmp_path / "fit.json"
    assert main(["calibrate", str(log), "--config", str(config), "--out", str(fit)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: 1 malformed lines skipped (first: line 4: expected 6 fields, got 1)",
        f"wrote {fit} and {fit}.manifest.json"]


@pytest.mark.filterwarnings("default::RuntimeWarning")
@pytest.mark.parametrize("command", ["replay", "calibrate"])
def test_strict_takes_a_json_boolean_only(command, tmp_path, capsys):
    """false skips a malformed line with a warning, true stops at it, and the
    string "false" is bad input rather than a true value."""
    params = demo_params()
    lines = format_log(synthesize_log(params, 120, seed=5)).splitlines(keepends=True)
    log = tmp_path / "session.log"
    log.write_text("".join(lines[:1] + ["garbage\n"] + lines[1:]))
    grid = {"pi0": params.pi0, "K": params.K, "delta_p": params.delta_p,
            "p_min": 19.0, "p_max": 21.5} if command == "calibrate" else {}
    config = tmp_path / "config.json"

    def run(strict):
        config.write_text(json.dumps({command: {**grid, "strict": strict}}))
        code = main([command, str(log), "--config", str(config), "--out", str(tmp_path / "out")])
        return code, capsys.readouterr().err

    code, err = run(False)
    assert code == 0 and "warning: 1 malformed lines skipped" in err
    code, err = run(True)
    assert code == 2 and err.startswith("error: line 2: ")
    assert run("false") == (2, f"error: {command}.strict must be true or false, got 'false'\n")


@pytest.mark.parametrize("argv, config, message", [
    (["simulate"], {"simulate": {"paths": 2.7}}, "simulate.paths must be an integer, got 2.7"),
    (["simulate"], {"simulate": {"paths": True}}, "simulate.paths must be an integer, got True"),
    (["simulate"], {"simulate": {"seed": 1.5}}, "simulate.seed must be an integer, got 1.5"),
    (["price"], {"sheet": {"seed": 0.5}}, "sheet.seed must be an integer, got 0.5"),
    (["smile"], {"pricing": {"paths": "40"}}, "pricing.paths must be an integer, got '40'"),
    (["calibrate", "session.log"], {"calibrate": {"pi0": 20.16, "K": 7.5, "delta_p": 0.05}},
     "calibrate.K must be an integer, got 7.5"),
], ids=["paths-fraction", "paths-bool", "seed-fraction", "sheet-seed", "paths-string", "K"])
def test_config_integer_that_is_not_one_exits_2(argv, config, message, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    (tmp_path / "session.log").write_text("A,B,%d,x,20.3,5\n" % SESSION_START_NS)
    argv = [str(tmp_path / a) if a.endswith(".log") else a for a in argv]
    assert main(argv + ["--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


_CALIBRATE_GRID = {"pi0": 20.16, "K": 7, "delta_p": 0.05}


@pytest.mark.parametrize("argv, config, message", [
    (["price"], {"pricing": {"expiry": True}}, "pricing.expiry must be a number, got True"),
    (["smile"], {"pricing": {"dt": "0.0001"}}, "pricing.dt must be a number, got '0.0001'"),
    (["simulate"], {"simulate": {"expiry": "0.02"}},
     "simulate.expiry must be a number, got '0.02'"),
    (["simulate"], {"simulate": {"dt": False}}, "simulate.dt must be a number, got False"),
    (["simulate"], {"simulate": {"expiry": 10**400}},
     f"simulate.expiry must be a number, got {10**400}"),
    (["price"], {"pricing": {"strikes": 20.0}},
     "pricing.strikes must be a list of numbers, got 20.0"),
    (["smile"], {"pricing": {"strikes": "20"}},
     "pricing.strikes must be a list of numbers, got '20'"),
    (["price"], {"pricing": {"strikes": [20.0, True]}},
     "pricing.strikes[1] must be a number, got True"),
    (["calibrate", "session.log"], {"calibrate": {**_CALIBRATE_GRID, "pi0": "20.16"}},
     "calibrate.pi0 must be a number, got '20.16'"),
    (["calibrate", "session.log"], {"calibrate": {**_CALIBRATE_GRID, "delta_p": True}},
     "calibrate.delta_p must be a number, got True"),
    (["calibrate", "session.log"], {"calibrate": {**_CALIBRATE_GRID, "p_min": "19"}},
     "calibrate.p_min must be a number, got '19'"),
    (["calibrate", "session.log"], {"calibrate": {**_CALIBRATE_GRID, "p_max": [21.5]}},
     "calibrate.p_max must be a number, got [21.5]"),
    (["replay", "session.log"], {"replay": {"opening_price": "20.3"}},
     "replay.opening_price must be a number, got '20.3'"),
    (["simulate"], {"simulate": {"expiry": math.inf}},
     "expiry must be positive and finite, got inf"),
], ids=["pricing-expiry", "pricing-dt", "simulate-expiry", "simulate-dt", "expiry-overflow",
        "strikes-number", "strikes-string", "strike-bool", "pi0", "delta_p", "p_min",
        "p_max", "opening_price", "expiry-inf"])
def test_config_number_that_is_not_one_exits_2(argv, config, message, tmp_path, capsys):
    """A boolean or a string is not read as a number: `"expiry": true` is not
    one year, and `"strikes": "20"` is not the strikes (2, 0)."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    (tmp_path / "session.log").write_text("A,B,%d,x,20.3,5\n" % SESSION_START_NS)
    argv = [str(tmp_path / a) if a.endswith(".log") else a for a in argv]
    assert main(argv + ["--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("edit, message", [
    (lambda d: {**d, "K": 7.5}, "K must be an integer, got 7.5"),
    (lambda d: {**d, "buckets": 3}, "buckets must be a list of objects, one per bucket"),
    (lambda d: [d], "model must be a JSON object, got list"),
    (lambda d: {**d, "pi(0)": math.nan}, "pi0 must be finite, got nan"),
    (lambda d: {**d, "buckets": d["buckets"][:7] + [{**d["buckets"][7], "k": True}]
                + d["buckets"][8:]}, "buckets[7].k must be an integer, got True"),
    (lambda d: {**d, "c": None}, "c must be a number, got None"),
], ids=["K-fraction", "buckets-number", "model-list", "pi0-nan", "k-true", "c-null"])
def test_malformed_model_exits_2(edit, message, tmp_path, capsys):
    """A `"K": 7.5` model no longer runs as K = 7, `"k": true` is not bucket
    1, a NaN is not a price, and a model of the wrong shape or type is a
    named error rather than a traceback."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": edit(params_to_dict(demo_params()))}))
    assert main(["simulate", "--config", str(path), "--paths", "2",
                 "--expiry", "0.0002"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_unknown_config_sections_and_keys_warn(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"simulate": {"pathz": 3}, "simulation": {}}))
    rc = main(["simulate", "--config", str(config), "--paths", "5", "--expiry", "0.0003"])
    assert rc == 0
    err = capsys.readouterr().err.splitlines()
    assert "warning: ignoring unknown config sections ['simulation']" in err
    assert "warning: ignoring unknown config keys ['simulate.pathz']" in err

    # the bundled config holds only keys the commands read
    assert main(["replay", EXAMPLE_LOG, "--config", DEMO_CONFIG]) == 0
    assert "unknown config" not in capsys.readouterr().err


def test_unknown_model_keys_warn(tmp_path, capsys):
    """A misspelled `c` or an extra bucket-entry key in a model, in a config
    or in a bare parameter file, is named like any unknown key; the demo
    parameters, as a model section or bare, draw no warning."""
    model = params_to_dict(demo_params())
    probe = {**{k: v for k, v in model.items() if k != "c"}, "C": 0.5,
             "buckets": [{**model["buckets"][0], "sigma_q_rel(K)": 0.1}, *model["buckets"][1:]]}
    assert model["buckets"][0]["k"] == -6
    warned = ("warning: ignoring unknown config keys "
              "['model.C', 'model.buckets[k=-6].sigma_q_rel(K)']")
    for name, config, warns in (("probe", {"model": probe}, True), ("bare", probe, True),
                                ("demo", {"model": model}, False), ("demo_bare", model, False)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(path), "--paths", "2",
                     "--expiry", "0.0002"]) == 0
        err = capsys.readouterr().err
        assert (warned in err.splitlines()) == warns
        assert ("unknown config" in err) == warns


@pytest.mark.parametrize("command", ["price", "smile"])
def test_pricing_rate_is_an_unknown_key(command, tmp_path, capsys):
    """Under Q π is a martingale, so pricing has no rate: a config that still
    sets one is warned about like any other unknown key, and its quotes are
    those of the same config without it."""
    quotes = {"strikes": [19.9, 20.2], "paths": 20, "expiry": 0.0002}
    for name, section in (("a", {**quotes, "rate": 0.05}), ("b", quotes)):
        (tmp_path / f"{name}.json").write_text(json.dumps({"pricing": section}))
        assert main([command, "--config", str(tmp_path / f"{name}.json"),
                     "--out", str(tmp_path / f"{name}.csv")]) == 0
        warned = "warning: ignoring unknown config keys ['pricing.rate']"
        assert (warned in capsys.readouterr().err.splitlines()) == (name == "a")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_config_integer_may_be_written_as_a_whole_float(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"simulate": {"paths": 2.0, "seed": 3.0, "expiry": 0.0002}}))
    assert main(["simulate", "--config", str(path)]) == 0
    assert "n_paths,2\n" in capsys.readouterr().out


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
    assert f"{max(solved, default=math.nan):.6e}" == artifact["max_rel_residual"]
    if measure == "risk_neutral":
        assert aborted > 0
        assert int(artifact["n_aborted_singular"]) > 0
    else:
        assert np.isnan(residuals).all() and artifact["max_rel_residual"] == "nan"


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
    cfg.write_text(json.dumps({"replay": {"opening_price": math.nan}}))      # JSON NaN
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_edge_exits_4_without_a_warning(tmp_path, capsys):
    save_params(demo_params(), tmp_path / "p.json")
    d = json.loads((tmp_path / "p.json").read_text())
    d["Q(-K,0)"] = 1e300                  # overflows the path-0 residual too
    (tmp_path / "huge.json").write_text(json.dumps(d))
    rc = main(["simulate", "--config", str(tmp_path / "huge.json"),
               "--paths", "2", "--expiry", "0.0002", "--seed", "0"])
    assert rc == 4
    err = capsys.readouterr().err
    assert "(top 0, bottom 0, broken 2, singular 0)" in err
    assert "warning" not in err


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
    ({"delta_p": math.nan}, "delta_p must be positive and finite, got nan"),
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
