import json
import subprocess
import sys

import pytest

import lqgames as lq
from lqgames import fileio
from lqgames.cli import main, parse_config, UsageError
from lqgames.experiments import _rng_for, random_game


def assert_manifest_lists_every_file(out):
    manifest = json.loads((out / "manifest.json").read_text())
    listed = {p.rsplit("/", 1)[-1] for p in manifest["artifacts"]}
    assert {p.name for p in out.iterdir()} == listed | {"manifest.json"}


@pytest.fixture()
def fig1_files(tmp_path, fig1_game):
    game_path = tmp_path / "fig1.json"
    fileio.write_game(fig1_game, game_path)
    term_path = tmp_path / "terminal.json"
    fileio.write_ptuple(lq.PTuple([1.0, 1.0]), term_path)
    return game_path, term_path


def test_parse_config_flag_wins_over_file(tmp_path, fig1_files):
    game_path, term_path = fig1_files
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"horizon": 10, "game": str(game_path)}))
    config = parse_config(["run", "--config", str(cfg),
                           "--terminal", str(term_path),
                           "--horizon", "20"])
    assert config.params["horizon"] == 20           # flag beats file
    assert config.params["game"] == str(game_path)  # file beats default


def test_parse_config_unknown_key_named(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"horizzon": 10}))
    with pytest.raises(UsageError, match="horizzon"):
        parse_config(["classify", "--config", str(cfg), "--game", "g",
                      "--terminal", "t"])


@pytest.mark.parametrize("entries, name", [
    ({"horizon": 2.9}, "horizon"),
    ({"horizon": True}, "horizon"),
    ({"conv-tol": False}, "conv-tol"),
    ({"horizon": "x"}, "horizon"),
], ids=["fraction", "bool-int", "bool-float", "text"])
def test_config_entries_of_wrong_type_are_usage_errors(
        tmp_path, fig1_files, capsys, entries, name):
    game_path, term_path = fig1_files
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entries))
    out = tmp_path / "o"
    rc = main(["run", "--game", str(game_path), "--terminal", str(term_path),
               "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert f"config entry '{name}'" in capsys.readouterr().err
    assert not out.exists()


def test_config_numbers_that_fit_their_type_are_accepted(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"horizon": 20.0, "conv-tol": 0}))
    params = parse_config(["run", "--config", str(cfg), "--game", "g",
                           "--terminal", "t"]).params
    assert params["horizon"] == 20 and type(params["horizon"]) is int
    assert params["conv-tol"] == 0.0 and type(params["conv-tol"]) is float


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-9],
                         ids=["nan", "inf", "negative"])
def test_conv_tol_must_be_finite_and_nonnegative(tmp_path, fig1_files, capsys,
                                                 value, source):
    game_path, term_path = fig1_files
    out = tmp_path / "o"
    argv = ["run", "--game", str(game_path), "--terminal", str(term_path),
            "--horizon", "50", "--out", str(out)]
    if source == "flag":
        argv.append(f"--conv-tol={value!r}")
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"conv-tol": value}))
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    assert "conv-tol" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [
    ("classify", ["--cycle-tol", "1e-8"]),
    ("verify-cycle", ["--tol", "1e-8"]),
], ids=["classify-cycle-tol", "verify-cycle-tol"])
def test_removed_tolerance_flags_are_rejected(tmp_path, fig1_files, capsys,
                                              command, extra):
    game_path, term_path = fig1_files
    phases_path = tmp_path / "phases.json"
    phases_path.write_text(json.dumps({"phases": [[1.0, 1.0], [1.0, 1.0]]}))
    out = tmp_path / "o"
    assert main(_game_command(command, game_path, term_path, phases_path)
                + extra + ["--out", str(out)]) == 2
    assert extra[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, code, message", [
    ([], 2, "required: command"),
    (["run", "--horizon"], 2, "expected one argument"),
    (["run", "--horizon", "ten"], 2, "invalid int value"),
    (["--help"], 0, "usage: lqgames"),
], ids=["no-command", "flag-without-value", "non-integer", "help"])
def test_argparse_exit_status_is_returned(tmp_path, monkeypatch, capsys,
                                          argv, code, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert message in (captured.err if code else captured.out)
    assert not any(tmp_path.iterdir())


def test_removed_config_key_is_unknown(tmp_path, fig1_files, capsys):
    game_path, term_path = fig1_files
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max-period": 50}))
    out = tmp_path / "o"
    rc = main(["classify", "--game", str(game_path), "--terminal",
               str(term_path), "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert "unknown config key 'max-period'" in capsys.readouterr().err
    assert not out.exists()


def test_missing_game_file_is_usage_error(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["validate", "--game", str(tmp_path / "nope.json"),
               "--out", str(out)])
    assert rc == 2
    assert "nope.json" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "equilibria"])
def test_game_keys_disagreeing_with_matrices_are_usage_errors(
        tmp_path, fig1_files, capsys, command):
    game_path, _ = fig1_files
    doc = json.loads(game_path.read_text())
    doc["num_agents"] = 5
    game_path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    rc = main([command, "--game", str(game_path), "--out", str(out)])
    assert rc == 2
    assert "num_agents 5" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_equilibria_method_is_usage_error(tmp_path, fig1_files,
                                                  capsys):
    game_path, _ = fig1_files
    out = tmp_path / "o"
    # The command picks the method from the game, so --method is no flag.
    rc = main(["equilibria", "--game", str(game_path), "--method",
               "descent", "--out", str(out)])
    assert rc == 2
    assert "unrecognized arguments: --method" in capsys.readouterr().err
    assert not out.exists()


def test_missing_required_flag_exits_2(tmp_path):
    rc = main(["classify", "--terminal", "t.json",
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_validate_command(tmp_path, fig1_files, capsys):
    game_path, _ = fig1_files
    out = tmp_path / "out"
    rc = main(["validate", "--game", str(game_path), "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "validation.json").read_text())
    assert doc["ok"] and doc["stabilizable"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "validate"
    assert manifest["artifacts"] == [str(out / "validation.json")]


def test_validate_bad_game_exits_1(tmp_path):
    game = lq.GameSpec(2, [[0]], [1], [1])
    path = tmp_path / "bad.json"
    fileio.write_game(game, path)
    rc = main(["validate", "--game", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1


def test_run_command_cor1_property(tmp_path, fig1_game, fig1_equilibria):
    # running from an equilibrium terminal stays on it
    game_path = tmp_path / "fig1.json"
    fileio.write_game(fig1_game, game_path)
    eq_path = tmp_path / "eq0.json"
    fileio.write_ptuple(fig1_equilibria.points[0].p, eq_path)
    out = tmp_path / "out"
    rc = main(["run", "--game", str(game_path), "--terminal", str(eq_path),
               "--horizon", "50", "--conv-tol", "0", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "termination.json").read_text())
    assert doc["reason"] == "completed"
    assert doc["steps"] == 50
    assert doc["final_residual"] < 1e-8
    lines = (out / "trace.csv").read_text().splitlines()
    # all P columns equal across steps (pinned recursion)
    rows = [l.split(",") for l in lines[2:]]
    agent0 = [r for r in rows if r[1] == "0"]
    assert len({r[2] for r in agent0}) == 1
    assert_manifest_lists_every_file(out)


def test_classify_command(tmp_path, fig1_files, capsys):
    game_path, term_path = fig1_files
    out = tmp_path / "out"
    rc = main(["classify", "--game", str(game_path),
               "--terminal", str(term_path), "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "classification.json").read_text())
    assert doc["verdict"] == "converged"
    assert "fixed_point" in doc
    assert capsys.readouterr().out.count("resolved_config") == 1
    assert_manifest_lists_every_file(out)


def test_equilibria_command_three_rows(tmp_path, fig1_files):
    game_path, _ = fig1_files
    out = tmp_path / "out"
    rc = main(["equilibria", "--game", str(game_path), "--out", str(out)])
    assert rc == 0
    lines = [l for l in (out / "equilibria.csv").read_text().splitlines()
             if l and not l.startswith("#")]
    assert len(lines) == 4      # header + 3 equilibria
    assert_manifest_lists_every_file(out)


def test_equilibria_command_reports_discarded_fixed_points(tmp_path,
                                                           capsys):
    # Descent on this (3, 3, 2) game also converges on two fixed points
    # whose closed loop is unstable; the command says so and records the
    # search metadata, while its first line keeps its form.
    game_path = tmp_path / "game.json"
    fileio.write_game(random_game(3, 3, 2, _rng_for(77, 1, 4)), game_path)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["equilibria", "--game", str(game_path),
                 "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()[-2:]
    assert lines == ["1 stationary equilibria (descent)",
                     "fixed points discarded: 2 unstable, "
                     "0 failed verification"]
    meta = json.loads((out / "manifest.json").read_text())["search_metadata"]
    assert (meta["accepted"], meta["unstable_discarded"],
            meta["verification_failed"]) == (1, 2, 0)
    assert_manifest_lists_every_file(out)


def test_basin_command_small_grid(tmp_path, fig1_files):
    game_path, _ = fig1_files
    out = tmp_path / "out"
    rc = main(["basin", "--game", str(game_path), "--grid", "6",
               "--range", "0.3:30", "--out", str(out)])
    assert rc == 0
    lines = [l for l in (out / "basin.csv").read_text().splitlines()
             if l and not l.startswith("#")]
    assert len(lines) == 1 + 36
    assert all("converged" in l for l in lines[1:])
    assert_manifest_lists_every_file(out)


def test_ensemble_command(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["ensemble", "--cells", "1,1,2", "--trials", "10",
               "--seed", "3", "--horizon", "2000", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "converged to an equilibrium point" in text
    lines = (out / "ensemble.csv").read_text().splitlines()
    assert lines[0].startswith("# ")
    assert "seed=3" in lines[0]
    assert_manifest_lists_every_file(out)


def test_census_and_verify_cycle_commands(tmp_path, found_cycle):
    game, _, cert = found_cycle
    out = tmp_path / "census"
    rc = main(["census", "--cells", "2,2,2", "--target", "1", "--seed", "0",
               "--out", str(out)])
    assert rc == 0
    csv_lines = (out / "census.csv").read_text().splitlines()
    assert len(csv_lines) >= 3
    assert_manifest_lists_every_file(out)

    # verify-cycle on the certificate's phases
    game_path = tmp_path / "game.json"
    fileio.write_game(game, game_path)
    cert_path = tmp_path / "cert.json"
    fileio.write_certificate_json(cert, cert_path)
    out2 = tmp_path / "verify"
    rc = main(["verify-cycle", "--game", str(game_path),
               "--phases", str(cert_path), "--out", str(out2)])
    assert rc == 0
    doc = json.loads((out2 / "certificate.json").read_text())
    assert doc["period"] == cert.period
    assert doc["product_spectral_radius"] < 1.0
    assert_manifest_lists_every_file(out2)

    # corrupted phases fail certification with exit 1
    bad = tmp_path / "bad.json"
    phases = json.loads(cert_path.read_text())["phases"]
    phases[0][0][0][0] += 1.0
    bad.write_text(json.dumps({"phases": phases}))
    rc = main(["verify-cycle", "--game", str(game_path),
               "--phases", str(bad), "--out", str(tmp_path / "v2")])
    assert rc == 1
    assert not (tmp_path / "v2").exists()


def test_simulate_command_reproducible(tmp_path, fig1_files):
    game_path, term_path = fig1_files
    args = ["simulate", "--game", str(game_path), "--terminal",
            str(term_path), "--horizon", "20", "--x0", "1"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert (out_a / "trajectory.csv").read_text() \
        == (out_b / "trajectory.csv").read_text()
    manifest = json.loads((out_a / "manifest.json").read_text())
    names = {p.rsplit("/", 1)[-1] for p in manifest["artifacts"]}
    assert {"trajectory.csv", "gain_series.csv",
            "value_distance_series.csv", "closed_loop_spectra.csv"} <= names
    assert_manifest_lists_every_file(out_a)


def test_simulate_horizon_beyond_full_storage_is_usage_error(
        tmp_path, fig1_files, capsys):
    game_path, term_path = fig1_files
    args = ["simulate", "--game", str(game_path), "--terminal",
            str(term_path)]
    limit = lq.riccati.FULL_STORAGE_LIMIT
    assert parse_config(args + ["--horizon", str(limit)])
    out = tmp_path / "o"
    rc = main(args + ["--horizon", str(limit + 1), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "usage error" in err and str(limit) in err
    assert not out.exists()         # rejected before any output or step


def test_cli_subprocess_entry(tmp_path, fig1_files):
    game_path, _ = fig1_files
    out = tmp_path / "sub"
    proc = subprocess.run(
        [sys.executable, "-m", "lqgames.cli", "validate",
         "--game", str(game_path), "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "resolved_config" in proc.stdout

    proc = subprocess.run(
        [sys.executable, "-m", "lqgames.cli", "validate", "--nonsense", "x"],
        capture_output=True, text=True)
    assert proc.returncode == 2


# Runs in a fresh interpreter, so no other test has imported scipy.linalg or
# scipy.optimize; argv[1] is a directory for the files `run` writes.
_LAZY_OPTIMIZE = """
import sys
from pathlib import Path
import lqgames as lq, lqgames.cli
from lqgames.experiments import run_basin_grid, run_ensemble

def loaded(*prefixes):
    return sorted(m for m in sys.modules if m.startswith(prefixes))

HEAVY = ("scipy.linalg", "scipy.optimize", "numpy.f2py", "numpy.testing")
tmp = Path(sys.argv[1])
fig1 = lq.GameSpec(5, [1, 1], [1, 1], [1, 2])
assert lq.classify(fig1, lq.PTuple([1.0, 1.0])).verdict == "converged"
run_basin_grid(fig1, axis_samples=3)
run_ensemble([(1, 1, 2)], 3, 0)
lq.write_game(fig1, tmp / "fig1.json")
lq.write_ptuple(lq.PTuple([1.0, 1.0]), tmp / "terminal.json")
assert lqgames.cli.main(["run", "--game", str(tmp / "fig1.json"),
                         "--terminal", str(tmp / "terminal.json"),
                         "--out", str(tmp / "run")]) == 0
assert not loaded(*HEAVY), loaded(*HEAVY)
lq.residual_descent_search(fig1, restarts=0)
assert "scipy.optimize" in loaded("scipy.optimize")
assert "scipy.linalg" in loaded("scipy.linalg")
"""


def test_scipy_optimize_loads_only_for_descent(tmp_path):
    proc = subprocess.run([sys.executable, "-c", _LAZY_OPTIMIZE,
                           str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_output_dir_not_clobbered(tmp_path, fig1_files):
    game_path, _ = fig1_files
    out = tmp_path / "out"
    assert main(["validate", "--game", str(game_path), "--out", str(out)]) == 0
    assert main(["validate", "--game", str(game_path), "--out", str(out)]) == 0
    assert (tmp_path / "out-2").exists()


@pytest.mark.parametrize("entries", [[float("nan"), 1.0], [-3.0, 1.0]],
                         ids=["nan", "indefinite"])
@pytest.mark.parametrize("command", ["run", "classify", "simulate"])
def test_bad_terminal_is_usage_error(tmp_path, fig1_files, capsys, command,
                                     entries):
    game_path, _ = fig1_files
    term_path = tmp_path / "bad_terminal.json"
    fileio.write_ptuple(lq.PTuple(entries), term_path)
    rc = main([command, "--game", str(game_path), "--terminal",
               str(term_path), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "invalid terminal cost" in err and "P[0]" in err
    assert not (tmp_path / "o").exists()


def test_unreadable_terminal_is_usage_error(tmp_path, fig1_files):
    game_path, _ = fig1_files
    term_path = tmp_path / "terminal.json"
    term_path.write_text("{not json")
    rc = main(["classify", "--game", str(game_path), "--terminal",
               str(term_path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args", [
    ["ensemble", "--cells", "1,1,x"],
    ["ensemble", "--cells", "0,1,2"],
    ["ensemble", "--trials", "-3"],
    ["census", "--target", "0"],
    ["run", "--horizon", "-5"],
    ["simulate", "--x0", "1,2"],
    ["simulate", "--x0", "x"],
], ids=["cell-not-int", "cell-zero", "trials-negative", "target-zero",
        "horizon-negative", "x0-length", "x0-not-numeric"])
def test_malformed_numbers_are_usage_errors(tmp_path, fig1_files, capsys,
                                            args):
    game_path, term_path = fig1_files
    files = ["--game", str(game_path), "--terminal", str(term_path)]
    rc = main(args + (files if args[0] in ("run", "simulate") else [])
              + ["--out", str(tmp_path / "o")])
    assert rc == 2
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text", ["-5:1", "5:1", "30", "0.3:inf"])
def test_basin_range_must_be_positive_interval(tmp_path, fig1_files, capsys,
                                               text):
    game_path, _ = fig1_files
    rc = main(["basin", "--game", str(game_path), "--grid", "2",
               f"--range={text}", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "--range" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _game_command(command, game_path, term_path, phases_path):
    extra = {"run": ["--terminal", str(term_path), "--horizon", "5"],
             "classify": ["--terminal", str(term_path)],
             "simulate": ["--terminal", str(term_path), "--horizon", "5"],
             "basin": ["--grid", "2"],
             "verify-cycle": ["--phases", str(phases_path)]}
    return [command, "--game", str(game_path)] + extra.get(command, [])


GAME_COMMANDS = ["run", "classify", "simulate", "basin", "equilibria",
                 "verify-cycle"]


@pytest.mark.parametrize("command", GAME_COMMANDS)
def test_invalid_game_is_usage_error(tmp_path, fig1_files, capsys, command):
    _, term_path = fig1_files
    game_path = tmp_path / "negative_r.json"
    fileio.write_game(lq.GameSpec(5, [1, 1], [1, 1], [-1, 2]), game_path)
    phases_path = tmp_path / "phases.json"
    phases_path.write_text(json.dumps({"phases": [[1.0, 1.0], [1.0, 1.0]]}))
    rc = main(_game_command(command, game_path, term_path, phases_path)
              + ["--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "invalid game" in err and "R[0]" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["validate"] + GAME_COMMANDS)
def test_unreadable_game_is_usage_error(tmp_path, fig1_files, capsys,
                                       command):
    _, term_path = fig1_files
    game_path = tmp_path / "game.json"
    game_path.write_text("{not json")
    rc = main(_game_command(command, game_path, term_path, term_path)
              + ["--out", str(tmp_path / "o")])
    assert rc == 2
    assert "unreadable" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, needle", [
    ("{not json", "unreadable"),
    (json.dumps({"phases": [[1.0], [2.0]]}), "2 agents"),
    (json.dumps({"phases": [[[[1.0, 0.0]]] * 2] * 2}), "shape"),
    (json.dumps({"phases": [[1.0, 1.0], [1e999, 1.0]]}), "non-finite"),
    (json.dumps({"phases": []}), "at least one phase"),
], ids=["unreadable", "one-agent", "wrong-shape", "non-finite", "no-phase"])
def test_malformed_phases_are_usage_errors(tmp_path, fig1_files, capsys,
                                           text, needle):
    game_path, _ = fig1_files
    phases_path = tmp_path / "phases.json"
    phases_path.write_text(text)
    rc = main(["verify-cycle", "--game", str(game_path), "--phases",
               str(phases_path), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "usage error" in err and needle in err
    assert not (tmp_path / "o").exists()


def test_verify_cycle_certifies_one_phase(tmp_path, fig1_files,
                                          fig1_equilibria):
    # a stationary equilibrium is a cycle of period one
    game_path, _ = fig1_files
    phases_path = tmp_path / "phases.json"
    phases_path.write_text(json.dumps(
        {"phases": [[m.tolist() for m in fig1_equilibria.points[0].p]]}))
    out = tmp_path / "o"
    rc = main(["verify-cycle", "--game", str(game_path), "--phases",
               str(phases_path), "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "certificate.json").read_text())
    assert doc["period"] == 1
    assert doc["product_spectral_radius"] < 1.0
    assert_manifest_lists_every_file(out)


def test_verify_cycle_singular_stage_fails_certification(tmp_path,
                                                         fig1_files, capsys):
    # at (-1, 0) the Fig. 1 stage matrix has determinant 2 + p2 + 2 p1 = 0
    game_path, _ = fig1_files
    phases_path = tmp_path / "phases.json"
    phases_path.write_text(json.dumps({"phases": [[-1.0, 0.0]] * 2}))
    rc = main(["verify-cycle", "--game", str(game_path), "--phases",
               str(phases_path), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("certification failed: stage-gain system singular")
    assert not (tmp_path / "o").exists()
