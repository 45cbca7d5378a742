import json
import subprocess
import sys

import pytest

import lqgames as lq
from lqgames import fileio
from lqgames.cli import main, parse_config, UsageError


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


def test_missing_game_file_is_usage_error(tmp_path, capsys):
    rc = main(["validate", "--game", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "nope.json" in capsys.readouterr().err


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
    assert manifest["artifacts"]


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


def test_equilibria_command_three_rows(tmp_path, fig1_files):
    game_path, _ = fig1_files
    out = tmp_path / "out"
    rc = main(["equilibria", "--game", str(game_path), "--out", str(out)])
    assert rc == 0
    lines = [l for l in (out / "equilibria.csv").read_text().splitlines()
             if l and not l.startswith("#")]
    assert len(lines) == 4      # header + 3 equilibria


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


def test_census_and_verify_cycle_commands(tmp_path, found_cycle):
    game, _, cert = found_cycle
    out = tmp_path / "census"
    rc = main(["census", "--cells", "2,2,2", "--target", "1", "--seed", "0",
               "--out", str(out)])
    assert rc == 0
    csv_lines = (out / "census.csv").read_text().splitlines()
    assert len(csv_lines) >= 3

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

    # corrupted phases fail certification with exit 1
    bad = tmp_path / "bad.json"
    phases = json.loads(cert_path.read_text())["phases"]
    phases[0][0][0][0] += 1.0
    bad.write_text(json.dumps({"phases": phases}))
    rc = main(["verify-cycle", "--game", str(game_path),
               "--phases", str(bad), "--out", str(tmp_path / "v2")])
    assert rc == 1


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


def test_unreadable_terminal_is_usage_error(tmp_path, fig1_files):
    game_path, _ = fig1_files
    term_path = tmp_path / "terminal.json"
    term_path.write_text("{not json")
    rc = main(["classify", "--game", str(game_path), "--terminal",
               str(term_path), "--out", str(tmp_path / "o")])
    assert rc == 2
