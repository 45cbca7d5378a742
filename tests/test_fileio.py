import csv
import json

import numpy as np
import pytest

import lqgames as lq
from lqgames import fileio
from lqgames.experiments import _rng_for, random_game


def test_game_round_trip_bitwise(tmp_path):
    rng = _rng_for(3, 0)
    game = random_game(3, 2, 2, rng)
    path = tmp_path / "game.json"
    fileio.write_game(game, path)
    back = fileio.read_game(path)
    assert np.array_equal(game.A, back.A)
    for a, b in zip(game.B, back.B):
        assert np.array_equal(a, b)
    for a, b in zip(game.Q, back.Q):
        assert np.array_equal(a, b)
    for a, b in zip(game.R, back.R):
        assert np.array_equal(a, b)
    assert np.array_equal(game.W, back.W)


def test_game_file_key_names(tmp_path):
    game = lq.GameSpec(5, [1, 1], [1, 1], [1, 2])
    path = tmp_path / "game.json"
    fileio.write_game(game, path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"n", "num_agents", "input_dims", "A", "B", "Q", "R", "W"}
    assert doc["n"] == 1
    assert doc["num_agents"] == 2
    assert doc["input_dims"] == [1, 1]
    assert doc["A"] == [[5.0]]
    assert doc["R"] == [[[1.0]], [[2.0]]]


def test_game_file_missing_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 1, "A": [[1.0]]}))
    with pytest.raises(ValueError, match="missing keys"):
        fileio.read_game(path)


def test_ptuple_round_trip(tmp_path):
    p = lq.PTuple([np.array([[1.25, 0.5], [0.5, 3.75]]), np.eye(2) * np.pi])
    path = tmp_path / "p.json"
    fileio.write_ptuple(p, path)
    back = fileio.read_ptuple(path)
    for a, b in zip(p, back):
        assert np.array_equal(np.asarray(a), np.asarray(b))


def test_trace_csv_layout(tmp_path, fig1_game):
    trace = lq.run_recursion(fig1_game, lq.PTuple([1.0, 1.0]), 5)
    path = tmp_path / "trace.csv"
    fileio.write_trace_csv(trace, path, {"seed": 0, "tol": 1e-9})
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# seed=0")
    assert lines[1].split(",")[:2] == ["step", "agent"]
    # 6 states x 2 agents rows
    assert len(lines) == 2 + 6 * 2


def test_trace_csv_round_trip_exact(tmp_path):
    rng = _rng_for(0, 0, 0)
    game = random_game(3, 2, 2, rng)
    trace = lq.run_recursion(game, lq.random_terminal(game, rng), 30)
    path = tmp_path / "trace.csv"
    fileio.write_trace_csv(trace, path, {"seed": 0})
    with open(path, newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    header, body = rows[0], rows[1:]
    assert len(body) == len(trace) * game.num_agents
    n_p = game.n * game.n
    for row in body:
        s, i = int(row[0]), int(row[1])
        assert [float(v) for v in row[2:2 + n_p]] \
            == np.asarray(trace.p_states[s][i]).ravel().tolist()
        kcols = row[2 + n_p:]
        assert len(kcols) == len(header) - 2 - n_p
        if s < len(trace.gains):
            assert [float(v) for v in kcols] \
                == np.asarray(trace.gains[s][i]).ravel().tolist()
        else:
            assert kcols == [""] * len(kcols)


def test_termination_json(tmp_path, fig1_game):
    trace = lq.run_recursion(fig1_game, lq.PTuple([1.0, 1.0]), 50,
                             stop=lq.ConvergenceStop())
    path = tmp_path / "term.json"
    fileio.write_termination_json(trace.terminated, path)
    doc = json.loads(path.read_text())
    assert doc["reason"] == "converged"
    assert set(doc) >= {"reason", "steps", "final_residual"}


def test_certificate_round_trip_phases(tmp_path, found_cycle):
    game, _, cert = found_cycle
    path = tmp_path / "cert.json"
    fileio.write_certificate_json(cert, path)
    phases = fileio.read_phases(path)
    assert len(phases) == cert.period
    again = lq.verify_cycle(phases, game)
    assert again.period == cert.period


def test_equilibria_csv(tmp_path, fig1_game, fig1_equilibria):
    path = tmp_path / "eq.csv"
    fileio.write_equilibria_csv(fig1_equilibria, fig1_game, path,
                                {"seed": 0})
    lines = [l for l in path.read_text().splitlines()
             if l and not l.startswith("#")]
    assert len(lines) == 1 + 3
    header = lines[0].split(",")
    assert "closed_loop_spectral_radius" in header


def test_float_round_trip_through_csv_repr():
    values = [np.pi, 1 / 3, 1e-17, 123456.789012345678]
    for v in values:
        assert float(repr(v)) == v
