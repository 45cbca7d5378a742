import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lqgames as lq
from lqgames import fileio
from lqgames.experiments import _rng_for, random_game
from lqgames.riccati import FULL_STORAGE_LIMIT
from test_contracts import games, mixed_games


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


def _oracle_trace_csv(trace, path, provenance=None):
    """The trace export as csv.writer over per-agent entries: the
    reference the stack-reading export must match byte for byte."""
    with open(path, "w", newline="") as fh:
        if provenance:
            fh.write(fileio.provenance_line(**provenance) + "\n")
        w = csv.writer(fh)
        n = trace.p_states[0][0].shape[0]
        m_max = max((k.shape[0] for k in trace.gains[0]), default=0) \
            if trace.gains else 0
        w.writerow(["step", "agent"]
                   + [f"p_{r}_{c}" for r in range(n) for c in range(n)]
                   + [f"k_{r}_{c}" for r in range(m_max) for c in range(n)])
        blank = [""] * (m_max * n)
        for s, p in enumerate(trace.p_states):
            k = trace.gains[s] if s < len(trace.gains) else None
            for i, Pi in enumerate(p):
                row = [trace.first_step + s, i]
                row += map(repr, Pi.ravel().tolist())
                if k is None:
                    row += blank
                else:
                    kcols = list(map(repr, k[i].ravel().tolist()))
                    row += kcols
                    row += blank[len(kcols):]
                w.writerow(row)


def _assert_trace_bytes(trace, tmp_path, provenance=None):
    fileio.write_trace_csv(trace, tmp_path / "trace.csv", provenance)
    _oracle_trace_csv(trace, tmp_path / "oracle.csv", provenance)
    assert (tmp_path / "trace.csv").read_bytes() \
        == (tmp_path / "oracle.csv").read_bytes()


# Horizons on both sides of the export's chunk edges.
@pytest.mark.parametrize("horizon", [0, 1, 255, 256, 257, 600])
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(st.one_of(games(), mixed_games()))
def test_trace_csv_matches_csv_writer_oracle(tmp_path_factory, horizon, case):
    game, terminal = case
    trace = lq.run_recursion(game, terminal, horizon)
    _assert_trace_bytes(trace, tmp_path_factory.mktemp("trace"),
                        {"command": "run", "horizon": horizon})


def test_ring_buffer_trace_csv_matches_oracle(tmp_path, fig1_game):
    trace = lq.run_recursion(fig1_game, lq.PTuple([1.0, 2.0]),
                             FULL_STORAGE_LIMIT + 300)
    assert trace.first_step > 0
    _assert_trace_bytes(trace, tmp_path)


def test_certificate_trace_csv_matches_oracle(tmp_path, found_cycle):
    trace = fileio.certificate_trace(found_cycle[2])
    assert len(trace.gains) == len(trace.p_states)
    _assert_trace_bytes(trace, tmp_path)


def test_trace_csv_keys_floats_by_bits(tmp_path):
    nan2 = np.array([0xFFF8000000000001], dtype=np.uint64).view(np.float64)[0]
    # -0.0 beside 0.0, two NaN payloads and infinities in one chunk, with
    # agents of unequal input widths.
    inf = np.inf
    states = [lq.PTuple([[[-0.0, 0.0], [0.0, 1.0]],
                         [[np.nan, inf], [inf, nan2]]]),
              lq.PTuple([[[0.0, -inf], [-inf, -0.0]], np.eye(2)]),
              lq.PTuple([np.eye(2), -np.eye(2)])]
    gains = [lq.GainTuple([[[-0.0, 0.0], [np.nan, 1e-300]], [[nan2, -inf]]]),
             lq.GainTuple([[[0.0, -0.0], [inf, 5e-324]], [[-0.0, -0.0]]])]
    trace = lq.RecursionTrace(states, gains,
                              lq.TerminationRecord("completed", 2, 0.0), 7)
    _assert_trace_bytes(trace, tmp_path)
    text = (tmp_path / "trace.csv").read_text()
    assert "-0.0" in text and "nan" in text and "-inf" in text


def _oracle_trajectory_csv(traj, path, provenance=None):
    """The trajectory export as csv.writer with one repr per entry."""
    with open(path, "w", newline="") as fh:
        if provenance:
            fh.write(fileio.provenance_line(**provenance) + "\n")
        w = csv.writer(fh)
        n = traj.states.shape[1]
        header = ["t"] + [f"x_{j}" for j in range(n)]
        for i, u in enumerate(traj.inputs):
            header += [f"u{i}_{j}" for j in range(u.shape[1])]
        w.writerow(header)
        T = traj.horizon
        for t in range(T + 1):
            row = [t] + [repr(float(v)) for v in traj.states[t]]
            for u in traj.inputs:
                row += [repr(float(v)) for v in u[t]] if t < T \
                    else [""] * u.shape[1]
            w.writerow(row)


@pytest.mark.parametrize("seed", [None, 3])
def test_trajectory_csv_matches_oracle(tmp_path, seed):
    game = lq.GameSpec(np.eye(2) * 1.1, [[[1.0], [0.0]], np.eye(2)],
                       [np.eye(2)] * 2, [1.0, np.eye(2)], W=0.01 * np.eye(2))
    T = 300
    trace = lq.run_recursion(game, lq.PTuple([np.eye(2)] * 2), T)
    traj = lq.simulate(game, trace.forward_gains(T), [1.0, -0.0], T,
                       seed=seed)
    prov = {"command": "simulate", "horizon": T, "seed": seed}
    fileio.write_trajectory_csv(traj, tmp_path / "traj.csv", prov)
    _oracle_trajectory_csv(traj, tmp_path / "oracle.csv", prov)
    assert (tmp_path / "traj.csv").read_bytes() \
        == (tmp_path / "oracle.csv").read_bytes()


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


def test_equilibria_csv(tmp_path, fig1_equilibria):
    path = tmp_path / "eq.csv"
    fileio.write_equilibria_csv(fig1_equilibria, path, {"seed": 0})
    lines = [l for l in path.read_text().splitlines()
             if l and not l.startswith("#")]
    assert len(lines) == 1 + 3
    header = lines[0].split(",")
    assert "closed_loop_spectral_radius" in header


def test_float_round_trip_through_csv_repr():
    values = [np.pi, 1 / 3, 1e-17, 123456.789012345678]
    for v in values:
        assert float(repr(v)) == v
