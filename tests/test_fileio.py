import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lqgames as lq
from lqgames import fileio
from lqgames.experiments import VERDICTS, _rng_for, random_game
from lqgames.riccati import CONV_TOL, FULL_STORAGE_LIMIT
from lqgames.simulate import Trajectory
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


@pytest.mark.parametrize("key, value, message", [
    ("n", 3, "n 3, but its matrices give 1"),
    ("num_agents", 5, "num_agents 5, but its matrices give 2"),
    ("input_dims", [7], r"input_dims \[7\], but its matrices give \[1, 1\]"),
], ids=["n", "num_agents", "input_dims"])
def test_game_file_keys_must_match_matrices(tmp_path, fig1_game, key, value,
                                            message):
    path = tmp_path / "game.json"
    fileio.write_game(fig1_game, path)
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
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


# Floats whose bits differ where their values compare equal (0.0, -0.0)
# or never compare (NaN payloads), one group per chunk, each meeting the
# strings carried from the chunk before; REPEATED recurs in all three.
NAN2 = np.array([0xFFF8000000000001], dtype=np.uint64).view(np.float64)[0]
CROSS_CHUNK = ([0.0, np.nan, np.inf], [-0.0, NAN2, -np.inf],
               [0.0, np.nan, np.inf])
REPEATED = 0.25


def _across_chunks(a, chunk):
    """Fill a, shaped (rows, ...), with floats in [0.5, 1.5), then write
    each CROSS_CHUNK group and REPEATED, in row-major order, from the
    start of rows 0, chunk + 1 and 2 * chunk + 1."""
    a[...] = np.random.default_rng(a.size).uniform(0.5, 1.5, a.shape)
    flat = a.reshape(-1)
    width = flat.size // len(a)
    for row, group in zip((0, chunk + 1, 2 * chunk + 1), CROSS_CHUNK):
        flat[row * width:row * width + 4] = [*group, REPEATED]
    return a


def test_long_tables_key_floats_by_bits_across_chunks(tmp_path):
    chunk, rows = fileio.CHUNK_ROWS, (slice(0, 2), slice(2, 3))
    S = 2 * chunk + 3                   # a third chunk holds three states
    P = _across_chunks(np.empty((S, 2, 2, 2)), chunk)
    K = _across_chunks(np.empty((S - 1, 3, 2)), chunk)
    trace = lq.RecursionTrace(
        [lq.PTuple._trusted(p.copy()) for p in P],
        [lq.GainTuple._trusted(k.copy(), rows) for k in K],
        lq.TerminationRecord("completed", S - 1, 0.0), 3)
    (tmp_path / "trace").mkdir()
    _assert_trace_bytes(trace, tmp_path / "trace")
    text = (tmp_path / "trace" / "trace.csv").read_text()
    assert "-0.0" in text and ",0.0," in text and "-inf" in text

    U = _across_chunks(np.empty((S - 1, 4)), chunk)
    traj = Trajectory(_across_chunks(np.empty((S, 4)), chunk),
                      (U[:, :3], U[:, 3:]))
    fileio.write_trajectory_csv(traj, tmp_path / "traj.csv")
    _oracle_trajectory_csv(traj, tmp_path / "oracle.csv")
    assert (tmp_path / "traj.csv").read_bytes() \
        == (tmp_path / "oracle.csv").read_bytes()

    # A plot series: agent indices recur in every chunk as well.
    R = 2 * fileio.SERIES_CHUNK_ROWS + 5
    series = np.column_stack([np.arange(R) % 2, _across_chunks(
        np.empty(R), fileio.SERIES_CHUNK_ROWS)])
    fileio.write_series_csv(series, ["agent", "value"],
                            tmp_path / "series.csv")
    _oracle_csv(tmp_path / "series-oracle.csv", None, ["agent", "value"],
                [[int(i), repr(float(v))] for i, v in series])
    assert (tmp_path / "series.csv").read_bytes() \
        == (tmp_path / "series-oracle.csv").read_bytes()


def _oracle_trace_figures(trace, game, out_dir, provenance=None):
    """The trace figures as csv.writer rows with one repr per value, read
    entry by entry: one norm per agent and one eigvals per step."""
    ref = trace.p_states[0]
    series = {
        "gain_series.csv": (
            ["step", "agent", "row", "col", "value"],
            [(trace.first_step + s, i, r, c, float(Ki[r, c]))
             for s, k in enumerate(trace.gains) for i, Ki in enumerate(k)
             for r in range(Ki.shape[0]) for c in range(Ki.shape[1])]),
        "value_distance_series.csv": (
            ["step", "agent", "frobenius_diff"],
            [(trace.first_step + s, i,
              float(np.linalg.norm(np.asarray(p[i]) - np.asarray(ref[i]))))
             for s, p in enumerate(trace.p_states)
             for i in range(game.num_agents)]),
        "closed_loop_spectra.csv": (
            ["step", "spectral_radius"],
            [(trace.first_step + s,
              lq.spectral_radius(lq.closed_loop(game, k)))
             for s, k in enumerate(trace.gains)]),
    }
    out_dir.mkdir()
    for name, (header, rows) in series.items():
        with open(out_dir / name, "w", newline="") as fh:
            if provenance:
                fh.write(fileio.provenance_line(**provenance) + "\n")
            w = csv.writer(fh)
            w.writerow(header)
            for row in rows:
                w.writerow([repr(v) if isinstance(v, float) else v
                            for v in row])
    return sorted(series)


def _assert_figure_bytes(trace_or_cert, game, tmp_path, provenance=None):
    paths = lq.export_trace_figures(trace_or_cert, game, tmp_path / "out",
                                    provenance)
    trace = trace_or_cert
    if isinstance(trace, lq.CycleCertificate):
        trace = fileio.certificate_trace(trace)
    names = _oracle_trace_figures(trace, game, tmp_path / "oracle",
                                  provenance)
    assert sorted(p.name for p in paths) == names
    for name in names:
        assert (tmp_path / "out" / name).read_bytes() \
            == (tmp_path / "oracle" / name).read_bytes()


# Horizons around the series chunk: a (3,3,2) game writes 18 gain rows a
# step, so 600 steps cross SERIES_CHUNK_ROWS twice.
@pytest.mark.parametrize("horizon", [0, 1, 227, 600])
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(st.one_of(games(), mixed_games()))
def test_trace_figures_match_csv_writer_oracle(tmp_path_factory, horizon,
                                               case):
    game, terminal = case
    trace = lq.run_recursion(game, terminal, horizon)
    _assert_figure_bytes(trace, game, tmp_path_factory.mktemp("figures"),
                         {"command": "simulate", "horizon": horizon})


def test_ring_buffer_and_certificate_figures_match_oracle(tmp_path,
                                                          fig1_game,
                                                          found_cycle):
    trace = lq.run_recursion(fig1_game, lq.PTuple([1.0, 2.0]),
                             FULL_STORAGE_LIMIT + 300)
    assert trace.first_step > 0
    _assert_figure_bytes(trace, fig1_game, tmp_path / "ring")
    game, _, cert = found_cycle
    _assert_figure_bytes(cert, game, tmp_path / "cert", {"seed": 0})


def test_termination_json(tmp_path, fig1_game):
    trace = lq.run_recursion(fig1_game, lq.PTuple([1.0, 1.0]), 50,
                             tol=CONV_TOL)
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


def _oracle_csv(path, provenance, header, rows):
    with open(path, "w", newline="") as fh:
        if provenance:
            fh.write(fileio.provenance_line(**provenance) + "\n")
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)


# The small-table writers as csv.writer wrote them: the references the
# row writer must match byte for byte.
def _oracle_phase_spectra_csv(cert, path, provenance=None):
    _oracle_csv(path, provenance, ["phase", "closed_loop_spectral_radius"],
                [[l, repr(float(rho))]
                 for l, rho in enumerate(cert.phase_spectral_radii)])


def _oracle_equilibria_csv(eqs, path, provenance=None):
    rows = []
    for idx, pt in enumerate(eqs.points):
        p_flat = ";".join(repr(float(v)) for m in pt.p
                          for v in np.asarray(m).ravel())
        k_flat = ";".join(repr(float(v)) for m in pt.certificate.gains[0]
                          for v in np.asarray(m).ravel())
        rows.append([idx, p_flat, k_flat,
                     repr(pt.certificate.product_spectral_radius),
                     repr(pt.certificate.cycle_residual)])
    _oracle_csv(path, provenance,
                ["index", "p_entries", "k_entries",
                 "closed_loop_spectral_radius", "fixed_point_residual"], rows)


def _oracle_basin_csv(basin, path, provenance=None):
    _oracle_csv(path, provenance,
                ["qt1", "qt2", "verdict", "label", "steps_to_converge",
                 "distance"],
                [[repr(c.qt1), repr(c.qt2), c.verdict,
                  "" if c.label is None else c.label,
                  "" if c.steps_to_converge is None else c.steps_to_converge,
                  "" if c.distance is None else repr(c.distance)]
                 for c in basin.cells])


def _oracle_ensemble_csv(report, path, provenance=None):
    rows = []
    for (n, m, N), stats in sorted(report.cells.items()):
        fr = stats.fractions(report.trials_per_cell)
        rows.append([n, m, N, report.trials_per_cell]
                    + [stats.counts.get(v, 0) for v in VERDICTS]
                    + [repr(fr[v]) for v in VERDICTS]
                    + [stats.generation_failures])
    _oracle_csv(path, provenance,
                ["n", "m", "N", "trials"] + list(VERDICTS)
                + [f"frac_{v}" for v in VERDICTS] + ["generation_failures"],
                rows)


def _oracle_census_csv(census, path, provenance=None):
    _oracle_csv(path, provenance,
                ["n", "m", "N", "period", "count", "games_examined",
                 "complete"],
                [[n, m, N, period, cc.histogram[period], cc.games_examined,
                  cc.complete]
                 for (n, m, N), cc in sorted(census.cells.items())
                 for period in sorted(cc.histogram)])


def _assert_table_bytes(write, oracle, obj, tmp_path, provenance=None):
    write(obj, tmp_path / "table.csv", provenance)
    oracle(obj, tmp_path / "oracle.csv", provenance)
    assert (tmp_path / "table.csv").read_bytes() \
        == (tmp_path / "oracle.csv").read_bytes()


def test_small_tables_match_csv_writer_oracles(tmp_path, fig1_game,
                                               fig1_equilibria, found_cycle):
    opts = lq.ClassifyOptions(horizon=2000)
    basin = lq.run_basin_grid(fig1_game, axis_samples=6, opts=opts)
    ensemble = lq.run_ensemble([(1, 1, 2), (2, 1, 2)], 10, 3, opts)
    complete = lq.cycle_census([(2, 2, 2)], target=1, master_seed=0)
    with pytest.raises(lq.CensusIncomplete) as err:
        lq.cycle_census([(2, 2, 2)], target=2, master_seed=0, cap=30)
    incomplete = err.value.census
    assert complete.cells[(2, 2, 2)].histogram \
        and incomplete.cells[(2, 2, 2)].histogram
    assert not incomplete.cells[(2, 2, 2)].complete
    prov = {"command": "test", "seed": 0}
    for k, (write, oracle, obj) in enumerate([
            (fileio.write_phase_spectra_csv, _oracle_phase_spectra_csv,
             found_cycle[2]),
            (fileio.write_equilibria_csv, _oracle_equilibria_csv,
             fig1_equilibria),
            (fileio.write_basin_csv, _oracle_basin_csv, basin),
            (fileio.write_equilibria_csv, _oracle_equilibria_csv,
             basin.equilibria),
            (fileio.write_ensemble_csv, _oracle_ensemble_csv, ensemble),
            (fileio.write_census_csv, _oracle_census_csv, complete),
            (fileio.write_census_csv, _oracle_census_csv, incomplete)]):
        for p in (None, prov):
            out = tmp_path / f"{k}-{p is None}"
            out.mkdir()
            _assert_table_bytes(write, oracle, obj, out, p)


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


def test_write_rows_writes_nothing_for_no_rows(tmp_path):
    path = tmp_path / "rows.csv"
    with open(path, "w", newline="") as fh:
        fileio._write_rows(fh, [])
        fileio._write_rows(fh, [["a", "b"], ["1", "2.5"]])
        fileio._write_rows(fh, [])
    with open(tmp_path / "oracle.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([["a", "b"], ["1", "2.5"]])
    assert path.read_bytes() == b"a,b\r\n1,2.5\r\n"
    assert path.read_bytes() == (tmp_path / "oracle.csv").read_bytes()
