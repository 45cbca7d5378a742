import numpy as np
import pytest

import lqgames as lq
from lqgames.analysis import ClassifyOptions
from lqgames.experiments import _rng_for, random_game, random_terminal
from lqgames.riccati import CONV_WINDOW
from lqgames.fileio import (certificate_trace, trace_gain_series,
                            trace_value_series)


# ---------------------------------------------------------------------------
# random game generation

def test_random_game_deterministic():
    a = random_game(2, 1, 3, _rng_for(42, 0, 0))
    b = random_game(2, 1, 3, _rng_for(42, 0, 0))
    assert np.array_equal(a.A, b.A)
    for x, y in zip(a.B, b.B):
        assert np.array_equal(x, y)
    for x, y in zip(a.Q, b.Q):
        assert np.array_equal(x, y)


def test_random_game_shapes():
    game = random_game(3, 2, 4, _rng_for(1, 0, 0))
    assert game.A.shape == (3, 3)
    assert all(b.shape == (3, 2) for b in game.B)
    assert all(r.shape == (2, 2) for r in game.R)
    assert game.num_agents == 4
    assert lq.validate_game(game).ok


def test_random_cost_matrices_have_eigenvalue_floor():
    # construction G G' + 0.1 I guarantees min eig >= 0.1
    for t in range(1000):
        rng = _rng_for(9, t)
        game = random_game(int(rng.integers(1, 4)), 1, 2, rng)
        for q in game.Q:
            assert np.linalg.eigvalsh(q)[0] >= 0.1 - 1e-12
        for r in game.R:
            assert np.linalg.eigvalsh(r)[0] >= 0.1 - 1e-12
        term = random_terminal(game, rng)
        assert term.min_eigenvalue() >= 0.1 - 1e-12


# ---------------------------------------------------------------------------
# ensembles

def test_ensemble_zero_trials():
    report = lq.run_ensemble([(1, 1, 2)], 0, master_seed=0)
    stats = report.cells[(1, 1, 2)]
    assert sum(stats.counts.values()) == 0
    assert report.converged_fraction((1, 1, 2)) == 0.0


def test_ensemble_partition_and_determinism():
    opts = ClassifyOptions(horizon=3000)
    a = lq.run_ensemble([(1, 1, 2)], 40, master_seed=7, opts=opts)
    b = lq.run_ensemble([(1, 1, 2)], 40, master_seed=7, opts=opts)
    sa, sb = a.cells[(1, 1, 2)], b.cells[(1, 1, 2)]
    assert sa.counts == sb.counts
    assert sum(sa.counts.values()) + sa.generation_failures == 40
    assert set(sa.counts) == {"converged", "cycle", "bounded_nonconvergent",
                              "diverged", "singular"}


def test_ensemble_different_seeds_differ():
    opts = ClassifyOptions(horizon=2000)
    a = lq.run_ensemble([(2, 1, 2)], 25, master_seed=1, opts=opts)
    b = lq.run_ensemble([(2, 1, 2)], 25, master_seed=2, opts=opts)
    # identical counts across all verdicts under different seeds would be
    # suspicious but possible; require the generated games to differ
    ga = random_game(2, 1, 2, _rng_for(1, 0, 0))
    gb = random_game(2, 1, 2, _rng_for(2, 0, 0))
    assert not np.array_equal(ga.A, gb.A)
    assert a.trials_per_cell == b.trials_per_cell == 25


# ---------------------------------------------------------------------------
# census

def test_census_counts_certified_cycles(found_cycle):
    census = lq.cycle_census([(2, 2, 2)], target=1, master_seed=0)
    cc = census.cells[(2, 2, 2)]
    assert sum(cc.histogram.values()) == 1
    assert cc.complete
    cert = cc.certificates[0]
    assert cert.cycle_residual < 1e-8
    assert cert.product_spectral_radius < 1.0
    assert cert.period in cc.histogram
    # matches the shared fixture (same seed path)
    assert cert.period == found_cycle[2].period


def test_census_incomplete_carries_partial_result():
    with pytest.raises(lq.CensusIncomplete) as err:
        lq.cycle_census([(1, 1, 2)], target=5, master_seed=0, cap=4)
    census = err.value.census
    assert census.cells[(1, 1, 2)].games_examined == 4
    assert not census.cells[(1, 1, 2)].complete


# ---------------------------------------------------------------------------
# basin map

def test_basin_grid_fig1(fig1_game, fig1_equilibria):
    basin = lq.run_basin_grid(fig1_game, axis_samples=12, q_range=(0.3, 30.0),
                              equilibria=fig1_equilibria)
    assert len(basin.cells) == 144
    assert all(c.verdict == "converged" for c in basin.cells)
    # every converged cell matches a known equilibrium tightly
    for c in basin.cells:
        assert c.label is not None
        assert c.distance < 1e-6
    labels = {c.label for c in basin.cells}
    assert len(labels) >= 2
    # axis excludes the lower endpoint, includes the upper
    axis = basin.grid_axes[0]
    assert axis[0] > 0.3
    assert axis[-1] == pytest.approx(30.0)


def test_basin_requires_scalar_two_agent(scalar_lqr):
    with pytest.raises(ValueError):
        lq.run_basin_grid(scalar_lqr)


def test_basin_degenerate_second_agent_single_label():
    # agent 2 has no input authority: the map reduces to agent 1's LQR,
    # so every cell converges to the same point
    game = lq.GameSpec(2.0, [1, 0], [1, 1], [1, 1])
    basin = lq.run_basin_grid(game, axis_samples=6, q_range=(0.5, 10.0))
    labels = {c.label for c in basin.cells}
    assert all(c.verdict == "converged" for c in basin.cells)
    assert len(labels) == 1


def test_classify_at_equilibrium_converges_fast(fig1_game, fig1_equilibria):
    # a terminal cost sitting on a fixed point converges within the window
    opts = ClassifyOptions()
    for pt in fig1_equilibria:
        verdict = lq.classify(fig1_game, pt.p, opts)
        assert verdict.verdict == "converged"
        assert verdict.steps_to_converge <= CONV_WINDOW


@pytest.mark.parametrize("q_range", [(-5.0, 1.0), (5.0, 1.0), (1.0, 1.0),
                                     (0.3, float("inf")),
                                     (float("nan"), 1.0)])
def test_basin_grid_rejects_bad_range(fig1_game, fig1_equilibria, q_range):
    with pytest.raises(ValueError, match="0 <= lo < hi"):
        lq.run_basin_grid(fig1_game, axis_samples=2, q_range=q_range,
                          equilibria=fig1_equilibria)


# ---------------------------------------------------------------------------
# trace/certificate series

def test_trace_series_fixed_point(fig1_game, fig1_equilibria):
    pt = fig1_equilibria.points[0]
    trace = lq.run_recursion(fig1_game, pt.p, 30)
    diff_rows, rho_rows = trace_value_series(trace, fig1_game)
    assert all(row[2] < 1e-8 for row in diff_rows)
    assert all(row[1] < 1.0 for row in rho_rows)
    gain_rows = trace_gain_series(trace)
    assert len(gain_rows) == 30 * 2      # one scalar gain per agent per step


def test_certificate_series_periodicity(found_cycle):
    game, _, cert = found_cycle
    L = cert.period
    trace = certificate_trace(cert)
    diff_rows, rho_rows = trace_value_series(trace, game)
    gain_rows = trace_gain_series(trace)
    diffs = {}
    for step, agent, value in diff_rows:
        diffs.setdefault(agent, []).append(value)
    for agent, series in diffs.items():
        for s in range(L, 2 * L):
            assert series[s] == pytest.approx(series[s - L], abs=1e-12)
    assert [r for _, r in rho_rows[:L]] == list(cert.phase_spectral_radii)
    assert len(gain_rows) > 0


def test_export_trace_figures(tmp_path, found_cycle, fig1_game):
    game, _, cert = found_cycle
    paths = lq.export_trace_figures(cert, game, tmp_path / "cert_out",
                                    {"seed": 0})
    names = {p.name for p in paths}
    assert names == {"gain_series.csv", "value_distance_series.csv",
                     "closed_loop_spectra.csv"}
    for p in paths:
        assert p.exists()
        lines = p.read_text().splitlines()
        assert lines[0].startswith("# seed=0")

    trace = lq.run_recursion(fig1_game, lq.PTuple([1.0, 1.0]), 20)
    paths = lq.export_trace_figures(trace, fig1_game, tmp_path / "trace_out")
    assert all(p.exists() for p in paths)
    with pytest.raises(TypeError):
        lq.export_trace_figures("nonsense", fig1_game, tmp_path)
