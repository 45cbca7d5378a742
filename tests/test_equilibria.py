import time

import numpy as np
import pytest

import lqgames as lq
from lqgames import equilibria
from lqgames.experiments import _rng_for, random_game

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def scalar_values(point):
    return tuple(float(np.asarray(m)[0, 0]) for m in point.p)


def test_fig1_game_has_exactly_three_equilibria(fig1_equilibria):
    assert len(fig1_equilibria) == 3
    for pt in fig1_equilibria:
        assert pt.verification.ok
        assert pt.verification.closed_loop_spectral_radius < 1.0
    # pairwise distinct
    vals = [scalar_values(pt) for pt in fig1_equilibria]
    for i in range(3):
        for j in range(i + 1, 3):
            assert max(abs(a - b) for a, b in zip(vals[i], vals[j])) > 1e-6


def test_fig1_points_are_engine_fixed_points(fig1_equilibria, fig1_game):
    for pt in fig1_equilibria:
        assert lq.fixed_point_residual(pt.p, fig1_game) < 1e-10


def test_fig1_points_are_exactly_stationary(fig1_game):
    # Pinning needs an exactly stationary float neighbour of each root; a
    # stage map whose rounding loses it exhausts the ulp lattice instead.
    start = time.perf_counter()
    eqs = lq.scalar_two_agent_equilibria(fig1_game)
    elapsed = time.perf_counter() - start
    assert len(eqs) == 3
    for pt in eqs:
        image, _ = lq.riccati_step(pt.p, fig1_game)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(image, pt.p))
    assert elapsed < 0.5


def test_symmetric_game_swap_symmetry():
    game = lq.GameSpec(5, [1, 1], [1, 1], [1, 1])
    eqs = lq.scalar_two_agent_equilibria(game)
    vals = {tuple(np.round(scalar_values(pt), 8)) for pt in eqs}
    swapped = {(b, a) for a, b in vals}
    assert vals == swapped


def test_stable_state_matrix_has_equilibrium():
    game = lq.GameSpec(0.5, [1, 1], [1, 1], [1, 1])
    eqs = lq.scalar_two_agent_equilibria(game)
    assert len(eqs) >= 1


def test_enumeration_requires_scalar_two_agents(scalar_lqr):
    with pytest.raises(ValueError):
        lq.scalar_two_agent_equilibria(scalar_lqr)


def test_no_equilibrium_in_restricted_scan_range(fig1_game, monkeypatch):
    # all three roots lie above 1: a scan capped below that range finds
    # nothing and says so
    monkeypatch.setattr(equilibria, "GRID_MIN", 1e-4)
    monkeypatch.setattr(equilibria, "GRID_MAX", 1e-3)
    with pytest.raises(lq.NoEquilibriumFound):
        lq.scalar_two_agent_equilibria(fig1_game)


def test_descent_finds_scalar_lqr_solution(scalar_lqr):
    eqs = lq.residual_descent_search(scalar_lqr, inits=[lq.PTuple([1.0])],
                                     restarts=0)
    assert len(eqs) == 1
    assert float(np.asarray(eqs.points[0].p[0])[0, 0]) == pytest.approx(
        GOLDEN, abs=1e-8)


def test_descent_recovers_all_fig1_equilibria(fig1_game, fig1_equilibria):
    # coarse independent grid of initializations
    inits = [lq.PTuple([a, b])
             for a in (0.5, 5.0, 20.0, 40.0)
             for b in (0.5, 5.0, 20.0, 40.0)]
    eqs = lq.residual_descent_search(fig1_game, inits=inits, restarts=0)
    assert len(eqs) == 3
    found = sorted(scalar_values(pt) for pt in eqs)
    expected = sorted(scalar_values(pt) for pt in fig1_equilibria)
    for f, e in zip(found, expected):
        assert max(abs(a - b) for a, b in zip(f, e)) < 1e-6


def test_descent_accepts_only_tiny_residuals(fig1_game):
    eqs = lq.residual_descent_search(fig1_game, inits=[lq.PTuple([1.0, 1.0])],
                                     restarts=3, seed=4)
    for pt in eqs:
        assert lq.fixed_point_residual(pt.p, fig1_game) < 1e-10


def test_oracle_agreement_on_random_scalar_games():
    # enumeration and descent agree as sets on random scalar games; the
    # descent is seeded from an independent coarse grid plus restarts
    inits = [lq.PTuple([a, b])
             for a in (0.3, 3.0, 30.0)
             for b in (0.3, 3.0, 30.0)]
    games = 0
    trial = 0
    anomalies = []
    while games < 100:
        rng = _rng_for(5150, trial)
        trial += 1
        game = random_game(1, 1, 2, rng)
        try:
            enum = lq.scalar_two_agent_equilibria(game)
        except lq.NoEquilibriumFound:
            anomalies.append(trial)
            continue
        if not 1 <= len(enum) <= 3:
            anomalies.append(trial)
        desc = lq.residual_descent_search(game, inits=inits, restarts=6,
                                          seed=trial)
        enum_vals = sorted(scalar_values(pt) for pt in enum)
        desc_vals = sorted(scalar_values(pt) for pt in desc)
        # every descent point matches an enumerated one
        for d in desc_vals:
            assert any(max(abs(a - b) for a, b in zip(d, e)) < 1e-6
                       for e in enum_vals), (trial, d, enum_vals)
        # every enumerated point is reachable by descent seeded nearby
        for e in enum_vals:
            near = lq.residual_descent_search(
                game, inits=[lq.PTuple([e[0] * 1.01, e[1] * 0.99])],
                restarts=0)
            assert any(max(abs(a - b) for a, b in zip(e, scalar_values(pt)))
                       < 1e-6 for pt in near), (trial, e)
        games += 1
    assert not anomalies, f"anomalous equilibrium counts in trials {anomalies}"


def test_every_root_has_stable_closed_loop():
    # with Q, R positive definite a genuine fixed point always has a
    # strictly stable closed loop (Acl'P Acl - P = -(Q + K'RK) < 0), so
    # the unstable-root filter stays a defensive guard: metadata records
    # zero discards and every returned point is stable
    for trial in range(30):
        rng = _rng_for(31337, trial)
        game = random_game(1, 1, 2, rng)
        try:
            eqs = lq.scalar_two_agent_equilibria(game)
        except lq.NoEquilibriumFound:
            continue
        assert eqs.search_metadata["unstable_discarded"] == 0
        for pt in eqs:
            assert pt.verification.closed_loop_spectral_radius < 1.0
