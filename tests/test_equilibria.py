import time

import numpy as np
import pytest

import lqgames as lq
from lqgames import equilibria
from lqgames.experiments import _rng_for, random_game

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def scalar_values(point):
    return tuple(float(np.asarray(m)[0, 0]) for m in point.p)


def test_fig1_game_has_exactly_three_equilibria(fig1_equilibria, fig1_game):
    assert len(fig1_equilibria) == 3
    for pt in fig1_equilibria:
        lq.verify_cycle([pt.p], fig1_game)
        assert pt.certificate.product_spectral_radius < 1.0
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


def test_nothing_verified_raises(fig1_game, monkeypatch):
    # the roots are found, but a game where none of them verifies has no
    # equilibrium to return and says so
    monkeypatch.setattr(equilibria, "_certify",
                        lambda game, candidates: ([], 0, len(candidates)))
    with pytest.raises(lq.NoEquilibriumFound):
        lq.scalar_two_agent_equilibria(fig1_game)


def test_fig1_pinned_points_bit_for_bit(fig1_equilibria):
    # the pinned terminal costs the grid enumeration used to return
    expected = [("0x1.18a7afb3257a8p+0", "0x1.654191858a93ep+5"),
                ("0x1.a74f4de1da554p+2", "0x1.d71cf624b5014p+3"),
                ("0x1.80343bffc230ap+4", "0x1.0ff457b728316p+0")]
    assert [tuple(v.hex() for v in scalar_values(pt))
            for pt in fig1_equilibria] == expected


def test_zero_state_matrix_has_only_q():
    # at a = 0 the reduction's polynomial vanishes identically; the gains
    # are zero and Q is the only fixed point
    eqs = lq.scalar_two_agent_equilibria(lq.GameSpec(0, [1, 1], [2, 3],
                                                     [1, 1]))
    assert [scalar_values(pt) for pt in eqs] == [(2.0, 3.0)]


def test_ensemble_scalar_games_count_histogram():
    counts = {}
    for t in range(300):
        game = random_game(1, 1, 2, _rng_for(0, 0, t))
        k = len(lq.scalar_two_agent_equilibria(game))
        counts[k] = counts.get(k, 0) + 1
    assert counts == {1: 284, 3: 16}


def test_multi_input_agent_agrees_with_descent():
    # n = 1 with input widths (2, 1): the reduction sees agent 1 only
    # through s_1 = B^1 (R^1)^-1 B^1'
    game = lq.GameSpec(5, [np.array([[0.8, -0.5]]), 1.0], [1, 1],
                       [np.array([[1.0, 0.3], [0.3, 2.0]]), 2.0])
    assert game.input_dims == (2, 1)
    enum = sorted(scalar_values(pt)
                  for pt in lq.scalar_two_agent_equilibria(game))
    inits = [lq.PTuple([a, b]) for a in (0.5, 5.0, 20.0, 40.0)
             for b in (0.5, 5.0, 20.0, 40.0)]
    desc = sorted(scalar_values(pt) for pt in lq.residual_descent_search(
        game, inits=inits, restarts=0))
    assert len(enum) == len(desc) == 3
    for e, d in zip(enum, desc):
        assert max(abs(x - y) / (1 + abs(y)) for x, y in zip(e, d)) < 1e-8


# Log-uniform wide games, a = +-10^U(-1, 2), B^i = 10^U(-1.5, 1.5),
# q_i = 10^U(-3, 3), R^i = 10^U(-2, 2), games 5, 31 and 65 of
# default_rng(7): a 200 x 200 logarithmic grid over [1e-4, 1e6] finds 2,
# 1 and 2 of their equilibria (P = (2.76e6, 1.146) and the two with
# P^2 > 2e7 lie outside it; game 65's (5.353, 36975.65) lies inside).
WIDE_GAMES = {
    5: (-30.913144887955625, [0.09191433367893227, 0.20081581571634524],
        [191.4224735620039, 1.144840169273247],
        [24.468141617883948, 3.6213347137882343]),
    31: (-47.73569770241974, [0.09650214813658169, 0.038028312164160395],
         [8.032387664759076, 0.019411434752005324],
         [1.79820374194287, 60.147574566144925]),
    65: (-69.77434020355237, [14.696661152349314, 0.4279728679962403],
         [0.039939888880100104, 202.4844263921098],
         [0.944785796493537, 5.5228670466757945]),
}


def stage_map_moves(pt, game) -> bool:
    image, _ = lq.riccati_step(pt.p, game)
    return any(a.tobytes() != b.tobytes() for a, b in zip(image, pt.p))


def test_unpinned_counts_points_the_stage_map_moves(fig1_game,
                                                    fig1_equilibria):
    assert fig1_equilibria.search_metadata["unpinned"] == 0
    # Wide game 5 has no exactly stationary float pair within the pin's
    # lattice around two of its three equilibria.
    game = lq.GameSpec(*WIDE_GAMES[5])
    eqs = lq.scalar_two_agent_equilibria(game)
    moved = sum(stage_map_moves(pt, game) for pt in eqs)
    assert eqs.search_metadata["unpinned"] == moved == 2


@pytest.mark.parametrize("index", sorted(WIDE_GAMES))
def test_wide_game_has_three_certified_equilibria(index):
    game = lq.GameSpec(*WIDE_GAMES[index])
    eqs = lq.scalar_two_agent_equilibria(game)
    assert len(eqs) == 3
    for pt in eqs:
        lq.verify_cycle([pt.p], game)


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


def test_descent_counts_the_fixed_points_it_rejects():
    # (3, 3, 2) games at master seed 77 where descent also converges on
    # fixed points whose closed loop is unstable (rho(Acl) > 2)
    game = random_game(3, 3, 2, _rng_for(77, 1, 3))
    meta = lq.residual_descent_search(game).search_metadata
    assert meta["accepted"] == 1
    assert meta["unstable_discarded"] == 1
    assert meta["verification_failed"] == 0
    game = random_game(3, 3, 2, _rng_for(77, 1, 4))
    meta = lq.residual_descent_search(game).search_metadata
    assert meta["unstable_discarded"] == 2


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
            assert pt.certificate.product_spectral_radius < 1.0
