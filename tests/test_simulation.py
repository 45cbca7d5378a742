import numpy as np
import pytest

import lqgames as lq
from lqgames.experiments import _rng_for, random_game, random_terminal
from conftest import random_pd_tuple

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def test_simulate_zero_dynamics():
    game = lq.GameSpec(0, [1], [1], [1])
    zero_gain = lq.GainTuple([np.zeros((1, 1))])
    traj = lq.simulate(game, [zero_gain], [1.0], 3)
    assert traj.states.ravel().tolist() == [1.0, 0.0, 0.0, 0.0]


def test_simulate_equilibrium_decay(fig1_game, fig1_equilibria):
    pt = fig1_equilibria.points[0]
    rho = pt.certificate.product_spectral_radius
    schedule = pt.certificate.forward_gain_schedule()
    traj = lq.simulate(fig1_game, schedule, [1.0], 30)
    norms = np.abs(traj.states.ravel())
    # scalar closed loop: decay is exactly geometric at rate rho
    for t in range(1, 31):
        assert norms[t] == pytest.approx(rho ** t, rel=1e-9)


def test_simulate_cycle_schedule_period_decay(found_cycle):
    # the period product is strictly stable, so playing the cycle gains
    # in forward order contracts the state over every period
    game, _, cert = found_cycle
    L = cert.period
    periods = 40
    schedule = cert.forward_gain_schedule() * periods
    x0 = np.ones(game.n)
    traj = lq.simulate(game, schedule, x0, periods * L)
    norms = np.linalg.norm(traj.states, axis=1)
    assert cert.product_spectral_radius < 1.0
    assert norms[-1] <= 1e-6 * max(1.0, norms[0]) or norms[-1] < 1e-10
    # per-period transition equals the period product exactly in exact
    # arithmetic; numerically the contraction shows up at once
    assert norms[10 * L] < norms[0]


def test_simulate_schedule_length_contract(fig1_game, fig1_equilibria):
    pt = fig1_equilibria.points[0]
    with pytest.raises(ValueError):
        lq.simulate(fig1_game, pt.certificate.forward_gain_schedule() * 2,
                    [1.0], 5)


def test_simulate_seeded_reproducibility():
    game = lq.GameSpec(0.9, [1], [1], [1], W=[[0.3]])
    k = lq.GainTuple([[[0.2]]])
    a = lq.simulate(game, [k], [1.0], 50, seed=123)
    b = lq.simulate(game, [k], [1.0], 50, seed=123)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.inputs[0], b.inputs[0])
    c = lq.simulate(game, [k], [1.0], 50, seed=124)
    assert not np.array_equal(a.states, c.states)


def test_simulate_noise_free_without_seed():
    game = lq.GameSpec(0.9, [1], [1], [1], W=[[0.5]])
    k = lq.GainTuple([[[0.0]]])
    traj = lq.simulate(game, [k], [1.0], 10)
    assert traj.states[10, 0] == pytest.approx(0.9 ** 10)


def test_states_satisfy_dynamics_exactly():
    rng = np.random.default_rng(9)
    game = random_game(3, 2, 2, rng)
    terminal = random_terminal(game, rng)
    trace = lq.run_recursion(game, terminal, 20)
    schedule = trace.forward_gains(20)
    x0 = rng.standard_normal(3)
    traj = lq.simulate(game, schedule, x0, 20)
    for t in range(20):
        x_next = game.A @ traj.states[t]
        for i in range(2):
            x_next = x_next + game.B[i] @ traj.inputs[i][t]
        assert np.array_equal(traj.states[t + 1], x_next)


def test_finite_horizon_cost_single_stage():
    game = lq.GameSpec(0, [1], [1], [1])
    zero_gain = lq.GainTuple([np.zeros((1, 1))])
    traj = lq.simulate(game, [zero_gain], [1.0], 1)
    cost = lq.finite_horizon_cost(traj, game, 0, lq.PTuple([1.0]))
    assert cost == pytest.approx(1.0)


def test_finite_horizon_cost_zero_state():
    game = lq.GameSpec(0.5, [1], [1], [1])
    zero_gain = lq.GainTuple([np.zeros((1, 1))])
    traj = lq.simulate(game, [zero_gain], [0.0], 10)
    assert lq.finite_horizon_cost(traj, game, 0, lq.PTuple([1.0])) == 0.0


def test_dynamic_programming_identity_random():
    # equilibrium play: T * J^i(x0) equals x0' P_0^i x0 with P_0 the
    # value tuple after T backward steps
    checked = 0
    trial = 0
    while checked < 100:
        rng = _rng_for(808, trial)
        trial += 1
        n, m, N = (int(rng.integers(1, 4)) for _ in range(3))
        try:
            game = random_game(n, m, N, rng)
        except lq.GenerationFailed:
            continue
        T = int(rng.integers(1, 101))
        terminal = random_pd_tuple(rng, n, N)
        trace = lq.run_recursion(game, terminal, T)
        if trace.terminated.reason != "completed":
            continue
        x0 = rng.standard_normal(n)
        traj = lq.simulate(game, trace.forward_gains(T), x0, T)
        P0 = trace.p_states[T]
        for i in range(N):
            direct = float(x0 @ np.asarray(P0[i]) @ x0)
            cost = T * lq.finite_horizon_cost(traj, game, i, terminal)
            assert abs(cost - direct) <= 1e-8 * (1.0 + abs(direct))
        checked += 1


def test_deviation_zero_perturbation_is_identity(fig1_game):
    trace = lq.run_recursion(fig1_game, lq.PTuple([1.0, 1.0]), 20)
    report = lq.deviation_test(fig1_game, trace, 0, [1.0],
                               perturbations=0, seed=0)
    assert report.n_perturbations == 0
    assert report.ok


def test_deviation_scalar_lqr_strictly_increases(scalar_lqr):
    trace = lq.run_recursion(scalar_lqr, lq.PTuple([1.0]), 30)
    report = lq.deviation_test(scalar_lqr, trace, 0, [1.0],
                               perturbations=60, seed=5)
    assert report.ok
    assert report.min_gap > 0.0


def test_deviation_fig1_no_violations(fig1_game):
    trace = lq.run_recursion(fig1_game, lq.PTuple([1.0, 1.0]), 50)
    for i in range(2):
        report = lq.deviation_test(fig1_game, trace, i, [1.0],
                                   perturbations=100, seed=17 + i)
        assert report.ok, report.violations


def test_deviation_requires_noise_free():
    game = lq.GameSpec(0.5, [1], [1], [1], W=[[1.0]])
    trace = lq.run_recursion(game, lq.PTuple([1.0]), 10)
    with pytest.raises(ValueError):
        lq.deviation_test(game, trace, 0, [1.0])
