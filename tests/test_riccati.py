import re
import sys
import threading

import numpy as np
import pytest
from scipy.linalg import solve_discrete_are

import lqgames as lq
from lqgames import riccati
from lqgames.experiments import _rng_for, random_game
from lqgames.riccati import CONV_TOL, CONV_WINDOW
from conftest import random_pd_tuple

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


# ---------------------------------------------------------------------------
# stage solve

def test_assemble_zero_state_matrix():
    game = lq.GameSpec(0, [1, 1], [1, 1], [1, 1])
    _, gains = lq.riccati_step(lq.PTuple([2.0, 3.0]), game)
    assert all(np.array_equal(k, np.zeros((1, 1))) for k in gains)


def test_assemble_single_agent_reduction():
    # M = R + B P B = 2, rhs = B P A = 4
    game = lq.GameSpec(4, [1], [1], [1])
    _, gains = lq.riccati_step(lq.PTuple([1.0]), game)
    assert float(gains[0][0, 0]) == 2.0


def test_solve_stage_gains_hand_values(fig1_game):
    # M = [[2, 1], [1, 3]], rhs = [5, 5]
    gains = lq.riccati_step(lq.PTuple([1.0, 1.0]), fig1_game)[1]
    assert float(gains[0][0, 0]) == pytest.approx(2.0, abs=1e-14)
    assert float(gains[1][0, 0]) == pytest.approx(1.0, abs=1e-14)


def test_solve_stage_gains_zero_rhs():
    game = lq.GameSpec(0, [1], [1], [1])
    gains = lq.riccati_step(lq.PTuple([1.0]), game)[1]
    assert float(gains[0][0, 0]) == 0.0


def test_solve_stage_gains_singular():
    game = lq.GameSpec(1, [1, 1], [1, 1], [1, 1])
    # value pair engineered to make the stage matrix [[0.5, -0.5],
    # [-0.5, 0.5]] rank deficient
    p = lq.PTuple([-0.5, -0.5])
    with pytest.raises(lq.SingularStageSystem):
        lq.riccati_step(p, game)


def test_stage_solve_wrappers_are_scipys():
    from scipy.linalg import get_lapack_funcs

    gesv, gecon, lange = get_lapack_funcs(("gesv", "gecon", "lange"),
                                          (np.empty((1, 1)),))
    rng = np.random.default_rng(3)
    systems = [(rng.standard_normal((k, k)), rng.standard_normal((k, k + 1)))
               for k in range(1, 10)]
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    near = np.array([[0.5, -0.5], [-0.5 + 1e-14, 0.5 + 1e-14]])
    systems += [(singular, np.ones((2, 1))), (near, np.ones((2, 1)))]
    infos = []
    for M, rhs in systems:
        ours = riccati._gesv(M.copy(), rhs.copy())
        theirs = gesv(M.copy(), rhs.copy())
        for a, b in zip(ours, theirs):
            assert np.asarray(a).dtype == np.asarray(b).dtype
            assert np.array_equal(a, b, equal_nan=True)
        infos.append(ours[3])
        anorm = riccati._lange("1", M)
        assert anorm == lange("1", M)
        assert np.array_equal(riccati._gecon(ours[0], anorm, "1"),
                              gecon(theirs[0], anorm, "1"), equal_nan=True)
    assert infos[-2] > 0 and infos[-1] == 0 and not any(infos[:-2])

    # This game's stage matrix at (p1, p2) is [[1 + p1, p1], [p2, 1 + p2]],
    # which is `near` at the values below.
    game = lq.GameSpec(1, [1, 1], [1, 1], [1, 1])
    rcond = float(gecon(gesv(near, np.ones((2, 1)))[0], lange("1", near),
                        "1")[0])
    assert 0.0 < rcond < riccati.SINGULARITY_RCOND
    with pytest.raises(lq.SingularStageSystem) as err:
        lq.riccati_step(lq.PTuple([-0.5, -0.5 + 1e-14]), game)
    assert err.value.rcond == rcond


def test_missing_flapack_names_the_directory(tmp_path):
    where = tmp_path / "scipy" / "linalg"
    with pytest.raises(ImportError, match=re.escape(str(where))):
        riccati._load_flapack(where)


# ---------------------------------------------------------------------------
# one-step backward map

def test_riccati_step_scalar_hand_values():
    game = lq.GameSpec(1, [1], [1], [1])
    p, k = lq.riccati_step(lq.PTuple([1.0]), game)
    # K = P A B / (R + B^2 P) = 0.5; P = Q + K^2 R + (A - BK)^2 P = 1.5
    assert float(k[0][0, 0]) == pytest.approx(0.5, abs=1e-15)
    assert float(np.asarray(p[0])[0, 0]) == pytest.approx(1.5, abs=1e-15)


def test_riccati_step_rejects_misfit_values(fig1_game):
    # Too few agents, too large matrices, and a ragged tuple with no stack.
    for p in (lq.PTuple([1.0]), lq.PTuple([np.eye(2), np.eye(2)]),
              lq.PTuple([1.0, np.eye(2)])):
        with pytest.raises(ValueError, match=r"does not fit the game's "
                                             r"\(2, 1, 1\) stack"):
            lq.riccati_step(p, fig1_game)


def test_riccati_step_zero_state_matrix():
    game = lq.GameSpec(0, [1, 1], [2, 3], [1, 1])
    p, k = lq.riccati_step(lq.PTuple([5.0, 7.0]), game)
    assert float(k[0][0, 0]) == 0.0 and float(k[1][0, 0]) == 0.0
    assert float(np.asarray(p[0])[0, 0]) == 2.0
    assert float(np.asarray(p[1])[0, 0]) == 3.0


def test_riccati_step_fig1_hand_values(fig1_game):
    p, k = lq.riccati_step(lq.PTuple([1.0, 1.0]), fig1_game)
    acl = lq.closed_loop(fig1_game, k)
    assert float(acl[0, 0]) == pytest.approx(2.0, abs=1e-14)
    # P1 = 1 + 4 + 4 = 9, P2 = 1 + 2 + 4 = 7
    assert float(np.asarray(p[0])[0, 0]) == pytest.approx(9.0, abs=1e-13)
    assert float(np.asarray(p[1])[0, 0]) == pytest.approx(7.0, abs=1e-13)


def _explicit_form_step(p_next, game, gains):
    """Independent evaluation of the backward step: each agent's update
    written with the residual closed loop and an explicit inverse,
    P = Q + Abar' P Abar - Abar' P B (R + B'PB)^{-1} B' P Abar."""
    out = []
    for i in range(game.num_agents):
        Abar = lq.partial_closed_loop(game, gains, i)
        Bi, Pi = game.B[i], np.asarray(p_next[i])
        G = np.linalg.inv(game.R[i] + Bi.T @ Pi @ Bi)
        P = (game.Q[i] + Abar.T @ Pi @ Abar
             - Abar.T @ Pi @ Bi @ G @ Bi.T @ Pi @ Abar)
        out.append(P)
    return out


def test_alternate_form_identity_random():
    # the engine's K'RK + Acl'PAcl update must match the explicit form
    count = 0
    trial = 0
    while count < 1000:
        rng = _rng_for(1234, trial)
        trial += 1
        n, m, N = (int(rng.integers(1, 4)) for _ in range(3))
        try:
            game = random_game(n, m, N, rng)
        except lq.GenerationFailed:
            continue
        p = random_pd_tuple(rng, n, N)
        stepped, gains = lq.riccati_step(p, game)
        explicit = _explicit_form_step(p, game, gains)
        for i in range(N):
            a, b = np.asarray(stepped[i]), explicit[i]
            assert np.linalg.norm(a - b) <= 1e-10 * (1.0 + np.linalg.norm(a))
        count += 1


def test_positive_definiteness_preserved_random():
    count = 0
    trial = 0
    while count < 1000:
        rng = _rng_for(777, trial)
        trial += 1
        n, m, N = (int(rng.integers(1, 4)) for _ in range(3))
        try:
            game = random_game(n, m, N, rng)
        except lq.GenerationFailed:
            continue
        p = random_pd_tuple(rng, n, N)
        stepped, _ = lq.riccati_step(p, game)
        assert stepped.min_eigenvalue() > 0.0
        count += 1


def test_gain_equation_residual_random():
    # solved gains satisfy R^i K^i + sum_j B^i'P^i B^j K^j = B^i'P^i A
    rng = np.random.default_rng(42)
    for _ in range(200):
        n, m, N = (int(rng.integers(1, 4)) for _ in range(3))
        try:
            game = random_game(n, m, N, rng)
        except lq.GenerationFailed:
            continue
        p = random_pd_tuple(rng, n, N)
        gains = lq.riccati_step(p, game)[1]
        stacked_rhs = np.vstack([Bi.T @ np.asarray(Pi) @ game.A
                                 for Bi, Pi in zip(game.B, p)])
        for i in range(N):
            Bi, Pi = game.B[i], np.asarray(p[i])
            lhs = game.R[i] @ gains[i]
            for j in range(N):
                lhs = lhs + Bi.T @ Pi @ game.B[j] @ gains[j]
            rhs = Bi.T @ Pi @ game.A
            assert (np.linalg.norm(lhs - rhs)
                    < 1e-8 * (1.0 + np.linalg.norm(stacked_rhs)))


def test_best_response_gain_consistency_random():
    # block i of the stacked solve equals the single-agent gain formula
    # evaluated with the residual closed loop built from the same gains
    rng = np.random.default_rng(88)
    for _ in range(100):
        n, m, N = (int(rng.integers(1, 4)) for _ in range(3))
        try:
            game = random_game(n, m, N, rng)
        except lq.GenerationFailed:
            continue
        p = random_pd_tuple(rng, n, N)
        gains = lq.riccati_step(p, game)[1]
        for i in range(N):
            Abar = lq.partial_closed_loop(game, gains, i)
            Bi, Pi = game.B[i], np.asarray(p[i])
            direct = np.linalg.solve(game.R[i] + Bi.T @ Pi @ Bi,
                                     Bi.T @ Pi @ Abar)
            assert np.linalg.norm(direct - gains[i]) < 1e-10 * (
                1.0 + np.linalg.norm(direct))


# ---------------------------------------------------------------------------
# recursion

def test_recursion_fig1_converges(fig1_game):
    trace = lq.run_recursion(fig1_game, lq.PTuple([1.0, 1.0]), 1000,
                             tol=CONV_TOL)
    assert trace.terminated.reason == "converged"
    assert lq.fixed_point_residual(trace.final_state(), fig1_game) < 1e-8


def test_recursion_scalar_lqr_golden_ratio(scalar_lqr):
    trace = lq.run_recursion(scalar_lqr, lq.PTuple([1.0]), 500, tol=1e-13)
    limit = float(np.asarray(trace.final_state()[0])[0, 0])
    assert limit == pytest.approx(GOLDEN, abs=1e-10)
    gains = lq.riccati_step(trace.final_state(), scalar_lqr)[1]
    assert float(gains[0][0, 0]) == pytest.approx(GOLDEN - 1.0, abs=1e-10)


def test_recursion_constant_map():
    game = lq.GameSpec(0, [1, 1], [4, 9], [1, 1])
    trace = lq.run_recursion(game, lq.PTuple([1.0, 1.0]), 5)
    assert float(np.asarray(trace.p_states[1][0])[0, 0]) == 4.0
    assert float(np.asarray(trace.p_states[1][1])[0, 0]) == 9.0
    for s in range(1, 5):
        assert trace.p_states[s].distance(trace.p_states[s + 1]) == 0.0


def test_recursion_divergence_recorded():
    # unstabilizable and uncontrolled: P grows by A^2 every step
    game = lq.GameSpec(2, [[0]], [1], [1])
    trace = lq.run_recursion(game, lq.PTuple([1.0]), 10_000)
    assert trace.terminated.reason == "diverged"
    assert trace.terminated.steps < 100
    assert trace.final_state().max_norm() > 1e12


def test_recursion_singular_recorded():
    game = lq.GameSpec(1, [1, 1], [1, 1], [1, 1])
    trace = lq.run_recursion(game, lq.PTuple([-0.5, -0.5]), 10)
    assert trace.terminated.reason == "singular"
    assert trace.terminated.steps == 0
    assert trace.terminated.rcond is not None


def test_trace_reconstruction_invariant(fig1_game):
    trace = lq.run_recursion(fig1_game, lq.PTuple([3.0, 8.0]), 40)
    for s in range(len(trace) - 1):
        again, gains = lq.riccati_step(trace.p_states[s], fig1_game)
        assert trace.p_states[s + 1].distance(again) < 1e-12
        assert gains.distance(trace.gains[s]) < 1e-12
        assert trace.p_states[s].min_eigenvalue() > 0


def test_threads_stepping_one_game_match_sequential_runs():
    # Four threads share one GameSpec and switch as often as the
    # interpreter allows: each thread's trace must equal the one a
    # sequential run gives, bit for bit. The (2, 2, 2) game has a chaotic
    # bounded orbit, so any value one step takes from another shows.
    game = random_game(2, 2, 2, _rng_for(0, 0, 50))
    terminals = [random_pd_tuple(np.random.default_rng(k), 2, 2)
                 for k in range(4)]

    def stacks(trace):
        return ([p.stack for p in trace.p_states],
                [k.stack for k in trace.gains])

    expected = [stacks(lq.run_recursion(game, t, 1000)) for t in terminals]
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for _ in range(5):
            results = [None] * len(terminals)

            def work(j):
                results[j] = stacks(lq.run_recursion(game, terminals[j], 1000))

            threads = [threading.Thread(target=work, args=(j,))
                       for j in range(len(terminals))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            for got, want in zip(results, expected):
                assert all(np.array_equal(a, b)
                           for a, b in zip(got[0] + got[1],
                                           want[0] + want[1]))
    finally:
        sys.setswitchinterval(interval)


def test_trace_ring_buffer():
    game = lq.GameSpec(0.9, [1], [1], [1])
    trace = lq.run_recursion(game, lq.PTuple([1.0]), 11_000)
    assert trace.terminated.reason == "completed"
    assert trace.terminated.steps == 11_000
    assert len(trace) < 11_001
    assert trace.first_step == 11_000 + 1 - len(trace)
    # retained tail still satisfies the reconstruction invariant
    stepped, _ = lq.riccati_step(trace.p_states[0], game)
    assert trace.p_states[1].distance(stepped) < 1e-12


def test_forward_gains_order(fig1_game):
    T = 7
    trace = lq.run_recursion(fig1_game, lq.PTuple([1.0, 1.0]), T)
    schedule = trace.forward_gains(T)
    for t in range(T):
        assert schedule[t] is trace.gains[T - 1 - t]
    with pytest.raises(ValueError):
        trace.forward_gains(T + 1)


def test_convergence_stop_requires_consecutive_run():
    W = CONV_WINDOW
    seq = [1e-7] * (W - 1) + [1e-3] + [1e-7] * W
    # The window closes on the last change, and on none before it.
    assert riccati._window_closes(seq, 1e-6) == (2 * W - 1, W)
    assert riccati._window_closes(seq[:-1], 1e-6) == (None, W - 1)


def test_convergence_stop_reusable_across_runs(fig1_game):
    first = lq.run_recursion(fig1_game, lq.PTuple([1.0, 1.0]), 1000,
                             tol=CONV_TOL)
    assert first.terminated.reason == "converged"
    # restarting from the settled point needs a full window again
    again = lq.run_recursion(fig1_game, first.final_state(), 1000,
                             tol=CONV_TOL)
    assert again.terminated.reason == "converged"
    assert again.steps == CONV_WINDOW


def test_termination_record_sup_norm_covers_ring_buffer():
    # P grows from 1 towards the scalar LQR limit and the sup is reached at
    # the end, but the terminal state is the largest for a shrinking orbit
    game = lq.GameSpec(0.9, [1], [1], [1])
    trace = lq.run_recursion(game, lq.PTuple([50.0]), 11_000)
    assert trace.first_step > 0
    assert trace.terminated.sup_norm == 50.0
    assert max(p.max_norm() for p in trace.p_states) < 50.0


# ---------------------------------------------------------------------------
# single-agent best response: periodic_best_response at L = 1 is the DARE

def stationary_response(game, i, gains=None):
    """Agent i's (P, K) against the others' frozen gains (zero by
    default) at period one."""
    if gains is None:
        gains = lq.GainTuple([np.zeros((m, game.n))
                              for m in game.input_dims])
    (P,), (K,) = lq.periodic_best_response(game, i, [gains])
    return P, K


def test_best_response_scalar_closed_form(scalar_lqr):
    P, K = stationary_response(scalar_lqr, 0)
    assert float(P[0, 0]) == pytest.approx(GOLDEN, abs=1e-10)
    assert float(K[0, 0]) == pytest.approx(GOLDEN / (1.0 + GOLDEN), abs=1e-10)


def test_best_response_zero_state_matrix():
    game = lq.GameSpec(0, [1], [3], [1])
    P, K = stationary_response(game, 0)
    assert float(P[0, 0]) == pytest.approx(3.0, abs=1e-12)
    assert float(K[0, 0]) == pytest.approx(0.0, abs=1e-12)


def test_best_response_matches_scipy_dare():
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 30:
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        A = rng.uniform(-1.5, 1.5, (n, n))
        B = rng.uniform(-1, 1, (n, m))
        g = rng.standard_normal((n, n))
        Q = g @ g.T + 0.1 * np.eye(n)
        h = rng.standard_normal((m, m))
        R = h @ h.T + 0.1 * np.eye(m)
        game = lq.GameSpec(A, [B], [Q], [R])
        if not lq.validate_game(game).ok:
            continue
        P, K = stationary_response(game, 0)
        P_ref = solve_discrete_are(A, B, Q, R)
        assert np.linalg.norm(P - P_ref) < 1e-7 * (1 + np.linalg.norm(P_ref))
        checked += 1


def test_best_response_verifies_fig1_fixed_point(fig1_game):
    # the recursion limit is a mutual best response
    trace = lq.run_recursion(fig1_game, lq.PTuple([1.0, 1.0]), 2000,
                             tol=1e-13)
    p_star = trace.final_state()
    gains = lq.riccati_step(p_star, fig1_game)[1]
    for i in range(2):
        _, Ki = stationary_response(fig1_game, i, gains)
        assert np.linalg.norm(Ki - gains[i]) < 1e-6


def test_periodic_best_response_replicated_equilibrium_is_dare(
        fig1_game, fig1_equilibria):
    # L copies of a stationary equilibrium's gains: every slot solves the
    # same DARE, so each slot carries the period-one solution
    for pt in fig1_equilibria:
        gains_1 = pt.certificate.gains[0]
        for i in range(2):
            P, K = stationary_response(fig1_game, i, gains_1)
            values, gains = lq.periodic_best_response(fig1_game, i,
                                                      [gains_1] * 3)
            assert len(values) == len(gains) == 3
            for V, Kl in zip(values, gains):
                assert np.allclose(V, P, rtol=1e-10, atol=1e-12)
                assert np.allclose(Kl, K, rtol=1e-10, atol=1e-12)


def test_periodic_best_response_reproduces_certified_cycle(found_cycle):
    game, _, cert = found_cycle
    for i in range(game.num_agents):
        values, _ = lq.periodic_best_response(game, i, cert.gains)
        for V, phase in zip(values, cert.phases):
            rel = np.linalg.norm(V - phase[i]) / (1 + np.linalg.norm(phase[i]))
            assert rel < 1e-10


def test_periodic_best_response_budget_names_agent(found_cycle, monkeypatch):
    game, _, cert = found_cycle
    monkeypatch.setattr(lq.riccati, "BEST_RESPONSE_MAX_STEPS", 2)
    with pytest.raises(lq.NoConvergence, match="agent 1"):
        lq.periodic_best_response(game, 1, cert.gains)


def test_single_agent_recursion_matches_dare_oracle():
    # with one agent the recursion must converge to the unique solution
    # of the algebraic Riccati equation for any terminal cost
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 100:
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        A = rng.uniform(-1.5, 1.5, (n, n))
        B = rng.uniform(-1, 1, (n, m))
        g = rng.standard_normal((n, n))
        Q = g @ g.T + 0.1 * np.eye(n)
        h = rng.standard_normal((m, m))
        R = h @ h.T + 0.1 * np.eye(m)
        game = lq.GameSpec(A, [B], [Q], [R])
        if not lq.validate_game(game).ok:
            continue
        terminal = random_pd_tuple(rng, n, 1)
        trace = lq.run_recursion(game, terminal, 20_000, tol=CONV_TOL)
        assert trace.terminated.reason == "converged"
        P_ref = solve_discrete_are(A, B, Q, R)
        P = np.asarray(trace.final_state()[0])
        assert np.linalg.norm(P - P_ref) < 1e-6 * (1 + np.linalg.norm(P_ref))
        checked += 1


# ---------------------------------------------------------------------------
# BLAS threads

def test_library_runs_blas_on_one_thread_and_restores_counts(monkeypatch,
                                                             fig1_game):
    controls = riccati._blas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread control in this numpy/scipy build")

    def counts():
        return [get() for get, _ in controls]

    seen = []
    original = riccati.riccati_step

    def recording(*args, **kwargs):
        seen.append(counts())
        return original(*args, **kwargs)

    monkeypatch.setattr(riccati, "riccati_step", recording)
    before = counts()
    try:
        for _, put in controls:
            put(2)
        host = counts()
        lq.classify(fig1_game, lq.PTuple([1.0, 1.0]))
        assert counts() == host
        lq.run_ensemble([(1, 1, 2)], 3, 0, lq.ClassifyOptions(horizon=50))
        assert counts() == host
    finally:
        for (_, put), count in zip(controls, before):
            put(count)
    assert seen and all(c == [1] * len(controls) for c in seen)


def test_nested_guards_read_the_counts_once(monkeypatch):
    counts, reads, writes = [4, 3], [0, 0], []

    def control(i):
        def get():
            reads[i] += 1
            return counts[i]

        def put(count):
            writes.append((i, count))
            counts[i] = count

        return get, put

    controls = (control(0), control(1))
    monkeypatch.setattr(riccati, "_blas_thread_controls", lambda: controls)
    seen = []
    original = riccati.riccati_step

    def recording(*args, **kwargs):
        seen.append(list(counts))
        return original(*args, **kwargs)

    monkeypatch.setattr(riccati, "riccati_step", recording)
    trials = 5
    report = lq.run_ensemble([(1, 1, 2)], trials, 0,
                             lq.ClassifyOptions(horizon=50))
    assert sum(report.cells[(1, 1, 2)].counts.values()) == trials
    # One read per count for the campaign, none for its T classifications.
    assert reads == [1, 1]
    assert writes == [(0, 1), (1, 1), (0, 4), (1, 3)]
    assert counts == [4, 3]
    assert seen and all(c == [1, 1] for c in seen)

    # A guarded call that raises still restores, and releases the guard.
    @riccati._one_blas_thread
    def fail():
        raise RuntimeError("inside")

    with pytest.raises(RuntimeError):
        fail()
    assert counts == [4, 3] and reads == [2, 2]

    # The guard is per thread: another thread's outermost call reads.
    inner = []

    @riccati._one_blas_thread
    def outer():
        worker = threading.Thread(target=riccati._one_blas_thread(
            lambda: inner.append(list(reads))))
        worker.start()
        worker.join()

    outer()
    assert inner == [[4, 4]] and counts == [4, 3]
