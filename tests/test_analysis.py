import pickle

import numpy as np
import pytest

import lqgames as lq
from lqgames.analysis import CYCLE_WINDOW, MAX_PERIOD, _minimal_period
from lqgames.riccati import (FULL_STORAGE_LIMIT, RING_BUFFER_SIZE,
                             RecursionTrace, TerminationRecord)

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def synthetic_trace(states):
    term = TerminationRecord(reason="completed", steps=len(states) - 1,
                             final_residual=0.0)
    return RecursionTrace(states, [], term)


# ---------------------------------------------------------------------------
# spectral radius

def test_spectral_radius_identity():
    assert lq.spectral_radius(np.eye(4)) == pytest.approx(1.0)


def test_spectral_radius_nilpotent():
    M = np.triu(np.ones((3, 3)), k=1)
    assert lq.spectral_radius(M) == pytest.approx(0.0, abs=1e-12)


def test_spectral_radius_complex_pair():
    M = np.array([[0.0, 2.0], [-2.0, 0.0]])
    assert lq.spectral_radius(M) == pytest.approx(2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# fixed points

def test_fixed_point_residual_golden(scalar_lqr):
    assert lq.fixed_point_residual(lq.PTuple([GOLDEN]), scalar_lqr) < 1e-12


def test_fixed_point_residual_constant_map():
    game = lq.GameSpec(0, [1, 1], [2, 5], [1, 1])
    assert lq.fixed_point_residual(lq.PTuple([2.0, 5.0]), game) == 0.0


def test_fixed_point_residual_fig1_hand_value(fig1_game):
    # f(1,1) = (9,7): residual max(8/2, 6/2) = 4
    assert lq.fixed_point_residual(lq.PTuple([1.0, 1.0]), fig1_game) \
        == pytest.approx(4.0, abs=1e-12)


def test_fix_points_are_nash(fig1_equilibria, fig1_game):
    for pt in fig1_equilibria:
        report = lq.nash_verify_stationary(pt.p, fig1_game)
        assert report.ok
        assert report.fixed_point_residual < 1e-9
        assert all(gap < 1e-9 for gap in report.best_response_gaps)
        assert report.closed_loop_spectral_radius < 1.0


def test_nash_verify_precondition_violation(fig1_game):
    report = lq.nash_verify_stationary(lq.PTuple([1.0, 1.0]), fig1_game)
    assert not report.precondition_ok
    assert not report.ok


def test_terminal_cost_selection_pins_recursion(fig1_game, fig1_equilibria):
    # choosing a fixed point as the terminal cost keeps the recursion on
    # it with a stable closed loop throughout
    for pt in fig1_equilibria:
        trace = lq.run_recursion(fig1_game, pt.p, 50)
        assert max(s.distance(pt.p) for s in trace.p_states) < 1e-8
        for gains in trace.gains:
            assert lq.spectral_radius(lq.closed_loop(fig1_game, gains)) < 1.0


# ---------------------------------------------------------------------------
# convergence detection

def test_detect_convergence_constant_trace():
    game = lq.GameSpec(0, [1, 1], [4, 9], [1, 1])
    trace = lq.run_recursion(game, lq.PTuple([1.0, 1.0]), 30)
    point, steps = lq.detect_convergence(trace)
    assert steps == 1
    assert float(np.asarray(point[0])[0, 0]) == 4.0
    assert float(np.asarray(point[1])[0, 0]) == 9.0


def test_detect_convergence_scalar_lqr(scalar_lqr):
    trace = lq.run_recursion(scalar_lqr, lq.PTuple([1.0]), 300)
    point, steps = lq.detect_convergence(trace)
    assert float(np.asarray(point[0])[0, 0]) == pytest.approx(GOLDEN, abs=1e-8)
    assert steps > 0


def test_detect_convergence_alternating_trace_returns_none():
    x = lq.PTuple([1.0])
    y = lq.PTuple([2.0])
    trace = synthetic_trace([x, y] * 30)
    assert lq.detect_convergence(trace) is None


# ---------------------------------------------------------------------------
# cycle detection

def test_minimal_period_scanner_period_two():
    x = lq.PTuple([1.0])
    y = lq.PTuple([2.0])
    states = [x, y] * 40
    assert _minimal_period(states, tol=1e-9, max_period=10, window=3) == 2


def test_minimal_period_scanner_constant_is_one():
    states = [lq.PTuple([1.0])] * 50
    assert _minimal_period(states, tol=1e-9, max_period=10, window=3) == 1


def test_minimal_period_scanner_minimality():
    # period 6 with no smaller divisor matching
    base = [lq.PTuple([float(v)]) for v in (1, 2, 3, 4, 5, 6)]
    states = base * 12
    assert _minimal_period(states, tol=1e-9, max_period=12, window=3) == 6
    # but a period-2 orbit embedded in a period-4 description is found as 2
    states = [lq.PTuple([1.0]), lq.PTuple([2.0])] * 24
    assert _minimal_period(states, tol=1e-9, max_period=12, window=3) == 2


def test_minimal_period_scanner_needs_enough_states():
    states = [lq.PTuple([1.0]), lq.PTuple([2.0])] * 3
    assert _minimal_period(states, tol=1e-9, max_period=50, window=3) in (2, None)


def test_detect_cycle_constant_trace_is_none(fig1_game):
    trace = lq.run_recursion(fig1_game, lq.PTuple([1.0, 1.0]), 600)
    assert lq.detect_cycle(trace, game=fig1_game) is None


def test_detect_cycle_on_found_game(found_cycle):
    game, terminal, cert = found_cycle
    assert cert.period >= 2
    assert cert.cycle_residual < 1e-8
    assert cert.product_spectral_radius < 1.0
    assert cert.loop_identity_residual < 1e-6
    assert cert.periodic_br_residual < 1e-6
    trace = lq.run_recursion(game, terminal, 10_000)
    again = lq.detect_cycle(trace, game=game)
    assert again is not None
    assert again.period == cert.period


def test_classify_cycle_verdict(found_cycle):
    game, terminal, cert = found_cycle
    verdict = lq.classify(game, terminal)
    assert verdict.verdict == "cycle"
    assert verdict.certificate.period == cert.period


def test_classify_cycle_verdict_from_ring_buffer(found_cycle):
    # beyond FULL_STORAGE_LIMIT the trace keeps RING_BUFFER_SIZE + 1
    # states, and _minimal_period needs (CYCLE_WINDOW + 1) * L of them
    assert (CYCLE_WINDOW + 1) * MAX_PERIOD <= RING_BUFFER_SIZE + 1
    game, terminal, cert = found_cycle
    opts = lq.ClassifyOptions(horizon=FULL_STORAGE_LIMIT + 300)
    verdict = lq.classify(game, terminal, opts)
    assert verdict.verdict == "cycle"
    assert verdict.certificate.period == cert.period


# ---------------------------------------------------------------------------
# cycle certification

def test_verify_cycle_accepts_replicated_fixed_point(scalar_lqr):
    p_star = lq.PTuple([GOLDEN])
    cert = lq.verify_cycle([p_star, p_star, p_star], scalar_lqr)
    assert cert.period == 3
    rho_acl = cert.phase_spectral_radii[0]
    assert cert.product_spectral_radius == pytest.approx(rho_acl ** 3,
                                                         rel=1e-9)
    assert cert.cycle_residual < 1e-10


def test_verify_cycle_rejects_interleaved_fixed_points(fig1_game,
                                                       fig1_equilibria):
    a = fig1_equilibria.points[0].p
    b = fig1_equilibria.points[-1].p
    with pytest.raises(lq.CertificationFailed) as err:
        lq.verify_cycle([a, b], fig1_game)
    assert any("orbit residual" in f for f in err.value.failures)


def test_verify_cycle_phase_count(found_cycle):
    game, _, cert = found_cycle
    assert len(cert.phases) == cert.period
    assert len(cert.gains) == cert.period
    assert len(cert.phase_spectral_radii) == cert.period
    # phases walk backward around the loop: stepping phase l+1 lands on l
    for l in range(cert.period):
        source = cert.phases[(l + 1) % cert.period]
        image, gains = lq.riccati_step(source, game)
        assert cert.phases[l].distance(image) < 1e-8
        assert gains.distance(cert.gains[l]) < 1e-10


def test_verify_cycle_needs_two_phases(scalar_lqr):
    with pytest.raises(ValueError):
        lq.verify_cycle([lq.PTuple([GOLDEN])], scalar_lqr)


# ---------------------------------------------------------------------------
# classification

def test_classify_fig1_converged(fig1_game):
    verdict = lq.classify(fig1_game, lq.PTuple([1.0, 1.0]))
    assert verdict.verdict == "converged"
    assert lq.fixed_point_residual(verdict.fixed_point, fig1_game) < 1e-7


def test_classify_constant_map_one_step():
    game = lq.GameSpec(0, [1, 1], [2, 3], [1, 1])
    verdict = lq.classify(game, lq.PTuple([1.0, 1.0]))
    assert verdict.verdict == "converged"
    assert verdict.steps_to_converge == 1


def test_classify_diverged():
    game = lq.GameSpec(2, [[0]], [1], [1])
    verdict = lq.classify(game, lq.PTuple([1.0]))
    assert verdict.verdict == "diverged"
    assert verdict.step is not None


def test_classify_singular():
    # a valid game and a positive definite terminal whose first stage
    # system is exactly singular
    e1, e2 = [[1.0], [0.0]], [[0.0], [1.0]]
    game = lq.GameSpec(np.eye(2), [e1, e2], [np.eye(2)] * 2, [0.01, 0.01])
    terminal = lq.PTuple([[[1.0, 1.01], [1.01, 4.0]],
                          [[4.0, 1.01], [1.01, 1.0]]])
    assert lq.validate_game(game).ok
    assert lq.validate_terminal(game, terminal).ok
    verdict = lq.classify(game, terminal)
    assert verdict.verdict == "singular"
    assert verdict.rcond is not None


@pytest.mark.parametrize("entries", [[float("nan"), 1.0], [-3.0, 1.0]],
                         ids=["nan", "indefinite"])
def test_classify_rejects_invalid_terminal(fig1_game, entries):
    with pytest.raises(ValueError, match=r"invalid terminal cost: P\[0\]"):
        lq.classify(fig1_game, lq.PTuple(entries))


def test_classify_deterministic(fig1_game):
    a = lq.classify(fig1_game, lq.PTuple([2.5, 17.0]))
    b = lq.classify(fig1_game, lq.PTuple([2.5, 17.0]))
    assert a.verdict == b.verdict
    assert a.steps_to_converge == b.steps_to_converge
    for i in range(2):
        assert np.array_equal(np.asarray(a.fixed_point[i]),
                              np.asarray(b.fixed_point[i]))


# pickling: results cross process boundaries intact

def _same_frozen(a, b) -> bool:
    """b holds a's entries bit for bit, every one read-only."""
    return len(a) == len(b) and all(
        x.shape == y.shape and x.tobytes() == y.tobytes()
        and not y.flags.writeable for x, y in zip(a, b))


def test_matrix_tuples_pickle():
    for t in (lq.PTuple([1.0, 2.0]), lq.GainTuple([[1.0]]),
              lq.PTuple([np.eye(2), 1.0])):
        back = pickle.loads(pickle.dumps(t))
        assert type(back) is type(t)
        assert _same_frozen(t, back)


def test_classification_pickles(fig1_game):
    result = lq.classify(fig1_game, lq.PTuple([1.0, 2.0]))
    assert result.verdict == "converged"
    back = pickle.loads(pickle.dumps(result))
    assert back.steps_to_converge == result.steps_to_converge
    assert _same_frozen(result.fixed_point, back.fixed_point)
    # the loaded value tuple is a working stacked tuple again
    assert (lq.riccati_step(back.fixed_point, fig1_game)[0].stack.tobytes()
            == lq.riccati_step(result.fixed_point, fig1_game)[0].stack.tobytes())


def test_cycle_certificate_pickles(found_cycle):
    cert = found_cycle[2]
    back = pickle.loads(pickle.dumps(cert))
    assert back.period == cert.period
    assert back.phase_spectral_radii == cert.phase_spectral_radii
    assert (back.cycle_residual, back.periodic_br_residual) == (
        cert.cycle_residual, cert.periodic_br_residual)
    for a, b in zip(cert.phases + cert.gains, back.phases + back.gains):
        assert _same_frozen(a, b)


def test_recursion_trace_pickles(fig1_game):
    trace = lq.run_recursion(fig1_game, lq.PTuple([1.0, 2.0]), 30)
    back = pickle.loads(pickle.dumps(trace))
    assert back.terminated == trace.terminated
    assert back.first_step == trace.first_step
    assert len(back.p_states) == len(trace.p_states)
    assert len(back.gains) == len(trace.gains)
    for a, b in zip(trace.p_states + trace.gains, back.p_states + back.gains):
        assert _same_frozen(a, b)
