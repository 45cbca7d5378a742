import pickle

import numpy as np
import pytest

import lqgames as lq
from lqgames.analysis import CYCLE_WINDOW, MAX_PERIOD, _minimal_period
from lqgames.experiments import _rng_for, random_game
from lqgames.model import stack_distances
from lqgames.riccati import (CONV_TOL, CONV_WINDOW, FULL_STORAGE_LIMIT,
                             RING_BUFFER_SIZE, RecursionTrace,
                             TerminationRecord, _agent_max)

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
        cert = lq.verify_cycle([pt.p], fig1_game)
        assert cert.cycle_residual < 1e-9
        assert cert.periodic_br_residual < 1e-9
        assert cert.product_spectral_radius < 1.0


def test_nash_verify_precondition_violation(fig1_game):
    with pytest.raises(lq.CertificationFailed) as err:
        lq.verify_cycle([lq.PTuple([1.0, 1.0])], fig1_game)
    assert err.value.failures[0].startswith("orbit residual")
    assert err.value.certificate.cycle_residual == pytest.approx(4.0,
                                                                 abs=1e-12)


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


def reference_convergence(trace):
    """detect_convergence as a loop over PTuple.distance of each pair,
    counting the changes below CONV_TOL in a row itself."""
    states = trace.p_states
    run = 0
    for s in range(len(states) - 1):
        run = run + 1 if states[s].distance(states[s + 1]) < CONV_TOL else 0
        if run == CONV_WINDOW:
            return states[s + 1], trace.first_step + s + 1 - CONV_WINDOW
    return None


def _settling_at(step):
    """A scalar trace whose steps change by 1 up to `step`, then not at
    all: the rule fires CONV_WINDOW steps later."""
    return synthetic_trace([lq.PTuple([float(min(s, step))])
                            for s in range(step + 3 * CONV_WINDOW)])


CONVERGENCE_TRACES = {
    "constant": lambda: lq.run_recursion(
        lq.GameSpec(0, [1, 1], [4, 9], [1, 1]), lq.PTuple([1.0, 1.0]), 30),
    "scalar-lqr": lambda: lq.run_recursion(
        lq.GameSpec(1, [1], [1], [1]), lq.PTuple([1.0]), 300),
    "alternating": lambda: synthetic_trace(
        [lq.PTuple([1.0]), lq.PTuple([2.0])] * 30),
    "settles-at-300": lambda: _settling_at(300),
    "fig1-10000": lambda: lq.run_recursion(
        lq.GameSpec(5, [1, 1], [1, 1], [1, 2]), lq.PTuple([1.0, 1.0]),
        10_000),
    "bounded-10000": lambda: lq.run_recursion(
        random_game(2, 2, 2, _rng_for(0, 0, 50)), lq.PTuple(
            [np.eye(2), 2.0 * np.eye(2)]), 10_000),
    "ring": lambda: lq.run_recursion(
        lq.GameSpec(0.9, [1], [1], [1]), lq.PTuple([50.0]), 11_000),
}


@pytest.mark.parametrize("make", CONVERGENCE_TRACES.values(),
                         ids=CONVERGENCE_TRACES.keys())
def test_detect_convergence_matches_the_pairwise_loop(make):
    trace = make()
    found = lq.detect_convergence(trace)
    expected = reference_convergence(trace)
    if expected is None:
        assert found is None
    else:
        assert found[0] is expected[0] and found[1] == expected[1]
    # The changes it reads are PTuple.distance's, bit for bit.
    values, states = trace.values, trace.p_states
    changes = _agent_max(stack_distances(values[:-1], values[1:]))
    pairwise = [a.distance(b) for a, b in zip(states, states[1:])]
    assert np.array(changes).tobytes() == np.array(pairwise).tobytes()


# ---------------------------------------------------------------------------
# cycle detection

def period_of(states, max_period):
    return _minimal_period(synthetic_trace(states).values, tol=1e-9,
                           max_period=max_period, window=3)


def test_minimal_period_scanner_period_two():
    x = lq.PTuple([1.0])
    y = lq.PTuple([2.0])
    states = [x, y] * 40
    assert period_of(states, 10) == 2


def test_minimal_period_scanner_constant_is_one():
    states = [lq.PTuple([1.0])] * 50
    assert period_of(states, 10) == 1


def test_minimal_period_scanner_minimality():
    # period 6 with no smaller divisor matching
    base = [lq.PTuple([float(v)]) for v in (1, 2, 3, 4, 5, 6)]
    states = base * 12
    assert period_of(states, 12) == 6
    # but a period-2 orbit embedded in a period-4 description is found as 2
    states = [lq.PTuple([1.0]), lq.PTuple([2.0])] * 24
    assert period_of(states, 12) == 2


def test_minimal_period_scanner_needs_enough_states():
    states = [lq.PTuple([1.0]), lq.PTuple([2.0])] * 3
    assert period_of(states, 50) in (2, None)


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


def test_classification_keeps_no_view_of_its_trace(fig1_game, found_cycle):
    # A trace's states are views of its storage; the states a
    # classification keeps own their values, so they do not pin it.
    verdict = lq.classify(fig1_game, lq.PTuple([1.0, 1.0]))
    assert verdict.verdict == "converged"
    assert verdict.fixed_point.stack.base is None
    _, _, cert = found_cycle
    assert all(p.stack.base is None for p in cert.phases)


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


def test_verify_cycle_period_one_and_empty(scalar_lqr):
    cert = lq.verify_cycle([lq.PTuple([GOLDEN])], scalar_lqr)
    assert cert.period == 1
    assert cert.product_spectral_radius == cert.phase_spectral_radii[0] < 1.0
    with pytest.raises(ValueError):
        lq.verify_cycle([], scalar_lqr)


def unstable_fixed_point():
    """A fixed point of GameSpec(5, [1, 0], [1, 1], [1, 1]) whose closed
    loop is 5 / (1 + p1) = 5.208: agent 1's negative Riccati root, and
    agent 2, who has no input, paying 1 / (1 - Acl^2)."""
    game = lq.GameSpec(5, [1, 0], [1, 1], [1, 1])
    p1 = (25.0 - np.sqrt(629.0)) / 2.0
    acl = 5.0 / (1.0 + p1)
    return game, lq.PTuple([p1, 1.0 / (1.0 - acl ** 2)]), acl


def test_unstable_fixed_point_fails_only_stability():
    game, p, acl = unstable_fixed_point()
    for phases in ([p], [p, p]):
        with pytest.raises(lq.CertificationFailed) as err:
            lq.verify_cycle(phases, game)
        assert len(err.value.failures) == 1
        assert err.value.failures[0].startswith("period product spectral radius")
        cert = err.value.certificate
        assert cert.cycle_residual < 1e-13
        assert cert.product_spectral_radius == pytest.approx(
            acl ** len(phases), rel=1e-12)
        assert np.isnan(cert.periodic_br_residual)


def test_singular_stage_is_a_failure(fig1_game):
    # at (-1, 0) the Fig. 1 stage matrix has determinant 2 + p2 + 2 p1 = 0
    p = lq.PTuple([-1.0, 0.0])
    for phases in ([p], [p, p]):
        with pytest.raises(lq.CertificationFailed) as err:
            lq.verify_cycle(phases, fig1_game)
        assert err.value.failures == [str(lq.SingularStageSystem(0.0))]
        assert err.value.certificate is None


def _agreement_points(fig1_game, fig1_equilibria):
    """(game, point) pairs: Fig. 1's equilibria, each perturbed by 1e-6,
    the unstable fixed point, and descent equilibria of a few random
    games at master seed 77."""
    yield from ((fig1_game, pt.p) for pt in fig1_equilibria)
    yield from ((fig1_game, lq.PTuple(pt.p.stack * (1.0 + 1e-6)))
                for pt in fig1_equilibria)
    game, p, _ = unstable_fixed_point()
    yield game, p
    for cell, (n, m, N), trials in ((0, (2, 1, 3), (0, 2, 3)),
                                    (1, (3, 3, 2), (0, 3, 5))):
        for t in trials:
            game = random_game(n, m, N, _rng_for(77, cell, t))
            for pt in lq.residual_descent_search(game):
                yield game, pt.p


def _outcome(phases, game):
    """(passed, certificate) of verify_cycle, failing or not."""
    try:
        return True, lq.verify_cycle(phases, game)
    except lq.CertificationFailed as err:
        return False, err.certificate


def test_stationary_check_agrees_with_replicated_cycle(fig1_game,
                                                       fig1_equilibria):
    verdicts = []
    for game, p in _agreement_points(fig1_game, fig1_equilibria):
        ok, one = _outcome([p], game)
        ok_twice, two = _outcome([p, p], game)
        assert ok == ok_twice
        verdicts.append(ok)
        # failing points carry their measurements too
        assert two.cycle_residual == one.cycle_residual
        assert two.product_spectral_radius == pytest.approx(
            one.product_spectral_radius ** 2, rel=1e-9)
    # three Fig. 1 equilibria and at least one point per descent game pass;
    # the four failing points fail
    assert verdicts[:7] == [True] * 3 + [False] * 4
    assert len(verdicts) >= 7 + 6 and all(verdicts[7:])


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
