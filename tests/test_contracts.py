"""Properties that pin the engine's single-rule and single-kernel contracts.

Over small random valid games: classify's convergence verdict is the one
detect_convergence finds on the full trace, riccati_step's value
matrices come back exactly symmetric and, like its gains, read-only, the
norm helpers reproduce np.linalg.norm bit for bit, stack_distances, with
either operand broadcast, is frobenius's formula matrix by matrix,
riccati_step matches the stage map written out agent by agent, on games
whose agents have equal input dimensions and on games where they differ,
and equals a frozen copy of the single-stack stage arithmetic byte for
byte, the stage map over a batch of value stacks gives each member what
riccati_step gives it (bit for bit for scalar games) with an exactly
singular member left non-finite on its own, the gains solve the stacked
stage system to a small residual and every agent's value equals the
explicit update form, classify gives every valid game and terminal a
verdict without raising, run_recursion's residual and sup norm (with a
tolerance or without one, fully stored or in a ring buffer) and
_minimal_period's period are those of the plain np.linalg.norm formulas
and pair-by-pair scan, a full-horizon trace's values are the costs of
playing its gains (the dynamic-programming identity), and run_recursion,
which steps and checks in blocks over one preallocated buffer, gives the
states, gains and record of a step-by-step loop bit for bit, also after
its ring buffer has slid, with one riccati_step call per step unless it
diverges, carries no state from one run into another, and leaves its
storage read-only and no larger than the states it keeps (a full-storage
trace) or its ring (a longer one).
"""

import warnings
from collections import deque
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import mutually_broadcastable_shapes
from scipy.linalg import lu_factor, lu_solve

import lqgames as lq
from lqgames.analysis import (CYCLE_TOL, CYCLE_WINDOW, MAX_PERIOD,
                              _minimal_period)
from lqgames.experiments import (VERDICTS, _rng_for, random_game,
                                 random_terminal)
from lqgames import riccati
from lqgames.model import frobenius, stack_distances
from lqgames.riccati import (BLOCK_STEPS, CONV_TOL, CONV_WINDOW,
                             DIVERGENCE_THRESHOLD, FULL_STORAGE_LIMIT,
                             RING_BUFFER_SIZE, SingularStageSystem,
                             _stage_map_batch)
from lqgames.simulate import finite_horizon_cost, simulate

CELLS = [(1, 1, 2), (2, 1, 3), (3, 3, 2)]
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)


@st.composite
def games(draw):
    cell = draw(st.sampled_from(CELLS))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    game = random_game(*cell, rng)
    return game, random_terminal(game, rng)


def _same(a, b) -> bool:
    return len(a) == len(b) and all(
        x.shape == y.shape and np.array_equal(x, y) for x, y in zip(a, b))


@PROPERTY
@given(games())
def test_classify_convergence_matches_detect_convergence(case):
    game, terminal = case
    opts = lq.ClassifyOptions(horizon=300)
    verdict = lq.classify(game, terminal, opts)
    settled = lq.detect_convergence(
        lq.run_recursion(game, terminal, opts.horizon))
    assert (verdict.verdict == "converged") == (settled is not None)
    if settled is not None:
        point, steps = settled
        assert verdict.steps_to_converge == steps
        assert _same(verdict.fixed_point, point)


@PROPERTY
@given(games(), st.integers(0, 5))
def test_riccati_step_results_symmetric_and_frozen(case, steps):
    game, p = case
    for _ in range(steps):
        p, _ = lq.riccati_step(p, game)
    image, gains = lq.riccati_step(p, game)
    for m in image:
        assert np.array_equal(m, m.T)
        assert not m.flags.writeable
    assert all(not k.flags.writeable for k in gains)


@PROPERTY
@given(games())
def test_norm_helpers_match_numpy(case):
    game, p = case
    q, gains = lq.riccati_step(p, game)
    assert p.norms() == [float(np.linalg.norm(m)) for m in p]
    assert p.max_norm() == max(float(np.linalg.norm(m)) for m in p)
    assert p.distance(q) == max(
        float(np.linalg.norm(a - b) / (1.0 + np.linalg.norm(a)))
        for a, b in zip(p, q))
    other = lq.riccati_step(q, game)[1]
    assert gains.distance(other) == max(
        float(np.linalg.norm(a - b) / (1.0 + np.linalg.norm(a)))
        for a, b in zip(gains, other))


@PROPERTY
@given(mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=3),
       st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_stack_distances_match_frobenius_pair_by_pair(shapes, n, seed):
    # Either operand, or both, broadcast over the leading axes; the
    # denominator is the matching matrix of a.
    rng = np.random.default_rng(seed)

    def draw(lead):
        scale = 10.0 ** rng.uniform(-3.0, 3.0, lead + (1, 1))
        return scale * rng.standard_normal(lead + (n, n))

    (lead_a, lead_b), lead = shapes.input_shapes, shapes.result_shape
    a, b = draw(lead_a), draw(lead_b)
    A, B = (np.broadcast_to(x, lead + (n, n)) for x in (a, b))
    expected = [frobenius(A[i] - B[i]) / (1.0 + frobenius(A[i]))
                for i in np.ndindex(lead)]
    found = stack_distances(a, b)
    assert found.shape == lead
    assert np.ravel(found).tolist() == expected


# (n, per-agent input dimensions): the stacked kernel pads unequal m_i
# and skips the padding when every m_i is the same.
MIXED = [(1, (1, 2)), (1, (2, 1, 3)), (2, (1, 2)), (3, (2, 1, 3)),
         (2, (2, 1)), (2, (1, 1)), (3, (2, 2, 2))]


@st.composite
def mixed_games(draw):
    n, dims = draw(st.sampled_from(MIXED))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = rng.uniform(-2.0, 2.0, (n, n))
    B = [rng.uniform(-1.0, 1.0, (n, m)) for m in dims]
    Q, R = [], []
    for m in dims:
        g, h = rng.standard_normal((n, n)), rng.standard_normal((m, m))
        Q.append(g @ g.T + 0.1 * np.eye(n))
        R.append(h @ h.T + 0.1 * np.eye(m))
    game = lq.GameSpec(A, B, Q, R)
    assume(lq.validate_game(game).ok)
    return game, random_terminal(game, rng)


def stage_system(p, game):
    """The stacked gain system M K = rhs at p, block by block."""
    PB = [Bi.T @ Pi for Bi, Pi in zip(game.B, p)]
    M = np.block([[PB[i] @ Bj + (game.R[i] if i == j else 0.0)
                   for j, Bj in enumerate(game.B)]
                  for i in range(game.num_agents)])
    return M, np.vstack([PBi @ game.A for PBi in PB])


def reference_step(p, game):
    """The stage map of the riccati module docstring, agent by agent."""
    M, rhs = stage_system(p, game)
    K = lu_solve(lu_factor(M), rhs)
    ends = np.cumsum(game.input_dims)
    gains = np.split(K, ends[:-1])
    Acl = game.A
    for Bj, Kj in zip(game.B, gains):
        Acl = Acl - Bj @ Kj
    values = [Qi + Ki.T @ Ri @ Ki + Acl.T @ Pi @ Acl
              for Qi, Ri, Ki, Pi in zip(game.Q, game.R, gains, p)]
    return [0.5 * (v + v.T) for v in values], gains


@PROPERTY
@given(st.one_of(games(), mixed_games()))
def test_stage_solve_residual_and_explicit_update(case):
    game, p = case
    image, gains = lq.riccati_step(p, game)
    M, rhs = stage_system(p, game)
    K = np.vstack(list(gains))
    assert np.linalg.norm(M @ K - rhs) <= 1e-12 * np.linalg.norm(rhs)
    # Criterion 9's explicit form of each agent's update, here also over
    # unequal input widths.
    for i in range(game.num_agents):
        Abar = lq.partial_closed_loop(game, gains, i)
        Bi, Pi = game.B[i], np.asarray(p[i])
        G = np.linalg.inv(game.R[i] + Bi.T @ Pi @ Bi)
        explicit = (game.Q[i] + Abar.T @ Pi @ Abar
                    - Abar.T @ Pi @ Bi @ G @ Bi.T @ Pi @ Abar)
        a = np.asarray(image[i])
        assert (np.linalg.norm(a - explicit)
                <= 1e-10 * (1.0 + np.linalg.norm(a)))


@PROPERTY
@given(mixed_games(), st.integers(0, 3))
def test_riccati_step_matches_reference_per_agent(case, steps):
    game, p = case
    for _ in range(steps):
        p, _ = lq.riccati_step(p, game)
    image, gains = lq.riccati_step(p, game)
    # Both sides of the kernel's width branch are drawn.
    assert ((game._stage.padded_rows is None)
            == (len(set(game.input_dims)) == 1))
    # Entries are built on first read: read-only, of the right shapes and
    # bitwise equal to the eager construction from copies.
    eager_values = lq.PTuple([np.array(m) for m in image.stack])
    assert [k.shape for k in gains] == [(m, game.n) for m in game.input_dims]
    eager_gains = lq.GainTuple([np.array(k) for k in gains])
    for lazy, eager in ((image, eager_values), (gains, eager_gains)):
        assert all(not m.flags.writeable for m in lazy)
        assert [m.tobytes() for m in lazy] == [m.tobytes() for m in eager]
    ref_values, ref_gains = reference_step(p, game)
    for got, ref in zip([*image, *gains], [*ref_values, *ref_gains]):
        if game.n == 1:
            assert got.tobytes() == ref.tobytes()
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
    for m in image:
        assert np.array_equal(m, m.T)


def frozen_stage_step(p, game):
    """A frozen copy of the single-stack stage map's arithmetic: the same
    numpy and LAPACK calls on the same array layouts, in the same order
    (the stacked gain system, gathered out of the agents' padded rows when
    their widths differ, one gesv, the closed loop one agent at a time,
    Q + K'RK + Acl'PAcl, then 0.5 * (V + V')). Raises SingularStageSystem
    where the step must."""
    N, n, dims = game.num_agents, game.n, game.input_dims
    mb, total = max(dims), sum(dims)
    B, R = np.zeros((N, n, mb)), np.zeros((N, mb, mb))
    R_block = np.zeros((total, total))
    ends = np.cumsum((0,) + dims)
    for i, (b, r, m) in enumerate(zip(game.B, game.R, dims)):
        B[i, :, :m], R[i, :m, :m] = b, r
        R_block[ends[i]:ends[i + 1], ends[i]:ends[i + 1]] = r
    padded = total != N * mb
    real = np.concatenate([np.arange(i * mb, i * mb + m)
                           for i, m in enumerate(dims)])
    P = p.stack
    system = (B.transpose(0, 2, 1) @ P @ np.hstack([*game.B, game.A]))
    system = system.reshape(N * mb, total + n)
    if padded:
        system = system[real, :]
    M = system[:, :total]
    M += R_block
    anorm = riccati._lange("1", M)
    lu, _, gains, info = riccati._gesv(M, system[:, total:])
    if info != 0 or not np.isfinite(anorm):
        raise SingularStageSystem(0.0)
    rcond = float(riccati._gecon(lu, anorm, "1")[0])
    if rcond < riccati.SINGULARITY_RCOND:
        raise SingularStageSystem(rcond)
    if padded:
        K = np.zeros((N * mb, n))
        K[real, :] = gains
        K = K.reshape(N, mb, n)
    else:
        K = gains.reshape(N, mb, n)
    BK = B @ K
    Acl = game.A - BK[..., 0, :, :]
    for j in range(1, N):
        Acl -= BK[..., j, :, :]
    values = np.stack(game.Q) + K.mT @ R @ K
    values += Acl.mT @ P @ Acl
    return 0.5 * (values + values.swapaxes(-1, -2)), gains


@PROPERTY
@given(st.one_of(games(), mixed_games()), st.integers(0, 3))
def test_riccati_step_bits_match_frozen_stage_step(case, steps):
    """Byte equality at every n, not just the n = 1 of the reference test
    above: a re-associated product or reordered sum would change bits."""
    game, p = case
    q = p
    for _ in range(steps + 1):
        try:
            want_values, want_gains = frozen_stage_step(q, game)
        except SingularStageSystem as err:
            with pytest.raises(SingularStageSystem) as got:
                lq.riccati_step(p, game)
            assert got.value.rcond == err.rcond
            return
        p, gains = lq.riccati_step(p, game)
        assert p.stack.tobytes() == want_values.tobytes()
        assert gains.stack.tobytes() == want_gains.tobytes()
        q = lq.PTuple._trusted(want_values)


# A batch of one, of two, and one longer than any SIMD width.
BATCH_SIZES = st.sampled_from([1, 2, 37])


@PROPERTY
@given(st.one_of(games(), mixed_games()), BATCH_SIZES,
       st.integers(0, 2 ** 32 - 1))
def test_batched_stage_map_matches_riccati_step(case, size, seed):
    game, p = case
    rng = np.random.default_rng(seed)
    members = [p] + [random_terminal(game, rng) for _ in range(size - 1)]
    stacks = np.stack([q.stack for q in members])
    values, gains = _stage_map_batch(game, stacks)
    assert values.shape == (size, *p.stack.shape)
    scalar = game.n == 1 and set(game.input_dims) == {1}
    for q, v, k in zip(members, values, gains):
        try:
            image, ref = lq.riccati_step(q, game)
        except lq.SingularStageSystem:
            continue            # the batch has no rcond check to match
        if scalar:
            assert v.tobytes() == image.stack.tobytes()
            assert k.tobytes() == ref.stack.tobytes()
            continue
        # The batch solves through numpy's LAPACK, riccati_step through
        # scipy's: their LU rounding differs, amplified by the condition
        # number of the stage matrix.
        tol = max(1e-13, 1e-16 * np.linalg.cond(stage_system(q, game)[0], 1))
        for got, want in ((v, image.stack), (k, ref.stack)):
            assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)


@PROPERTY
@given(st.sampled_from([1, 2]), st.sampled_from([1, 2]), BATCH_SIZES,
       st.integers(0, 2 ** 32 - 1))
def test_singular_batch_member_leaves_the_others_alone(n, m, size, seed):
    rng = np.random.default_rng(seed)
    # Agent 0 has B = R = I, so the values (-I, 0) zero the first n
    # columns of the stage matrix: it is exactly singular.
    game = lq.GameSpec(rng.uniform(-2.0, 2.0, (n, n)),
                       [np.eye(n), rng.uniform(-1.0, 1.0, (n, m))],
                       [np.eye(n), np.eye(n)],
                       [np.eye(n), (1.0 + rng.uniform()) * np.eye(m)])
    singular = lq.PTuple([-np.eye(n), np.zeros((n, n))])
    with pytest.raises(lq.SingularStageSystem):
        lq.riccati_step(singular, game)
    stacks = np.stack([random_terminal(game, rng).stack for _ in range(size)])
    at = int(rng.integers(size))
    batch = stacks.copy()
    batch[at] = singular.stack
    values, gains = _stage_map_batch(game, batch)
    assert not np.isfinite(values[at]).any()
    assert not np.isfinite(gains[at]).any()
    others = np.arange(size) != at
    ref_values, ref_gains = _stage_map_batch(game, stacks[others])
    assert values[others].tobytes() == ref_values.tobytes()
    assert gains[others].tobytes() == ref_gains.tobytes()


@PROPERTY
@given(st.one_of(games(), mixed_games()), st.integers(1, 300))
def test_classify_always_returns_a_verdict(case, horizon):
    game, terminal = case
    assert lq.validate_terminal(game, terminal).ok
    verdict = lq.classify(game, terminal, lq.ClassifyOptions(horizon=horizon))
    assert verdict.verdict in VERDICTS


def _rel(a, b) -> float:
    return float(np.linalg.norm(a - b) / (1.0 + np.linalg.norm(a)))


def _check_recursion_norms(trace, visited=None):
    """The termination record's residual and sup norm, recomputed with
    np.linalg.norm over every state of the run: the fully stored trace,
    or visited, the states of a run whose trace keeps a ring buffer."""
    states = [p.stack for p in (trace.p_states if visited is None
                                else visited)]
    term = trace.terminated
    assert len(states) == term.steps + 1
    assert term.sup_norm == max(float(np.linalg.norm(m))
                                for stack in states for m in stack)
    if term.steps == 0:
        assert term.final_residual == -1.0
    else:
        assert term.final_residual == max(
            _rel(a, b) for a, b in zip(states[-2], states[-1]))


def _bits(x):
    return np.float64(x).tobytes() if isinstance(x, float) else x


def _assert_same_record(a, b):
    """Termination records equal field by field, floats bit for bit."""
    for f in fields(lq.TerminationRecord):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert type(x) is type(y), f.name
        assert _bits(x) == _bits(y), f.name


def _check_no_stop_record(game, terminal, horizon, trace):
    """A run without a tolerance (trace) records what a run at tol 0,
    which reads every step's change and never stops on it, records."""
    never = lq.run_recursion(game, terminal, horizon, tol=0.0)
    _assert_same_record(trace.terminated, never.terminated)


@PROPERTY
@given(st.one_of(games(), mixed_games()), st.integers(0, 200))
def test_recursion_norms_match_numpy(case, horizon):
    # Both kinds of run: a tolerance reads the change of every step, and
    # without one only the last step's change is taken.
    game, terminal = case
    _check_recursion_norms(lq.run_recursion(game, terminal, horizon,
                                            tol=CONV_TOL))
    trace = lq.run_recursion(game, terminal, horizon)
    _check_recursion_norms(trace)
    _check_no_stop_record(game, terminal, horizon, trace)


@pytest.mark.parametrize("tol", [None, CONV_TOL],
                         ids=["no-stop", "convergence-stop"])
def test_recursion_norms_match_numpy_with_a_ring_buffer(tol, found_cycle):
    # A cycle never converges, so both runs take every step and keep only
    # the trailing ring of states.
    game, terminal, _ = found_cycle
    horizon = FULL_STORAGE_LIMIT + 3
    trace = lq.run_recursion(game, terminal, horizon, tol=tol)
    assert trace.terminated.reason == "completed"
    assert trace.first_step > 0
    visited = [terminal]
    for _ in range(horizon):
        visited.append(lq.riccati_step(visited[-1], game)[0])
    assert _same([p.stack for p in trace.p_states],
                 [p.stack for p in visited[trace.first_step:]])
    assert trace.terminated.final_residual > 0.0
    _check_recursion_norms(trace, visited)
    if tol is None:
        _check_no_stop_record(game, terminal, horizon, trace)


@pytest.mark.parametrize("game, terminal, reason", [
    # Uncontrolled and unstable: P grows by A^2 every step.
    (lq.GameSpec(2, [[0]], [1], [1]), [1.0], "diverged"),
    # A = 0 makes the first image Q exactly; at P = (-1/2, -1/2) the
    # stage matrix [[1 + P1, P1], [P2, 1 + P2]] has determinant 0.
    (lq.GameSpec(0, [1, 1], [-0.5, -0.5], [1, 1]), [1.0, 1.0], "singular"),
], ids=["diverged", "singular"])
def test_recursion_norms_match_numpy_on_early_stops(game, terminal, reason):
    trace = lq.run_recursion(game, lq.PTuple(terminal), 1_000)
    assert trace.terminated.reason == reason
    assert trace.terminated.steps >= 1
    _check_recursion_norms(trace)
    _check_no_stop_record(game, lq.PTuple(terminal), 1_000, trace)


def reference_period(states, tol, max_period, window):
    """_minimal_period as a plain scan: every pair of every period, in
    ascending L."""
    S = len(states) - 1
    for L in range(1, max_period + 1):
        need = window * L
        if need + L > S + 1:
            return None
        if all(not states[s].distance(states[s + L]) >= tol
               for s in range(S - L, S - L - need, -1)):
            return L
    return None


def _periods(states):
    stacked = np.stack([p.stack for p in states])
    return [_minimal_period(stacked, CYCLE_TOL, MAX_PERIOD, CYCLE_WINDOW),
            reference_period(states, CYCLE_TOL, MAX_PERIOD, CYCLE_WINDOW)]


@PROPERTY
@given(st.one_of(games(), mixed_games()), st.integers(1, 400))
def test_minimal_period_matches_pairwise_scan(case, length):
    game, terminal = case
    states = lq.run_recursion(game, terminal, 400).p_states[:length]
    found, expected = _periods(states)
    assert found == expected


def test_minimal_period_matches_pairwise_scan_on_a_cycle(found_cycle):
    game, terminal, cert = found_cycle
    states = lq.run_recursion(game, terminal, 10_000).p_states
    # The whole trace, one step shorter, and the shortest tail that holds
    # CYCLE_WINDOW + 1 periods, then one state less.
    shortest = (CYCLE_WINDOW + 1) * cert.period
    for tail in (states, states[:-1], states[-shortest:],
                 states[1 - shortest:]):
        found, expected = _periods(tail)
        assert found == expected
        assert (found == cert.period) == (len(tail) >= shortest)


def _planted(period, rng, prefix=5):
    """A trace of scalar two-agent states: a random prefix, then phases of
    the given period; state S - j is phase j % period. Agent 0 reads 0.0
    in every phase, so giving it the value t in one state puts that state
    at relative distance exactly t from its match one period earlier."""
    phases = [lq.PTuple([0.0, v]) for v in rng.uniform(1.0, 2.0, period)]
    count = (CYCLE_WINDOW + 1) * period
    return ([lq.PTuple(rng.uniform(3.0, 4.0, 2)) for _ in range(prefix)]
            + [phases[j % period] for j in range(count - 1, -1, -1)])


def test_minimal_period_on_planted_periods():
    rng = np.random.default_rng(0)
    for period in range(2, MAX_PERIOD + 1):
        states = _planted(period, rng)
        assert _periods(states) == [period, period]
        # A pair exactly at CYCLE_TOL is no match: in the first pass (the
        # last state against the one a period earlier), or in the pair
        # scan, inside the window or at its far end.
        S = len(states) - 1
        for at in (S, S - period + 1, S - CYCLE_WINDOW * period + 1):
            bent = list(states)
            bent[at] = lq.PTuple([CYCLE_TOL, bent[at][1]])
            assert bent[at - period].distance(bent[at]) == CYCLE_TOL
            found, expected = _periods(bent)
            assert found == expected != period


@PROPERTY
@given(st.one_of(games(), mixed_games()), st.integers(1, 30),
       st.integers(0, 2 ** 32 - 1))
def test_dynamic_programming_cost_identity(case, horizon, seed):
    game, terminal = case
    trace = lq.run_recursion(game, terminal, horizon)
    assume(trace.terminated.reason == "completed")
    x0 = np.random.default_rng(seed).standard_normal(game.n)
    traj = simulate(game, trace.forward_gains(horizon), x0, horizon)
    value = trace.p_states[horizon]
    for i in range(game.num_agents):
        direct = float(x0 @ np.asarray(value[i]) @ x0)
        played = horizon * finite_horizon_cost(traj, game, i, terminal)
        assert abs(played - direct) <= 1e-8 * (1.0 + abs(direct))


# ---------------------------------------------------------------------------
# the blocked recursion against a step-by-step loop

def reference_recursion(game, terminal, max_steps, tol=None):
    """run_recursion one step at a time: norms, change, divergence test and
    the count of consecutive changes below tol after every step, through
    PTuple's own norm and distance."""
    ring = max_steps > FULL_STORAGE_LIMIT
    states = deque([terminal],
                   maxlen=RING_BUFFER_SIZE + 1 if ring else None)
    gains = deque(maxlen=RING_BUFFER_SIZE if ring else None)
    p, sup, steps, run = terminal, terminal.max_norm(), 0, 0
    reason, rel, rcond = "completed", float("inf"), None
    for s in range(max_steps):
        try:
            p_new, k = lq.riccati_step(p, game)
        except SingularStageSystem as err:
            reason, rcond = "singular", err.rcond
            break
        rel = p.distance(p_new)
        states.append(p_new)
        gains.append(k)
        steps, p = s + 1, p_new
        sup = max(sup, p.max_norm())
        if p.max_norm() > DIVERGENCE_THRESHOLD:
            reason = "diverged"
            break
        if tol is not None:
            run = run + 1 if rel < tol else 0
            if run == CONV_WINDOW:
                reason = "converged"
                break
    record = lq.TerminationRecord(reason, steps,
                                  rel if np.isfinite(rel) else -1.0, rcond,
                                  sup)
    return lq.RecursionTrace(states, gains, record, steps + 1 - len(states))


def _assert_same_trace(got, want):
    """States, gain stacks and every record field equal bit for bit."""
    assert got.first_step == want.first_step
    assert _same([p.stack for p in got.p_states],
                 [p.stack for p in want.p_states])
    assert got.values.tobytes() == want.values.tobytes()
    assert _same([k.stack for k in got.gains], [k.stack for k in want.gains])
    _assert_same_record(got.terminated, want.terminated)


STOPS = {"no-stop": None, "convergence-stop": CONV_TOL, "never-fires": 0.0}


def _check_against_reference(game, terminal, horizon, monkeypatch):
    """Every tolerance against the step-by-step loop; returns the traces
    and riccati_step calls."""
    calls = []
    step = riccati.riccati_step

    def counting(*args, **kwargs):
        calls.append(None)
        return step(*args, **kwargs)

    runs = {}
    for name, tol in STOPS.items():
        want = reference_recursion(game, terminal, horizon, tol)
        monkeypatch.setattr(riccati, "riccati_step", counting)
        calls.clear()
        got = lq.run_recursion(game, terminal, horizon, tol)
        monkeypatch.setattr(riccati, "riccati_step", step)
        _assert_same_trace(got, want)
        runs[name] = got, len(calls)
    return runs


@pytest.mark.parametrize("game, terminal, horizon, expect", [
    # Fig. 1 from [1, 1]: converges at step 24 at CONV_TOL.
    (lq.GameSpec(5, [1, 1], [1, 1], [1, 2]), [1.0, 1.0], 1_000,
     ("converged", 24, 0)),
    # P grows by A^2 every step.
    (lq.GameSpec(2, [[0]], [1], [1]), [1.0], 1_000, ("diverged", 20, 0)),
    # Diverges at step 1; the steps its block takes after it overflow.
    (lq.GameSpec(1e6, [[0]], [1], [1]), [1.0], 1_000, ("diverged", 1, 0)),
    # Beyond FULL_STORAGE_LIMIT: a ring of 513 states when it diverges.
    (lq.GameSpec(1.02, [[0]], [1], [1]), [1.0], 20_000,
     ("diverged", 616, 104)),
    # The same after the ring has slid its states down three times.
    (lq.GameSpec(1.005, [[0]], [1], [1]), [1.0], 20_000,
     ("diverged", 2308, 1796)),
    # The stage matrix at the first image, Q, is exactly singular.
    (lq.GameSpec(0, [1, 1], [-0.5, -0.5], [1, 1]), [1.0, 1.0], 1_000,
     ("singular", 1, 0)),
], ids=["fig1", "diverged", "diverged-at-once", "ring-diverged",
        "ring-slid-diverged", "singular"])
def test_blocked_recursion_matches_step_by_step(game, terminal, horizon,
                                                expect, monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runs = _check_against_reference(game, lq.PTuple(terminal), horizon,
                                         monkeypatch)
    trace, calls = runs["convergence-stop"]
    assert (trace.terminated.reason, trace.steps, trace.first_step) == expect
    for trace, calls in runs.values():
        if trace.terminated.reason in ("completed", "converged"):
            assert calls == trace.steps
        elif trace.terminated.reason == "singular":
            assert calls == trace.steps + 1
        else:
            assert trace.steps <= calls < trace.steps + BLOCK_STEPS


def test_blocked_recursion_matches_step_by_step_on_a_cycle(found_cycle,
                                                           monkeypatch):
    # A ring of states slid down many times, every step taken.
    game, terminal, _ = found_cycle
    runs = _check_against_reference(game, terminal, FULL_STORAGE_LIMIT + 3,
                                    monkeypatch)
    for trace, calls in runs.values():
        assert trace.terminated.reason == "completed"
        assert calls == trace.steps == FULL_STORAGE_LIMIT + 3
        assert len(trace) == RING_BUFFER_SIZE + 1


@PROPERTY
@given(st.one_of(games(), mixed_games()), st.integers(0, 300))
def test_blocked_recursion_matches_step_by_step_on_random_games(case,
                                                                horizon):
    game, terminal = case
    for tol in STOPS.values():
        _assert_same_trace(lq.run_recursion(game, terminal, horizon, tol),
                           reference_recursion(game, terminal, horizon, tol))


FIG1 = lq.GameSpec(5, [1, 1], [1, 1], [1, 2])


@PROPERTY
@given(st.one_of(games(), mixed_games()), st.one_of(games(), mixed_games()),
       st.sampled_from(list(STOPS.values())), st.integers(0, 200),
       st.floats(0.0, 1.0))
# Two Fig. 1 runs that converge, at steps 24 and 20, the second made in
# the middle of the first's second block of steps.
@example((FIG1, lq.PTuple([1.0, 1.0])), (FIG1, lq.PTuple([1.0, 2.0])),
         CONV_TOL, 1_000, 0.6)
def test_interleaved_recursions_match_each_alone(outer, inner, tol, horizon,
                                                 where):
    # A second run made from inside one of the first's stage steps, the
    # fraction `where` of the way through it, at the same tolerance (as
    # one run may call another, or a thread start one): neither run sees
    # the other's count of small changes.
    alone = [lq.run_recursion(game, terminal, horizon, tol)
             for game, terminal in (outer, inner)]
    at = 1 + int(where * max(alone[0].steps - 1, 0))
    nested = []
    step = riccati.riccati_step

    def interleaving(p, game):
        nested.append(None)
        if len(nested) == at:
            nested.append(lq.run_recursion(*inner, horizon, tol))
        return step(p, game)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(riccati, "riccati_step", interleaving)
        first = lq.run_recursion(*outer, horizon, tol)
    _assert_same_trace(first, alone[0])
    runs = [r for r in nested if r is not None]
    assert len(runs) == 1 or (not runs and horizon == 0)
    for run in runs:
        _assert_same_trace(run, alone[1])


# Two blocks of steps, many blocks, a ring that has slid, and a ring
# that ends full, right before its next slide.
@pytest.mark.parametrize("horizon", [30, 773, FULL_STORAGE_LIMIT + 3,
                                     10_240])
def test_finished_trace_storage_is_read_only(fig1_game, horizon):
    trace = lq.run_recursion(fig1_game, lq.PTuple([1.0, 2.0]), horizon)
    assert len(trace.values) == len(trace)
    for stack in (trace.values, trace.p_states[1].stack,
                  trace.p_states[-1].stack):
        with pytest.raises(ValueError):
            stack[0] = 0.0
        with pytest.raises(ValueError):
            stack.setflags(write=True)
    # The states are views of the storage, not copies.
    assert trace.p_states[-1].stack.base is not None


# The buffer a run allocates is its whole storage: exactly the states
# when fully stored, also after a stop (a copy of the rows written), and
# at most the ring's 2 * RING_BUFFER_SIZE + 1 states beyond
# FULL_STORAGE_LIMIT.
@pytest.mark.parametrize("game, terminal, horizon, tol, expect", [
    (lq.GameSpec(5, [1, 1], [1, 1], [1, 2]), [1.0, 1.0], FULL_STORAGE_LIMIT,
     CONV_TOL, ("converged", 24)),
    (lq.GameSpec(2, [[0]], [1], [1]), [1.0], 1_000, None, ("diverged", 20)),
    (lq.GameSpec(5, [1, 1], [1, 1], [1, 2]), [1.0, 2.0], 2_000, None,
     ("completed", 2_000)),
    (lq.GameSpec(1.005, [[0]], [1], [1]), [1.0], 20_000, None,
     ("diverged", 2308)),
    (lq.GameSpec(5, [1, 1], [1, 1], [1, 2]), [1.0, 1.0], 20_000, CONV_TOL,
     ("converged", 24)),
    (lq.GameSpec(5, [1, 1], [1, 1], [1, 2]), [1.0, 2.0],
     FULL_STORAGE_LIMIT + 3, None, ("completed", 10_003)),
], ids=["converged", "diverged", "completed", "ring-diverged",
        "ring-converged", "ring-completed"])
def test_trace_storage_is_bounded_by_its_buffer(game, terminal, horizon,
                                                 tol, expect):
    trace = lq.run_recursion(game, lq.PTuple(terminal), horizon, tol)
    assert (trace.terminated.reason, trace.steps) == expect
    storage = trace.values.base
    assert all(p.stack.base is storage for p in trace.p_states)
    if horizon > FULL_STORAGE_LIMIT:
        assert len(trace) == min(trace.steps, RING_BUFFER_SIZE) + 1
        assert len(trace) <= len(storage) <= 2 * RING_BUFFER_SIZE + 1
    else:
        assert storage.shape == trace.values.shape


def test_long_trace_holds_its_states_once():
    # A 10 000-step run fills the one buffer it allocated when it
    # started, 10 001 states: the values are a view of that buffer,
    # exactly the states, and every state is a view of it too, so the
    # trace holds each state once.
    rng = _rng_for(0, 2, 0)
    game = random_game(3, 3, 2, rng)
    trace = lq.run_recursion(game, random_terminal(game, rng), 10_000)
    assert trace.terminated.reason == "completed"
    storage = trace.values.base
    assert storage.nbytes == trace.values.nbytes == 10_001 * 2 * 9 * 8
    assert all(p.stack.base is storage for p in trace.p_states)
