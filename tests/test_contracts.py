"""Properties that pin the engine's single-rule and single-kernel contracts.

Over small random valid games: classify's convergence verdict is the one
detect_convergence finds on the full trace, riccati_step's value
matrices come back exactly symmetric and, like its gains, read-only, the
norm helpers reproduce np.linalg.norm bit for bit, and riccati_step
matches the stage map written out agent by agent, on games whose agents
have equal input dimensions and on games where they differ, the stage
map over a batch of value stacks gives each member what riccati_step
gives it (bit for bit for scalar games) with an exactly singular member
left non-finite on its own, the gains solve the stacked stage system to
a small residual and every agent's value equals the explicit update
form, and classify gives every valid game and terminal a verdict
without raising.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import lu_factor, lu_solve

import lqgames as lq
from lqgames.experiments import VERDICTS, random_game, random_terminal
from lqgames.riccati import _stage_map_batch

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
