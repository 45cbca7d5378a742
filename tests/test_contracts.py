"""Properties that pin the engine's single-rule and single-kernel contracts.

Over small random valid games: classify's convergence verdict is the one
detect_convergence finds on the full trace, riccati_step's value
matrices come back exactly symmetric and, like its gains, read-only, the
norm helpers reproduce np.linalg.norm bit for bit, and riccati_step
matches the stage map written out agent by agent, on games whose agents
have equal input dimensions and on games where they differ.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import lu_factor, lu_solve

import lqgames as lq
from lqgames.experiments import random_game, random_terminal

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
        lq.run_recursion(game, terminal, opts.horizon),
        tol=opts.conv_tol, window=opts.conv_window)
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


def reference_step(p, game):
    """The stage map of the riccati module docstring, agent by agent."""
    PB = [Bi.T @ Pi for Bi, Pi in zip(game.B, p)]
    M = np.block([[PB[i] @ Bj + (game.R[i] if i == j else 0.0)
                   for j, Bj in enumerate(game.B)]
                  for i in range(game.num_agents)])
    rhs = np.vstack([PBi @ game.A for PBi in PB])
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
