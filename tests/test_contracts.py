"""Properties that pin the engine's single-rule and single-kernel contracts.

Over small random valid games: classify's convergence verdict is the one
detect_convergence finds on the full trace, riccati_step solves the same
stage system that assemble_stage_system exposes, value matrices come back
exactly symmetric, and the norm helpers reproduce np.linalg.norm bit for
bit.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

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
def test_riccati_step_is_the_stage_system_solve(case, steps):
    game, p = case
    for _ in range(steps):
        p, _ = lq.riccati_step(p, game)
    image, gains = lq.riccati_step(p, game)
    assert _same(gains, lq.solve_stage_gains(lq.assemble_stage_system(p, game)))
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
    other = lq.stage_gains(q, game)
    assert gains.distance(other) == max(
        float(np.linalg.norm(a - b) / (1.0 + np.linalg.norm(a)))
        for a, b in zip(gains, other))
