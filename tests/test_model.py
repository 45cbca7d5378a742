import numpy as np
import pytest

import lqgames as lq
from lqgames.model import DEFINITENESS_TOL, symmetrize


def test_validate_fig1_game(fig1_game):
    report = lq.validate_game(fig1_game)
    assert report.ok
    assert report.stabilizable
    assert not report.definiteness_failures
    assert not report.dimension_failures


def test_validate_unstabilizable_scalar():
    # |A| > 1 with a zero input map cannot be stabilized
    game = lq.GameSpec(2, [[0]], [1], [1])
    report = lq.validate_game(game)
    assert not report.ok
    assert not report.stabilizable


def test_validate_identity_game():
    I2 = np.eye(2)
    game = lq.GameSpec(I2, [I2], [I2], [I2])
    report = lq.validate_game(game)
    assert report.ok
    assert report.stabilizable


def test_symmetrization_on_ingestion():
    q = np.array([[1.0, 1e-12], [0.0, 1.0]])
    game = lq.GameSpec(np.eye(2), [np.eye(2)], [q], [np.eye(1).reshape(1, 1)])
    # stored Q is exactly symmetric, tiny asymmetry passes validation
    assert np.array_equal(game.Q[0], game.Q[0].T)
    report = lq.validate_game(game)
    assert not report.symmetry_failures


def test_gross_asymmetry_is_flagged():
    q = np.array([[1.0, 0.5], [0.0, 1.0]])
    game = lq.GameSpec(np.eye(2), [np.eye(2)], [q], [np.eye(2)])
    report = lq.validate_game(game)
    assert not report.ok
    assert any(name == "Q[0]" for name, _ in report.symmetry_failures)


def test_indefinite_q_is_flagged():
    game = lq.GameSpec(1, [1], [[-1]], [1])
    report = lq.validate_game(game)
    assert not report.ok
    names = [name for name, _ in report.definiteness_failures]
    assert "Q[0]" in names
    # the offending minimum eigenvalue is reported
    val = dict(report.definiteness_failures)["Q[0]"]
    assert val == pytest.approx(-1.0)


def test_psd_noise_covariance_accepted():
    W = np.zeros((2, 2))
    game = lq.GameSpec(np.eye(2), [np.eye(2)], [np.eye(2)], [np.eye(2)], W=W)
    assert lq.validate_game(game).ok
    game2 = lq.GameSpec(np.eye(2), [np.eye(2)], [np.eye(2)], [np.eye(2)],
                        W=-np.eye(2))
    report = lq.validate_game(game2)
    assert not report.ok
    assert any(name == "W" for name, _ in report.definiteness_failures)


def test_dimension_failures_reported():
    game = lq.GameSpec(np.eye(2), [np.ones((3, 1))], [np.eye(2)], [np.eye(2)])
    report = lq.validate_game(game)
    assert not report.ok
    assert report.dimension_failures


def test_gamespec_is_immutable(fig1_game):
    with pytest.raises(AttributeError):
        fig1_game.A = np.eye(1)
    with pytest.raises(ValueError):
        fig1_game.A[0, 0] = 7.0
    p = lq.PTuple([1.0, 2.0])
    with pytest.raises(AttributeError):
        p.entries = ()


def test_pbh_fig1_pair():
    assert lq.pbh_stabilizable(np.array([[5.0]]), np.array([[1.0, 1.0]]))


def test_pbh_stable_system_with_zero_input():
    assert lq.pbh_stabilizable(np.array([[0.5]]), np.array([[0.0]]))


def test_pbh_unreachable_unstable_mode():
    A = np.diag([2.0, 0.1])
    B = np.array([[0.0], [1.0]])
    # oracle: the pencil at lam = 2 is rank deficient by direct SVD
    pencil = np.hstack([A - 2.0 * np.eye(2), B])
    svals = np.linalg.svd(pencil, compute_uv=False)
    assert np.sum(svals > 1e-9 * svals[0]) == 1
    assert not lq.pbh_stabilizable(A, B)


def test_pbh_similarity_invariance():
    rng = np.random.default_rng(7)
    agree = 0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        A = rng.uniform(-2, 2, (n, n))
        B = rng.uniform(-1, 1, (n, max(1, n - 1)))
        # random similarity with condition number < 1e3
        while True:
            S = rng.standard_normal((n, n))
            if np.linalg.cond(S) < 1e3:
                break
        before = lq.pbh_stabilizable(A, B)
        after = lq.pbh_stabilizable(S @ A @ np.linalg.inv(S), S @ B)
        agree += before == after
    assert agree == 100


def test_pbh_stable_spectrum_never_fails():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        A = rng.standard_normal((n, n))
        rho = max(abs(np.linalg.eigvals(A)))
        A = A * (0.9 / (rho + 1e-12))
        assert lq.pbh_stabilizable(A, np.zeros((n, 1)))


def test_valid_game_accepted_downstream():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n, m, N = (int(rng.integers(1, 4)) for _ in range(3))
        A = rng.uniform(-2, 2, (n, n))
        B = [rng.uniform(-1, 1, (n, m)) for _ in range(N)]
        Q = [g @ g.T + 0.1 * np.eye(n)
             for g in (rng.standard_normal((n, n)) for _ in range(N))]
        R = [h @ h.T + 0.1 * np.eye(m)
             for h in (rng.standard_normal((m, m)) for _ in range(N))]
        game = lq.GameSpec(A, B, Q, R)
        if not lq.validate_game(game).ok:
            continue
        p = lq.PTuple(Q)
        out, gains = lq.riccati_step(p, game)       # must not raise on dims
        assert len(out) == N
        assert all(k.shape == (m, n) for k in gains)


def test_definiteness_threshold_is_scale_relative():
    # a large well-conditioned matrix passes even though its smallest
    # eigenvalue is far above absolute tolerance thresholds
    big = 1e8 * np.eye(3)
    game = lq.GameSpec(np.eye(3), [np.eye(3)], [big], [np.eye(3)])
    assert lq.validate_game(game).ok
    # a matrix with min eig below tol * (1 + max eig) fails
    bad = np.diag([1e8, DEFINITENESS_TOL * 1e8 / 2.0, 1e8])
    game2 = lq.GameSpec(np.eye(3), [np.eye(3)], [bad], [np.eye(3)])
    assert not lq.validate_game(game2).ok


def test_ptuple_distance_and_norms():
    p = lq.PTuple([np.eye(2), 2 * np.eye(2)])
    q = lq.PTuple([np.eye(2), 3 * np.eye(2)])
    assert p.distance(p) == 0.0
    expected = np.sqrt(2.0) / (1.0 + np.sqrt(8.0))
    assert p.distance(q) == pytest.approx(expected)
    assert p.min_eigenvalue() == pytest.approx(1.0)


def test_symmetrize_projection():
    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    s = symmetrize(m)
    assert np.array_equal(s, s.T)
    assert s[0, 1] == pytest.approx(1.0)


def test_validate_terminal_accepts_pd_tuple(fig1_game):
    report = lq.validate_terminal(fig1_game, lq.PTuple([1.0, 2.0]))
    assert report.ok
    assert not (report.dimension_failures or report.finiteness_failures
                or report.definiteness_failures)


def test_validate_terminal_reports_every_failure():
    game = lq.GameSpec(np.eye(2), [np.eye(2), np.eye(2)],
                       [np.eye(2)] * 2, [np.eye(2)] * 2)
    wrong_count = lq.validate_terminal(game, lq.PTuple([np.eye(2)]))
    assert not wrong_count.ok and wrong_count.dimension_failures
    wrong_shape = lq.validate_terminal(game, lq.PTuple([np.eye(2), 1.0]))
    assert wrong_shape.dimension_failures == [
        "P[1] has shape (1, 1), expected (2, 2)"]
    report = lq.validate_terminal(
        game, lq.PTuple([np.diag([np.nan, 1.0]), np.diag([1.0, -1.0])]))
    assert not report.ok
    assert report.finiteness_failures == ["P[0] has non-finite entries"]
    assert report.definiteness_failures == [("P[1]", -1.0)]


def test_validate_terminal_definiteness_is_scale_relative():
    tiny = DEFINITENESS_TOL * 1e8 / 2.0
    bad = lq.PTuple([np.diag([1e8, tiny]), np.eye(2)])
    game = lq.GameSpec(np.eye(2), [np.eye(2), np.eye(2)],
                       [np.eye(2)] * 2, [np.eye(2)] * 2)
    assert not lq.validate_terminal(game, bad).ok
    assert lq.validate_terminal(game, lq.PTuple([np.eye(2) * 1e-6] * 2)).ok


def test_non_square_game_matrix_is_a_shape_failure():
    game = lq.GameSpec(np.eye(2), [np.eye(2)], [[[1.0, 0.0]]], [np.eye(2)])
    # kept as given, not broadcast against its transpose into a 2x2
    assert game.Q[0].tobytes() == np.array([[1.0, 0.0]]).tobytes()
    assert game.asymmetry["Q[0]"] == 0.0
    report = lq.validate_game(game)
    assert not report.ok
    assert report.dimension_failures == [
        "Q[0] has shape (1, 2), expected (2, 2)"]
    assert not (report.symmetry_failures or report.definiteness_failures)
    assert report.failure_text() == "Q[0] has shape (1, 2), expected (2, 2)"


def test_non_square_terminal_entry_is_a_shape_failure():
    game = lq.GameSpec(np.eye(2), [np.eye(2)], [np.eye(2)], [np.eye(2)])
    terminal = lq.PTuple([[[1.0, 0.0]]])
    assert terminal[0].shape == (1, 2)
    report = lq.validate_terminal(game, terminal)
    assert not report.ok
    assert report.dimension_failures == [
        "P[0] has shape (1, 2), expected (2, 2)"]
    assert not (report.finiteness_failures or report.definiteness_failures)


def test_validate_terminal_checks_well_shaped_entries_beside_a_misfit():
    game = lq.GameSpec(np.eye(2), [np.eye(2)] * 3, [np.eye(2)] * 3,
                       [np.eye(2)] * 3)
    report = lq.validate_terminal(game, lq.PTuple(
        [np.diag([1.0, -2.0]), [[1.0, 0.0]], np.diag([np.inf, 1.0])]))
    assert report.dimension_failures == [
        "P[1] has shape (1, 2), expected (2, 2)"]
    assert report.finiteness_failures == ["P[2] has non-finite entries"]
    assert report.definiteness_failures == [("P[0]", -2.0)]
