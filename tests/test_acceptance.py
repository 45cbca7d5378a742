"""End-to-end acceptance suite.

Each test pins one release criterion at its stated tolerance and prints a
single PASS line when it holds; run with `pytest tests/test_acceptance.py -v -s`
to see the lines. The heavyweight artifacts (the three-equilibrium scalar
game's equilibrium set, the two-cell cycle census) are computed once per
session and shared.
"""

import time

import numpy as np
import pytest

import lqgames as lq
from lqgames.experiments import _rng_for, random_game, random_terminal
from conftest import random_pd_tuple

BENCH_GAME = dict(A=5, B=[1, 1], Q=[1, 1], R=[1, 2])


def _report(name: str, detail: str = ""):
    print(f"ACCEPTANCE {name}: PASS {detail}")


@pytest.fixture(scope="module")
def bench_game():
    return lq.GameSpec(**BENCH_GAME)


@pytest.fixture(scope="module")
def bench_equilibria(bench_game):
    t0 = time.time()
    eqs = lq.scalar_two_agent_equilibria(bench_game)
    eqs.search_metadata["elapsed"] = time.time() - t0
    return eqs


@pytest.fixture(scope="module")
def census_25():
    t0 = time.time()
    census = lq.cycle_census([(2, 2, 2), (3, 2, 4)], target=25,
                             master_seed=0)
    elapsed = time.time() - t0
    return census, elapsed


def test_criterion_1_three_equilibria(bench_game, bench_equilibria):
    """Scalar two-agent benchmark game has exactly 3 verified equilibria."""
    elapsed = bench_equilibria.search_metadata["elapsed"]
    assert elapsed < 10.0, f"enumeration took {elapsed:.1f}s"
    assert len(bench_equilibria) == 3
    for pt in bench_equilibria:
        lq.verify_cycle([pt.p], bench_game)
    _report("1", f"(3 equilibria, {elapsed:.2f}s)")


def test_criterion_2_terminal_cost_selection(bench_game, bench_equilibria):
    """Each equilibrium pins the 50-step recursion within 1e-8 with a
    stable closed loop at every step."""
    t0 = time.time()
    for pt in bench_equilibria:
        trace = lq.run_recursion(bench_game, pt.p, 50)
        dev = max(s.distance(pt.p) for s in trace.p_states)
        assert dev < 1e-8, f"deviation {dev:.2e}"
        for gains in trace.gains:
            assert lq.spectral_radius(lq.closed_loop(bench_game, gains)) < 1.0
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report("2", f"(max deviation 0 at all 3 points, {elapsed:.2f}s)")


def test_criterion_3_basin_reproduction(bench_game):
    """100x100 terminal-cost grid over (0.3, 30]^2: every cell converges;
    two attractors each cover >= 5% of cells, the saddle <= 0.5%."""
    t0 = time.time()
    basin = lq.run_basin_grid(bench_game, axis_samples=100,
                              q_range=(0.3, 30.0))
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"basin grid took {elapsed:.0f}s"
    total = len(basin.cells)
    assert total == 100 * 100
    converged = [c for c in basin.cells if c.verdict == "converged"]
    assert len(converged) == total
    counts = [0, 0, 0]
    for c in converged:
        assert c.label is not None, "converged cell matched no equilibrium"
        assert c.distance < 1e-6
        counts[c.label] += 1
    shares = sorted(c / total for c in counts)
    assert shares[-1] >= 0.05 and shares[-2] >= 0.05, shares
    assert shares[0] <= 0.005, shares
    _report("3", f"(label shares {[f'{s:.3f}' for s in shares]}, "
                 f"{elapsed:.0f}s)")


def test_criterion_4_scalar_ensemble():
    """1000 random scalar two-agent games: >= 99% converge."""
    t0 = time.time()
    report = lq.run_ensemble([(1, 1, 2)], 1000, master_seed=0)
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"ensemble took {elapsed:.0f}s"
    frac = report.converged_fraction((1, 1, 2))
    assert frac >= 0.99, f"converged fraction {frac}"
    _report("4", f"(converged fraction {frac:.3f}, {elapsed:.0f}s)")


@pytest.mark.slow
def test_criterion_5_regime_monotone_in_state_dimension():
    """Same seed, 1000 trials: convergence at (3,3,2) <= at (1,1,2)."""
    report = lq.run_ensemble([(1, 1, 2), (3, 3, 2)], 1000, master_seed=0)
    f1 = report.converged_fraction((1, 1, 2))
    f3 = report.converged_fraction((3, 3, 2))
    assert f3 <= f1, f"{f3} > {f1}"
    _report("5", f"(converged {f1:.3f} at n=1 vs {f3:.3f} at n=3)")


@pytest.mark.slow
def test_criterion_6_cycle_census_certification(census_25):
    """Census of 25 certified cycles per cell completes under the cap;
    every certificate meets all four tolerance gates."""
    census, elapsed = census_25
    assert elapsed < 600.0, f"census took {elapsed:.0f}s"
    for cell in ((2, 2, 2), (3, 2, 4)):
        cc = census.cells[cell]
        assert cc.complete
        assert sum(cc.histogram.values()) == 25
        assert len(cc.certificates) == 25
        for cert in cc.certificates:
            assert cert.cycle_residual < 1e-8
            assert cert.product_spectral_radius < 1.0
            # relative residual: equivalent to the absolute bound
            # 1e-6 * (1 + ||first phase||_F)
            assert cert.loop_identity_residual < 1e-6
            assert cert.periodic_br_residual < 1e-6
    _report("6", f"(50 certificates, {elapsed:.0f}s)")


@pytest.mark.slow
def test_criterion_7_unstable_phase_inside_stable_cycle(census_25):
    """At least one certified cycle has an unstable phase while the
    period product stays strictly stable."""
    census, _ = census_25
    examples = []
    for cell, cc in census.cells.items():
        for cert in cc.certificates:
            worst = max(cert.phase_spectral_radii)
            if worst >= 1.0 and cert.product_spectral_radius < 1.0:
                examples.append((cell, cert.period, worst))
    assert examples, "no cycle with an unstable phase found"
    cell, period, worst = max(examples, key=lambda e: e[2])
    _report("7", f"({len(examples)} cycles, worst phase rho {worst:.2f} "
                 f"in L={period} at {cell})")


@pytest.mark.slow
def test_criterion_8_nonconvergent_regime_with_missed_equilibrium():
    """(2,1,3) ensemble holds bounded non-convergent games, and for one of
    them the residual descent finds a verified equilibrium the recursion
    does not reach."""
    report = lq.run_ensemble([(2, 1, 3)], 1000, master_seed=0)
    stats = report.cells[(2, 1, 3)]
    assert stats.counts["bounded_nonconvergent"] >= 1, stats.counts

    # regenerate the bounded-non-convergent trials in order and search
    # them for a verified stationary point
    found = None
    examined = 0
    for t in range(1000):
        rng = _rng_for(0, 0, t)
        game = random_game(2, 1, 3, rng)
        terminal = random_terminal(game, rng)
        verdict = lq.classify(game, terminal)
        if verdict.verdict != "bounded_nonconvergent":
            continue
        assert verdict.sup_norm < 1e12
        assert verdict.steps_observed >= 10_000
        examined += 1
        eqs = lq.residual_descent_search(game, restarts=20, seed=1)
        if len(eqs) > 0:
            found = (t, game, terminal, eqs)
            break
        if examined >= 10:
            break
    assert found is not None, "no missed equilibrium located"
    t, game, terminal, eqs = found
    point = eqs.points[0]
    lq.verify_cycle([point.p], game)
    # the recursion from this trial's terminal does not reach the point
    verdict = lq.classify(game, terminal)
    assert verdict.verdict == "bounded_nonconvergent"
    _report("8", f"(trial {t}: descent found rho(Acl)="
                 f"{point.certificate.product_spectral_radius:.3f} "
                 f"equilibrium, recursion stays non-convergent)")


def test_criterion_9_alternate_form_and_dp_identities():
    """1000 random checks of the two backward-update forms at 1e-10 and
    100 random dynamic-programming cost identities at 1e-8."""
    checked = 0
    trial = 0
    while checked < 1000:
        rng = _rng_for(4242, trial)
        trial += 1
        n, m, N = (int(rng.integers(1, 4)) for _ in range(3))
        try:
            game = random_game(n, m, N, rng)
        except lq.GenerationFailed:
            continue
        p = random_pd_tuple(rng, n, N)
        stepped, gains = lq.riccati_step(p, game)
        for i in range(N):
            Abar = lq.partial_closed_loop(game, gains, i)
            Bi, Pi = game.B[i], np.asarray(p[i])
            G = np.linalg.inv(game.R[i] + Bi.T @ Pi @ Bi)
            explicit = (game.Q[i] + Abar.T @ Pi @ Abar
                        - Abar.T @ Pi @ Bi @ G @ Bi.T @ Pi @ Abar)
            a = np.asarray(stepped[i])
            assert np.linalg.norm(a - explicit) \
                <= 1e-10 * (1.0 + np.linalg.norm(a))
        checked += 1

    checked = 0
    trial = 0
    while checked < 100:
        rng = _rng_for(2468, trial)
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
        for i in range(N):
            direct = float(x0 @ np.asarray(trace.p_states[T][i]) @ x0)
            cost = T * lq.finite_horizon_cost(traj, game, i, terminal)
            assert abs(cost - direct) <= 1e-8 * (1.0 + abs(direct))
        checked += 1
    _report("9", "(1000 update-form checks, 100 cost identities)")


def test_criterion_10_deviation_optimality():
    """20 random well-posed games at T=50: 100 random unilateral
    deviations per agent never cut cost beyond 1e-9 slack."""
    games = 0
    trial = 0
    total_deviations = 0
    while games < 20:
        rng = _rng_for(1357, trial)
        trial += 1
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        N = int(rng.integers(2, 4))
        try:
            game = random_game(n, m, N, rng)
        except lq.GenerationFailed:
            continue
        terminal = random_pd_tuple(rng, n, N)
        trace = lq.run_recursion(game, terminal, 50)
        if trace.terminated.reason != "completed":
            continue        # stage solve hit a singularity: not well posed
        x0 = rng.standard_normal(n)
        for i in range(N):
            report = lq.deviation_test(game, trace, i, x0,
                                       perturbations=100, seed=trial * 31 + i)
            assert report.ok, (trial, i, report.violations)
            total_deviations += report.n_perturbations
        games += 1
    _report("10", f"(20 games, {total_deviations} deviations, 0 violations)")
