"""Closed-loop rollouts, finite-horizon costs, and deviation tests.

Gains act through u^i_t = -K^i_t x_t, so the state evolves as
x_{t+1} = (A - sum_i B^i K^i_t) x_t + w_t. Noise, when enabled, is drawn
from a counter-based generator (Philox) so identical seeds reproduce
trajectories bitwise.
"""

from dataclasses import dataclass

import numpy as np

from .model import GainTuple, GameSpec, PTuple
from .riccati import RecursionTrace

# Deviation sizes, cycled through, and the relative cost slack below
# which a deviation that gains counts as a violation.
DEVIATION_SCALES = (1e-3, 1e-1, 1.0)
DEVIATION_SLACK = 1e-9


@dataclass(frozen=True)
class Trajectory:
    """states has shape (T + 1, n); inputs[i] has shape (T, m_i)."""

    states: np.ndarray
    inputs: tuple[np.ndarray, ...]
    noise_seed: int | None = None

    @property
    def horizon(self) -> int:
        return self.states.shape[0] - 1


@dataclass
class DeviationReport:
    """Cost gaps J_deviating - J_equilibrium for random unilateral
    deviations of one agent; negative gaps beyond DEVIATION_SLACK are
    violations."""

    agent: int
    baseline_cost: float
    n_perturbations: int
    min_gap: float
    max_gap: float
    violations: list[tuple[int, float]]

    @property
    def ok(self) -> bool:
        return not self.violations


def _noise_factor(W: np.ndarray) -> np.ndarray:
    """Symmetric square root of a PSD covariance."""
    vals, vecs = np.linalg.eigh(W)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def simulate(game: GameSpec, schedule, x0, T: int,
             seed: int | None = None) -> Trajectory:
    """Roll out T steps under a gain schedule.

    schedule is a sequence of GainTuple: length one means a stationary
    policy reused every step, otherwise it must cover the horizon. Noise
    is drawn i.i.d. Gaussian with covariance W when W is nonzero and a
    seed is given; otherwise the rollout is deterministic.
    """
    if isinstance(schedule, GainTuple):
        schedule = [schedule]
    elif not isinstance(schedule, (list, tuple)):
        schedule = list(schedule)
    if len(schedule) != 1 and len(schedule) < T:
        raise ValueError(f"schedule has {len(schedule)} entries for horizon {T}")
    x = np.asarray(x0, dtype=float).reshape(game.n)
    noisy = seed is not None and np.any(game.W != 0.0)
    if noisy:
        rng = np.random.Generator(np.random.Philox(seed))
        noise = rng.standard_normal((T, game.n)) @ _noise_factor(game.W).T
    states = np.empty((T + 1, game.n))
    inputs = [np.empty((T, m)) for m in game.input_dims]
    states[0] = x
    for t in range(T):
        k = schedule[0] if len(schedule) == 1 else schedule[t]
        x_next = game.A @ x
        for i, (Bi, Ki) in enumerate(zip(game.B, k)):
            u = -(Ki @ x)
            inputs[i][t] = u
            x_next = x_next + Bi @ u
        if noisy:
            x_next = x_next + noise[t]
        states[t + 1] = x_next
        x = x_next
    return Trajectory(states=states, inputs=tuple(inputs), noise_seed=seed)


def finite_horizon_cost(traj: Trajectory, game: GameSpec, i: int,
                        terminal: PTuple) -> float:
    """Time-averaged quadratic cost of agent i along a trajectory:
    (1/T) (sum_t x'Q^i x + u'R^i u + x_T' Q_T^i x_T)."""
    T = traj.horizon
    Qi, Ri = game.Q[i], game.R[i]
    total = 0.0
    for t in range(T):
        x = traj.states[t]
        u = traj.inputs[i][t]
        total += float(x @ Qi @ x + u @ Ri @ u)
    xT = traj.states[T]
    total += float(xT @ np.asarray(terminal[i]) @ xT)
    return total / T


def deviation_test(game: GameSpec, trace: RecursionTrace, i: int, x0,
                   perturbations: int = 100, seed: int = 0
                   ) -> DeviationReport:
    """Check that agent i cannot gain from random unilateral deviations.

    The trace must cover a full horizon T (its gain schedule defines
    equilibrium play) and the game must be noise-free. Each perturbation
    adds independent per-step gain noise to agent i, with Frobenius size
    cycling through DEVIATION_SCALES; every deviating cost must be at
    least the equilibrium cost minus DEVIATION_SLACK * (1 + |J|).
    """
    if np.any(game.W != 0.0):
        raise ValueError("deviation test requires a noise-free game")
    if trace.terminated.reason not in ("completed", "converged") \
            or trace.first_step != 0:
        raise ValueError("deviation test needs a full-horizon trace")
    T = len(trace.gains)
    schedule = trace.forward_gains(T)
    terminal = trace.p_states[0]

    base = finite_horizon_cost(simulate(game, schedule, x0, T), game, i, terminal)
    rng = np.random.Generator(np.random.Philox(seed))
    mi, n = game.input_dims[i], game.n

    violations = []
    min_gap, max_gap = float("inf"), float("-inf")
    for k in range(perturbations):
        scale = DEVIATION_SCALES[k % len(DEVIATION_SCALES)]
        deviated = []
        for t in range(T):
            delta = rng.standard_normal((mi, n))
            norm = np.linalg.norm(delta)
            if norm > 0:
                delta *= scale / norm
            entries = list(schedule[t].entries)
            entries[i] = entries[i] + delta
            deviated.append(GainTuple(entries))
        cost = finite_horizon_cost(simulate(game, deviated, x0, T),
                                   game, i, terminal)
        gap = cost - base
        min_gap = min(min_gap, gap)
        max_gap = max(max_gap, gap)
        if gap < -DEVIATION_SLACK * (1.0 + abs(base)):
            violations.append((k, gap))

    return DeviationReport(agent=i, baseline_cost=base,
                           n_perturbations=perturbations,
                           min_gap=min_gap, max_gap=max_gap,
                           violations=violations)
