"""Coupled backward value recursion for N-player LQ games.

At each stage the agents' feedback gains solve one stacked linear system:
block (i, j) of the coefficient matrix is (B^i)' P^i B^j off the diagonal
and R^i + (B^i)' P^i B^i on it, and block i of the right-hand side is
(B^i)' P^i A, where P^i is agent i's value matrix one step ahead. With the
gains in hand, each value matrix steps backward through

    P_new^i = Q^i + (K^i)' R^i K^i + Acl' P^i Acl,      Acl = A - sum_j B^j K^j.

Iterating this map from a terminal condition produces the unique
finite-horizon feedback equilibrium stage by stage; the orbit of the map is
what the analysis module classifies (fixed point, cycle, or neither).

Sign convention: gains act as u^i = -K^i x, so Acl = A - sum_j B^j K^j.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .model import (GainTuple, GameSpec, PTuple, frobenius, pbh_stabilizable,
                    symmetrize)

# Stage solve fails when the reciprocal condition estimate drops below this.
SINGULARITY_RCOND = 1e-12
# Any value matrix whose Frobenius norm passes this stops the recursion.
DIVERGENCE_THRESHOLD = 1e12
# Traces longer than this keep only a trailing ring buffer of states.
FULL_STORAGE_LIMIT = 10_000
# Ring size: enough for cycle detection up to the default max period.
RING_BUFFER_SIZE = 512


class SingularStageSystem(RuntimeError):
    """Stage-gain system numerically singular: no unique stage equilibrium."""

    def __init__(self, rcond: float):
        self.rcond = rcond
        super().__init__(f"stage-gain system singular (rcond={rcond:.3e})")


class NotStabilizable(RuntimeError):
    """A required (state matrix, input map) pair fails the PBH test."""


class NoConvergence(RuntimeError):
    """An iterative solver exhausted its budget before converging."""


@dataclass
class TerminationRecord:
    """Why a recursion ended: 'completed', 'converged', 'diverged', or
    'singular'. sup_norm is the largest agent Frobenius norm over every
    state visited, terminal included, also when the trace keeps only a
    ring buffer."""

    reason: str
    steps: int
    final_residual: float
    rcond: float | None = None
    sup_norm: float | None = None


class RecursionTrace:
    """Backward orbit of the stage map.

    p_states[s] is the value tuple after s backward steps from the terminal
    condition (p_states[0] is the terminal tuple itself) and gains[s] is the
    gain tuple produced when stepping from p_states[s] to p_states[s + 1].
    For very long runs only a trailing window of states is retained;
    first_step gives the absolute step index of p_states[0].
    """

    def __init__(self, p_states, gains, terminated: TerminationRecord,
                 first_step: int = 0):
        self.p_states = list(p_states)
        self.gains = list(gains)
        self.terminated = terminated
        self.first_step = first_step

    def __len__(self):
        return len(self.p_states)

    @property
    def steps(self) -> int:
        """Total backward steps performed."""
        return self.terminated.steps

    def final_state(self) -> PTuple:
        return self.p_states[-1]

    def forward_gains(self, horizon: int) -> list[GainTuple]:
        """Gain schedule in forward time for a horizon-T game.

        The gain applied at forward time t is the one produced at backward
        step T - 1 - t, so the schedule is the stored sequence reversed.
        Requires the full horizon to be present in the trace.
        """
        if len(self.gains) < horizon or self.first_step != 0:
            raise ValueError("trace does not cover the requested horizon")
        return [self.gains[horizon - 1 - t] for t in range(horizon)]


# LAPACK routines for the float64 stage system, fetched once.
_getrf, _gecon, _getrs = get_lapack_funcs(("getrf", "gecon", "getrs"),
                                          (np.empty((1, 1)),))


def _stage_kernel(A, B, R, P) -> list[np.ndarray]:
    """Per-agent gain blocks (fresh arrays) of the stacked stage system of
    the game (A, B, R) at next-step values P (one matrix per agent).

    Assembles the system, LU-factors it, and raises SingularStageSystem
    when the factorization fails, the matrix is not finite, or the LAPACK
    reciprocal condition estimate is below SINGULARITY_RCOND. The 1-norm
    is computed as np.linalg.norm(M, 1) computes it.
    """
    offsets = [0]
    for Bi in B:
        offsets.append(offsets[-1] + Bi.shape[1])
    total = offsets[-1]
    M = np.empty((total, total))
    rhs = np.empty((total, A.shape[0]))
    for i, Bi in enumerate(B):
        PB = Bi.T @ P[i]               # (m_i, n), reused across blocks
        ri, rj = offsets[i], offsets[i + 1]
        for j, Bj in enumerate(B):
            block = PB @ Bj
            if i == j:
                block = block + R[i]
            M[ri:rj, offsets[j]:offsets[j + 1]] = block
        rhs[ri:rj, :] = PB @ A
    anorm = float(np.add.reduce(np.abs(M), axis=0).max(initial=0.0))
    lu, piv, info = _getrf(M)
    if info > 0 or not math.isfinite(anorm):
        raise SingularStageSystem(0.0)
    rcond = float(_gecon(lu, anorm, norm="1")[0])
    if rcond < SINGULARITY_RCOND:
        raise SingularStageSystem(rcond)
    stacked, info = _getrs(lu, piv, rhs)
    if info != 0:
        raise SingularStageSystem(rcond)
    return [np.array(stacked[ri:rj, :])
            for ri, rj in zip(offsets, offsets[1:])]


def _closed_loop(A, B, K) -> np.ndarray:
    """A - sum_j B[j] K[j] as a fresh array."""
    Acl = A.copy()
    for Bj, Kj in zip(B, K):
        Acl -= Bj @ Kj
    return Acl


def _stage_map(A, B, Q, R, P):
    """The stage map of the game (A, B, Q, R) at next-step values P.

    Solves the stacked stage system for the gains K, then updates every
    agent through Q^i + (K^i)' R^i K^i + Acl' P^i Acl and symmetrizes.
    Returns (values, gains) as lists of fresh arrays; raises
    SingularStageSystem when the stage system is too ill-conditioned.
    """
    gains = _stage_kernel(A, B, R, P)
    Acl = _closed_loop(A, B, gains)
    values = []
    for Ki, Qi, Ri, Pi in zip(gains, Q, R, P):
        values.append(symmetrize(Qi + Ki.T @ Ri @ Ki + Acl.T @ Pi @ Acl))
    return values, gains


def closed_loop(game: GameSpec, gains: GainTuple) -> np.ndarray:
    """Joint closed-loop matrix A - sum_j B^j K^j."""
    return _closed_loop(game.A, game.B, gains)


def partial_closed_loop(game: GameSpec, gains: GainTuple, i: int) -> np.ndarray:
    """Closed loop with agent i's input removed: A - sum_{j != i} B^j K^j."""
    return _closed_loop(game.A, game.B[:i] + game.B[i + 1:],
                        gains[:i] + gains[i + 1:])


def riccati_step(p_next: PTuple, game: GameSpec) -> tuple[PTuple, GainTuple]:
    """One backward step of the coupled value recursion.

    Solves the stage-gain system at p_next, then updates every agent via
    P = Q^i + (K^i)' R^i K^i + Acl' P_next^i Acl and symmetrizes.
    """
    values, gains = _stage_map(game.A, game.B, game.Q, game.R,
                               p_next.entries)
    return PTuple._trusted(values), GainTuple._trusted(gains)


class ConvergenceStop:
    """Stop rule firing after `window` consecutive relative step changes
    below `tol`. The run count restarts at step 1, so one instance can be
    reused across recursions."""

    def __init__(self, tol: float = 1e-9, window: int = 10):
        if window < 1:
            raise ValueError(f"convergence window must be >= 1, got {window}")
        self.tol = tol
        self.window = window
        self._run = 0

    def __call__(self, step: int, rel_change: float, p_new: PTuple) -> bool:
        if step == 1:
            self._run = 0
        if rel_change < self.tol:
            self._run += 1
        else:
            self._run = 0
        return self._run >= self.window


def run_recursion(game: GameSpec, terminal: PTuple, max_steps: int,
                  stop: ConvergenceStop | None = None) -> RecursionTrace:
    """Iterate the backward map from a terminal value tuple.

    Records every state and gain up to FULL_STORAGE_LIMIT steps; longer
    runs retain a trailing ring buffer of RING_BUFFER_SIZE steps. Stops
    early on divergence (norm above DIVERGENCE_THRESHOLD), a singular
    stage, or convergence under the stop rule; the termination record says
    which and carries the sup norm over every state visited, terminal
    included. Early stops are recorded, never raised.
    """
    ring = max_steps > FULL_STORAGE_LIMIT
    states = deque(maxlen=RING_BUFFER_SIZE + 1) if ring else []
    gains = deque(maxlen=RING_BUFFER_SIZE) if ring else []

    p = terminal
    states.append(p)
    # Agent norms of the current state: the next step's distance
    # denominators, computed once per state.
    norms = [frobenius(m) for m in p.entries]
    sup = max(norms)
    reason = "completed"
    rel = float("inf")
    rcond = None
    steps = 0
    for s in range(max_steps):
        try:
            p_new, k = riccati_step(p, game)
        except SingularStageSystem as err:
            reason = "singular"
            rcond = err.rcond
            break
        new_norms = [frobenius(m) for m in p_new.entries]
        rel = max(frobenius(a - b) / (1.0 + na)
                  for a, b, na in zip(p.entries, p_new.entries, norms))
        states.append(p_new)
        gains.append(k)
        steps = s + 1
        top = max(new_norms)
        if top > sup:
            sup = top
        p, norms = p_new, new_norms
        if top > DIVERGENCE_THRESHOLD:
            reason = "diverged"
            break
        if stop is not None and stop(steps, rel, p_new):
            reason = "converged"
            break

    record = TerminationRecord(
        reason=reason, steps=steps,
        final_residual=rel if np.isfinite(rel) else -1.0, rcond=rcond,
        sup_norm=sup)
    first = steps + 1 - len(states)
    return RecursionTrace(states, gains, record, first_step=first)


def periodic_best_response(game: GameSpec, i: int, gain_cycle,
                           tol: float = 1e-12, max_steps: int = 100_000,
                           ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Agent i's periodic Riccati solution against a frozen gain cycle.

    gain_cycle[l] is the gain tuple played at slot l (entry i is ignored).
    Slot l's value is the stage map of agent i's single-agent game
    (A - sum_{j != i} B^j K^j_l, B^i, Q^i, R^i) at slot l+1's value
    (cyclically). Sweeps slots L-1..0 from Q^i until no slot's value moves
    by tol relative to 1 + its previous norm, and returns the per-slot
    values and the gains at them; L = 1 is the DARE. Raises NoConvergence,
    naming the agent, after max_steps stage steps.
    """
    L = len(gain_cycle)
    frozen = [partial_closed_loop(game, k, i) for k in gain_cycle]
    B, Q, R = (game.B[i],), (game.Q[i],), (game.R[i],)
    V = [game.Q[i]] * L
    for _ in range(max_steps // L):
        prev = list(V)
        for l in range(L - 1, -1, -1):
            (V[l],), _ = _stage_map(frozen[l], B, Q, R, (V[(l + 1) % L],))
        change = max(frobenius(v - p) / (1.0 + frobenius(p))
                     for v, p in zip(V, prev))
        if change < tol:
            gains = [_stage_map(frozen[l], B, Q, R, (V[(l + 1) % L],))[1][0]
                     for l in range(L)]
            return V, gains
    raise NoConvergence(
        f"periodic best response for agent {i} did not settle in "
        f"{max_steps} stage steps")


def best_response_dare(game: GameSpec, i: int, others: GainTuple | None,
                       tol: float = 1e-12, max_iter: int = 100_000,
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Single-agent stabilizing Riccati solution against frozen opponents.

    Freezes every other agent's gain (entry i of `others` is ignored;
    None means all opponents play zero) and solves agent i's discrete
    algebraic Riccati equation with (Abar, B^i, Q^i, R^i), Abar = A -
    sum_{j != i} B^j K^j: the period-one periodic_best_response, iterated
    from P = Q^i. Returns (P_i, K_i) with the closed loop Abar - B^i K_i
    strictly stable.

    Raises NotStabilizable when (Abar, B^i) fails the PBH test and
    NoConvergence when the budget of max_iter stage steps runs out.
    """
    if others is None:
        others = GainTuple([np.zeros((m, game.n)) for m in game.input_dims])
    if not pbh_stabilizable(partial_closed_loop(game, others, i), game.B[i]):
        raise NotStabilizable(
            f"agent {i}: residual closed loop not stabilizable through B^{i}")
    (P,), (K,) = periodic_best_response(game, i, [others], tol, max_iter)
    return P, K
