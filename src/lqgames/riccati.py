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
from dataclasses import dataclass, field

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

    def __init__(self, rcond: float, step: int | None = None):
        self.rcond = rcond
        self.step = step
        where = f" at step {step}" if step is not None else ""
        super().__init__(f"stage-gain system singular{where} (rcond={rcond:.3e})")


class NotStabilizable(RuntimeError):
    """A required (state matrix, input map) pair fails the PBH test."""


class NoConvergence(RuntimeError):
    """An iterative solver exhausted its budget before converging."""


@dataclass(frozen=True)
class StageSystem:
    """Stacked stage-gain system M K = rhs with a conditioning estimate.

    M has shape (sum m_i, sum m_i), rhs has shape (sum m_i, n), and
    input_dims records the block row sizes used to split the solution.
    The LU factorization behind rcond_estimate is cached for the solve.
    """

    M: np.ndarray
    rhs: np.ndarray
    rcond_estimate: float
    input_dims: tuple[int, ...]
    _factor: tuple | None = field(default=None, repr=False, compare=False)


@dataclass
class TerminationRecord:
    """Why a recursion ended: 'completed', 'converged', 'stopped',
    'diverged', or 'singular'. sup_norm is the largest agent Frobenius
    norm over every state visited, terminal included, also when the trace
    keeps only a ring buffer."""

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


def _stage_kernel(p_next: PTuple, game: GameSpec):
    """Assemble and factor the stacked stage system at p_next.

    Returns (M, rhs, rcond, factor) with factor = (lu, piv), or None and
    rcond 0 when the factorization fails or M is not finite. The 1-norm
    is computed as np.linalg.norm(M, 1) computes it.
    """
    dims = game.input_dims
    offsets = [0]
    for m in dims:
        offsets.append(offsets[-1] + m)
    total = offsets[-1]
    M = np.empty((total, total))
    rhs = np.empty((total, game.n))
    for i, Bi in enumerate(game.B):
        PB = Bi.T @ p_next[i]          # (m_i, n), reused across blocks
        ri, rj = offsets[i], offsets[i + 1]
        for j, Bj in enumerate(game.B):
            block = PB @ Bj
            if i == j:
                block = block + game.R[i]
            M[ri:rj, offsets[j]:offsets[j + 1]] = block
        rhs[ri:rj, :] = PB @ game.A
    anorm = float(np.add.reduce(np.abs(M), axis=0).max(initial=0.0))
    lu, piv, info = _getrf(M)            # M itself is left intact
    if info > 0 or not math.isfinite(anorm):
        return M, rhs, 0.0, None
    return M, rhs, float(_gecon(lu, anorm, norm="1")[0]), (lu, piv)


def _stage_solve(rhs, rcond: float, factor, dims) -> list[np.ndarray]:
    """Per-agent gain blocks of the factored stage system (fresh arrays)."""
    if rcond < SINGULARITY_RCOND or factor is None:
        raise SingularStageSystem(rcond)
    stacked, info = _getrs(factor[0], factor[1], rhs)
    if info != 0:
        raise SingularStageSystem(rcond)
    out = []
    row = 0
    for m in dims:
        out.append(np.array(stacked[row:row + m, :]))
        row += m
    return out


def assemble_stage_system(p_next: PTuple, game: GameSpec) -> StageSystem:
    """Build the stacked stage-gain system from next-step value matrices.

    The reciprocal condition estimate comes from the LAPACK 1-norm
    estimator on the LU factorization, which the solve then reuses.
    """
    M, rhs, rcond, factor = _stage_kernel(p_next, game)
    return StageSystem(M=M, rhs=rhs, rcond_estimate=rcond,
                       input_dims=game.input_dims, _factor=factor)


def solve_stage_gains(sys: StageSystem) -> GainTuple:
    """Solve M K = rhs and split the stacked solution into per-agent gains.

    Raises SingularStageSystem when the system is too ill-conditioned for
    the gains to mean anything.
    """
    return GainTuple._trusted(_stage_solve(sys.rhs, sys.rcond_estimate,
                                           sys._factor, sys.input_dims))


def closed_loop(game: GameSpec, gains: GainTuple) -> np.ndarray:
    """Joint closed-loop matrix A - sum_j B^j K^j."""
    Acl = game.A.copy()
    for Bj, Kj in zip(game.B, gains):
        Acl -= Bj @ Kj
    return Acl


def partial_closed_loop(game: GameSpec, gains: GainTuple, i: int) -> np.ndarray:
    """Closed loop with agent i's input removed: A - sum_{j != i} B^j K^j."""
    Acl = game.A.copy()
    for j, (Bj, Kj) in enumerate(zip(game.B, gains)):
        if j != i:
            Acl -= Bj @ Kj
    return Acl


def riccati_step(p_next: PTuple, game: GameSpec) -> tuple[PTuple, GainTuple]:
    """One backward step of the coupled value recursion.

    Solves the stage-gain system at p_next, then updates every agent via
    P = Q^i + (K^i)' R^i K^i + Acl' P_next^i Acl and symmetrizes.
    """
    _, rhs, rcond, factor = _stage_kernel(p_next, game)
    gains = _stage_solve(rhs, rcond, factor, game.input_dims)
    Acl = closed_loop(game, gains)
    entries = []
    for Ki, Qi, Ri, Pi in zip(gains, game.Q, game.R, p_next.entries):
        P = Qi + Ki.T @ Ri @ Ki + Acl.T @ Pi @ Acl
        entries.append(symmetrize(P))
    return PTuple._trusted(entries), GainTuple._trusted(gains)


class ConvergenceStop:
    """Stop rule firing after `window` consecutive relative step changes
    below `tol`. The run count restarts at step 1, so one instance can be
    reused across recursions."""

    reason = "converged"

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
                  stop=None, keep: int | None = None) -> RecursionTrace:
    """Iterate the backward map from a terminal value tuple.

    Records every state and gain up to FULL_STORAGE_LIMIT steps; longer
    runs retain a trailing ring buffer (`keep` overrides its size). Stops
    early on divergence (norm above DIVERGENCE_THRESHOLD), a singular
    stage, or when the stop rule returns True; the termination record says
    which and carries the sup norm over every state visited, terminal
    included. Early stops are recorded, never raised.
    """
    if keep is None:
        keep = RING_BUFFER_SIZE
    ring = max_steps > FULL_STORAGE_LIMIT
    states = deque(maxlen=keep + 1) if ring else []
    gains = deque(maxlen=keep) if ring else []

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
            reason = getattr(stop, "reason", "stopped")
            break

    record = TerminationRecord(
        reason=reason, steps=steps,
        final_residual=rel if np.isfinite(rel) else -1.0, rcond=rcond,
        sup_norm=sup)
    first = steps + 1 - len(states)
    return RecursionTrace(states, gains, record, first_step=first)


def best_response_dare(game: GameSpec, i: int, others: GainTuple | None,
                       tol: float = 1e-12, max_iter: int = 100_000,
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Single-agent stabilizing Riccati solution against frozen opponents.

    Freezes every other agent's gain (entry i of `others` is ignored;
    None means all opponents play zero), forms the residual state matrix
    Abar = A - sum_{j != i} B^j K^j, and solves agent i's discrete
    algebraic Riccati equation with (Abar, B^i, Q^i, R^i) by fixed-point
    iteration from P = Q^i. Returns (P_i, K_i) with the closed loop
    Abar - B^i K_i strictly stable.

    Raises NotStabilizable when (Abar, B^i) fails the PBH test and
    NoConvergence when the iteration budget runs out.
    """
    if others is None:
        others = GainTuple([np.zeros((m, game.n)) for m in game.input_dims])
    Abar = partial_closed_loop(game, others, i)
    Bi = game.B[i]
    if not pbh_stabilizable(Abar, Bi):
        raise NotStabilizable(
            f"agent {i}: residual closed loop not stabilizable through B^{i}")
    Qi, Ri = game.Q[i], game.R[i]
    P = Qi.copy()
    for _ in range(max_iter):
        K = np.linalg.solve(Ri + Bi.T @ P @ Bi, Bi.T @ P @ Abar)
        Acl = Abar - Bi @ K
        P_new = symmetrize(Qi + K.T @ Ri @ K + Acl.T @ P @ Acl)
        change = np.linalg.norm(P_new - P) / (1.0 + np.linalg.norm(P))
        P = P_new
        if change < tol:
            K = np.linalg.solve(Ri + Bi.T @ P @ Bi, Bi.T @ P @ Abar)
            return P, K
    raise NoConvergence(
        f"best response for agent {i} did not settle in {max_iter} iterations")
