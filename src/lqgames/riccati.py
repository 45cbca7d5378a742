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

import ctypes
import functools
import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
from scipy.linalg import get_lapack_funcs

from .model import (GainTuple, GameSpec, PTuple, frobenius, pbh_stabilizable,
                    stack_norms, symmetrize)

# Stage solve fails when the reciprocal condition estimate drops below this.
SINGULARITY_RCOND = 1e-12
# Any value matrix whose Frobenius norm passes this stops the recursion.
DIVERGENCE_THRESHOLD = 1e12
# Traces longer than this keep only a trailing ring buffer of states.
FULL_STORAGE_LIMIT = 10_000
# Ring size: enough for cycle detection up to analysis.MAX_PERIOD.
RING_BUFFER_SIZE = 512
# Best-response iteration: relative settling tolerance and step budget.
BEST_RESPONSE_TOL = 1e-12
BEST_RESPONSE_MAX_STEPS = 100_000


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


# LAPACK routines for the float64 stage system, fetched once. gesv is
# getrf then getrs, so its solution is the one those two give.
_gesv, _gecon, _lange = get_lapack_funcs(
    ("gesv", "gecon", "lange"), (np.empty((1, 1)),))


# Prefix of the thread-count functions that numpy's and scipy's OpenBLAS
# builds export (numpy's with the 64-bit-integer suffix "64_").
_OPENBLAS = "scipy_openblas_"


@functools.cache
def _blas_thread_controls() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS bundled with
    numpy and scipy, found by their exported names through ctypes on first
    use; empty where there are none (another BLAS, another layout)."""
    controls = []
    for module in (np, scipy):
        libs = Path(module.__file__).parent.parent / f"{module.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*")):
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for suffix in ("64_", ""):
                get = getattr(handle, f"{_OPENBLAS}get_num_threads{suffix}",
                              None)
                put = getattr(handle, f"{_OPENBLAS}set_num_threads{suffix}",
                              None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    controls.append((get, put))
                    break
    return tuple(controls)


def _one_blas_thread(func):
    """Decorator: run func with every bundled OpenBLAS at one thread, and
    give each its previous count back on exit. Stage systems have a few
    dozen rows at most: threads buy nothing there, and on a busy machine
    they wait for each other several times longer than the work takes.
    Re-entrant: a nested call finds one thread and changes nothing, as
    does a process pinned by OPENBLAS_NUM_THREADS. The counts are
    process-wide, so BLAS calls other threads make meanwhile run on one
    thread too. Does nothing where no OpenBLAS control is found."""

    @functools.wraps(func)
    def guarded(*args, **kwargs):
        changed = [(put, count) for get, put in _blas_thread_controls()
                   if (count := get()) != 1]
        for put, _ in changed:
            put(1)
        try:
            return func(*args, **kwargs)
        finally:
            for put, count in changed:
                put(count)

    return guarded


class _Stage:
    """The arrays of one game (A, B, Q, R) that the stage map stacks over
    the agent axis, built once. Agent i's input dimension m_i is padded
    to the largest, mb, with zero rows and columns:

    BT           (N, mb, n)       (B^i)'
    B            (N, n, mb)       B^i
    BsA          (n, sum m + n)   [B^1 ... B^N | A]
    R_block      (sum m, sum m)   block-diagonal R^i
    R            (N, mb, mb)      R^i
    Q            (N, n, n)        Q^i
    rows         agent i's rows of the stacked gain system, as slices
    padded_rows  where those rows sit among the N * mb padded rows, or
                 None when every m_i is mb and there is no padding
    """

    __slots__ = ("A", "BT", "B", "BsA", "R_block", "R", "Q", "rows",
                 "padded_rows")

    def __init__(self, A, B, Q, R):
        N, n = len(B), A.shape[0]
        dims = [b.shape[1] for b in B]
        mb, total = max(dims), sum(dims)
        self.A = A
        self.B = np.zeros((N, n, mb))
        self.R = np.zeros((N, mb, mb))
        self.R_block = np.zeros((total, total))
        rows = []
        start = 0
        for i, (b, r, m) in enumerate(zip(B, R, dims)):
            self.B[i, :, :m] = b
            self.R[i, :m, :m] = r
            self.R_block[start:start + m, start:start + m] = r
            rows.append(slice(start, start + m))
            start += m
        self.rows = tuple(rows)
        self.padded_rows = None if total == N * mb else np.concatenate(
            [np.arange(i * mb, i * mb + m) for i, m in enumerate(dims)])
        self.BT = self.B.transpose(0, 2, 1)
        self.BsA = np.hstack([*B, A])
        self.Q = np.stack(Q)


def _solve_each(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """np.linalg.solve over a (K, m, m) stack; an exactly singular member
    comes back NaN, found by halving, instead of failing the stack."""
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        if len(M) == 1:
            return np.full(rhs.shape, np.nan)
        h = len(M) // 2
        return np.concatenate([_solve_each(M[:h], rhs[:h]),
                               _solve_each(M[h:], rhs[h:])])


def _stage_map(stage: _Stage, P: np.ndarray):
    """The stage map at next-step values P, an (N, n, n) stack or a
    (K, N, n, n) batch of them.

    Assembles the stacked gain system [M | rhs] = (B')_i P^i [B^1 ... B^N
    | A] plus block-diagonal R (gathering the real rows out of the padded
    ones when the m_i differ). One stack is LU-factored and solved in one
    gesv call, raising SingularStageSystem when the factorization fails,
    M is not finite, or the LAPACK reciprocal condition estimate of M
    (1-norm) is below SINGULARITY_RCOND. gecon has no batched form, so a
    batch goes through stacked np.linalg.solve and raises nothing: an
    exactly singular member comes back non-finite. Then forms Acl = A -
    B^1 K^1 - B^2 K^2 - ... in that order and updates every agent through
    Q^i + ((K^i)' R^i) K^i + (Acl' P^i) Acl, symmetrized. Returns values
    shaped like P and each stack's (sum m, n) stacked gains, whose rows
    stage.rows[i] are K^i.
    """
    total = len(stage.R_block)
    N, n, mb = stage.B.shape
    lead = P.shape[:-3]
    system = (stage.BT @ P @ stage.BsA).reshape(lead + (N * mb, total + n))
    if stage.padded_rows is not None:
        system = system[..., stage.padded_rows, :]
    M = system[..., :total]
    M += stage.R_block
    if lead:
        gains = _solve_each(M, system[..., total:])
    else:
        anorm = _lange("1", M)
        lu, _, gains, info = _gesv(M, system[:, total:])
        if info != 0 or not math.isfinite(anorm):
            raise SingularStageSystem(0.0)
        rcond = float(_gecon(lu, anorm, "1")[0])
        if rcond < SINGULARITY_RCOND:
            raise SingularStageSystem(rcond)

    if stage.padded_rows is None:
        K = gains.reshape(lead + (N, mb, n))
    else:
        K = np.zeros(lead + (N * mb, n))
        K[..., stage.padded_rows, :] = gains
        K = K.reshape(lead + (N, mb, n))
    # Subtract B^j K^j one agent at a time, never as A - [B^1 ... B^N] K:
    # a re-associated map leaves saddle equilibria such as Fig. 1's with
    # no exactly stationary float neighbour for pinning.
    BK = stage.B @ K
    Acl = stage.A - BK[..., 0, :, :]
    for j in range(1, N):
        Acl -= BK[..., j, :, :]
    if lead:                    # a unit agent axis to broadcast over P
        Acl = Acl[..., None, :, :]
    values = stage.Q + K.mT @ stage.R @ K
    values += Acl.mT @ P @ Acl
    return symmetrize(values), gains


def _closed_loop(A, B, K) -> np.ndarray:
    """A - sum_j B[j] K[j] as a fresh array."""
    Acl = A.copy()
    for Bj, Kj in zip(B, K):
        Acl -= Bj @ Kj
    return Acl


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
    P = Q^i + (K^i)' R^i K^i + Acl' P_next^i Acl and symmetrizes. Raises
    ValueError unless p_next holds one n x n matrix per agent.
    """
    stage = game._stage or _cache_stage(game)
    P = p_next.stack
    if P.shape != stage.Q.shape:
        # The stacked products would broadcast a single matrix silently.
        raise ValueError(f"value tuple of shape {P.shape} does not fit "
                         f"the game's {stage.Q.shape}")
    values, gains = _stage_map(stage, P)
    return PTuple._trusted(values), GainTuple._trusted(gains, stage.rows)


def _cache_stage(game: GameSpec) -> _Stage:
    """The game's stacked arrays, built on its first step and kept."""
    object.__setattr__(game, "_stage", _Stage(game.A, game.B, game.Q, game.R))
    return game._stage


def _stage_map_batch(game: GameSpec, P: np.ndarray):
    """riccati_step's arrays at a (K, N, n, n) batch of value stacks,
    raising nothing (see _stage_map); bit-identical to it for n = m_i = 1."""
    return _stage_map(game._stage or _cache_stage(game), P)


# Convergence: CONV_WINDOW consecutive relative step changes below CONV_TOL.
CONV_TOL = 1e-9
CONV_WINDOW = 10


class ConvergenceStop:
    """Stop rule firing after CONV_WINDOW consecutive relative step changes
    below `tol`. The run count restarts at step 1, so one instance can be
    reused across recursions."""

    def __init__(self, tol: float = CONV_TOL):
        self.tol = tol
        self._run = 0

    def __call__(self, step: int, rel_change: float) -> bool:
        if step == 1:
            self._run = 0
        if rel_change < self.tol:
            self._run += 1
        else:
            self._run = 0
        return self._run >= CONV_WINDOW


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
    # denominators, computed once per state. Only the stacks are read, so
    # no per-agent entries are built here. Each step takes its squared
    # norms in two vecdot calls (stack_norms' dot products) and finishes
    # them in Python floats, which round sqrt and division as numpy does.
    P = p.stack
    rows = (len(P), -1)
    norms = stack_norms(P).tolist()
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
        P_new = p_new.stack
        flat, diff = P_new.reshape(rows), (P - P_new).reshape(rows)
        new_norms = [math.sqrt(q) for q in np.vecdot(flat, flat).tolist()]
        rel = max([math.sqrt(d) / (1.0 + a) for d, a
                   in zip(np.vecdot(diff, diff).tolist(), norms)])
        states.append(p_new)
        gains.append(k)
        steps = s + 1
        top = max(new_norms)
        if top > sup:
            sup = top
        p, P, norms = p_new, P_new, new_norms
        if top > DIVERGENCE_THRESHOLD:
            reason = "diverged"
            break
        if stop is not None and stop(steps, rel):
            reason = "converged"
            break

    record = TerminationRecord(
        reason=reason, steps=steps,
        final_residual=rel if np.isfinite(rel) else -1.0, rcond=rcond,
        sup_norm=sup)
    first = steps + 1 - len(states)
    return RecursionTrace(states, gains, record, first_step=first)


def periodic_best_response(game: GameSpec, i: int, gain_cycle,
                           ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Agent i's periodic Riccati solution against a frozen gain cycle.

    gain_cycle[l] is the gain tuple played at slot l (entry i is ignored).
    Slot l's value is the stage map of agent i's single-agent game
    (A - sum_{j != i} B^j K^j_l, B^i, Q^i, R^i) at slot l+1's value
    (cyclically). Sweeps slots L-1..0 from Q^i until no slot's value moves
    by BEST_RESPONSE_TOL relative to 1 + its previous norm, and returns the
    per-slot values and the gains at them; L = 1 is the DARE. Raises
    NoConvergence, naming the agent, after BEST_RESPONSE_MAX_STEPS stage
    steps.
    """
    L = len(gain_cycle)
    stages = [_Stage(partial_closed_loop(game, k, i), (game.B[i],),
                     (game.Q[i],), (game.R[i],)) for k in gain_cycle]
    V = [stages[0].Q] * L
    for _ in range(BEST_RESPONSE_MAX_STEPS // L):
        prev = list(V)
        for l in range(L - 1, -1, -1):
            V[l], _ = _stage_map(stages[l], V[(l + 1) % L])
        change = max(frobenius(v - p) / (1.0 + frobenius(p))
                     for v, p in zip(V, prev))
        if change < BEST_RESPONSE_TOL:
            gains = [_stage_map(stages[l], V[(l + 1) % L])[1]
                     for l in range(L)]
            return [v[0] for v in V], gains
    raise NoConvergence(
        f"periodic best response for agent {i} did not settle in "
        f"{BEST_RESPONSE_MAX_STEPS} stage steps")


def best_response_dare(game: GameSpec, i: int, others: GainTuple | None,
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Single-agent stabilizing Riccati solution against frozen opponents.

    Freezes every other agent's gain (entry i of `others` is ignored;
    None means all opponents play zero) and solves agent i's discrete
    algebraic Riccati equation with (Abar, B^i, Q^i, R^i), Abar = A -
    sum_{j != i} B^j K^j: the period-one periodic_best_response, iterated
    from P = Q^i. Returns (P_i, K_i) with the closed loop Abar - B^i K_i
    strictly stable.

    Raises NotStabilizable when (Abar, B^i) fails the PBH test and
    NoConvergence when periodic_best_response's budget runs out.
    """
    if others is None:
        others = GainTuple([np.zeros((m, game.n)) for m in game.input_dims])
    if not pbh_stabilizable(partial_closed_loop(game, others, i), game.B[i]):
        raise NotStabilizable(
            f"agent {i}: residual closed loop not stabilizable through B^{i}")
    (P,), (K,) = periodic_best_response(game, i, [others])
    return P, K
