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
import importlib.machinery
import importlib.util
import math
import threading
from collections import deque
from dataclasses import dataclass
from operator import truediv
from pathlib import Path

import numpy as np
import scipy

from .model import (GainTuple, GameSpec, PTuple, frobenius, pbh_stabilizable,
                    stack_stacks, symmetrize)

# Stage solve fails when the reciprocal condition estimate drops below this.
SINGULARITY_RCOND = 1e-12
# Any value matrix whose Frobenius norm passes this stops the recursion.
DIVERGENCE_THRESHOLD = 1e12
# Traces longer than this keep only a trailing ring buffer of states.
FULL_STORAGE_LIMIT = 10_000
# Ring size: enough for cycle detection up to analysis.MAX_PERIOD.
RING_BUFFER_SIZE = 512
# A recursion stores its values in chunks of this many steps, each chunk
# led by a copy of the state it steps from, and checks its steps in
# blocks of at most BLOCK_STEPS (fewer when a stop rule could fire
# sooner); no block crosses a chunk.
CHUNK_STEPS = 256
BLOCK_STEPS = 16
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
    condition (p_states[0] holds the terminal values) and gains[s] is the
    gain tuple produced when stepping from p_states[s] to p_states[s + 1].
    For very long runs only a trailing window of states is retained;
    first_step gives the absolute step index of p_states[0].

    values is the states' stacks as one read-only (len(self), N, n, n)
    array. A trace is built from its states, whose stacks are stacked into
    values, or, with p_states None, from values alone, as run_recursion
    builds it; its states are then views of values, made when first read.
    """

    def __init__(self, p_states, gains, terminated: TerminationRecord,
                 first_step: int = 0, values: np.ndarray | None = None):
        if p_states is not None:
            p_states = list(p_states)
            values = stack_stacks([p.stack for p in p_states])
            values.setflags(write=False)
        self._p_states = p_states
        self.values = values
        self.gains = list(gains)
        self.terminated = terminated
        self.first_step = first_step

    def __len__(self):
        return len(self.values)

    @property
    def p_states(self) -> list[PTuple]:
        if self._p_states is None:
            self._p_states = list(map(PTuple._trusted, self.values))
        return self._p_states

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


def _load_flapack():
    """scipy's f2py LAPACK extension, loaded by file from scipy's linalg
    directory without importing the scipy.linalg package."""
    where = str(Path(scipy.__file__).parent / "linalg")
    spec = importlib.machinery.PathFinder.find_spec("_flapack", [where])
    if spec is None:
        raise ImportError(f"scipy's _flapack extension not found in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# LAPACK routines for the float64 stage system, fetched once: the f2py
# wrappers that scipy.linalg.get_lapack_funcs returns for float64. The
# scipy.linalg package is not imported because its array-API layer loads
# numpy.f2py, numpy.testing, numpy.ma and unittest, which lqgames never
# uses and which nearly double the cold start of every command. gesv is
# getrf then getrs, so its solution is the one those two give.
_flapack = _load_flapack()
_gesv, _gecon, _lange = _flapack.dgesv, _flapack.dgecon, _flapack.dlange


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


# Set while this thread is inside a _one_blas_thread call.
_blas_guard = threading.local()


def _one_blas_thread(func):
    """Decorator: run func with every bundled OpenBLAS at one thread, and
    give each its previous count back on exit. Stage systems have a few
    dozen rows at most: threads buy nothing there, and on a busy machine
    they wait for each other several times longer than the work takes.
    Re-entrant: only a thread's outermost guarded call reads, sets and
    restores the counts, so a campaign's per-trial classify pays no
    ctypes calls; a process pinned by OPENBLAS_NUM_THREADS finds one
    thread and changes nothing. The counts are process-wide, so BLAS
    calls other threads make meanwhile run on one thread too. Does
    nothing where no OpenBLAS control is found."""

    @functools.wraps(func)
    def guarded(*args, **kwargs):
        if getattr(_blas_guard, "held", False):
            return func(*args, **kwargs)
        changed = [(put, count) for get, put in _blas_thread_controls()
                   if (count := get()) != 1]
        for put, _ in changed:
            put(1)
        _blas_guard.held = True
        try:
            return func(*args, **kwargs)
        finally:
            _blas_guard.held = False
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

    def _steps_to_fire(self, step: int) -> int:
        """How many calls, starting with the one for `step`, the rule
        needs at least before it can fire; run_recursion ends a block of
        steps there at the latest."""
        return CONV_WINDOW if step == 1 else CONV_WINDOW - self._run


def _orbit_norms(values: np.ndarray) -> list[float]:
    """Agent Frobenius norms of every state in a C-ordered (S, N, n, n)
    stack as one flat list of Python floats, entry s * N + i being
    ||V_s^i||_F: one vecdot for all of them (stack_norms' dot products),
    then math.sqrt, which rounds as numpy's does."""
    flat = values.reshape(values.shape[0] * values.shape[1], -1)
    return list(map(math.sqrt, np.vecdot(flat, flat).tolist()))


def _agent_max(flat, N: int) -> list[float]:
    """The largest of each run of N consecutive entries of a flat iterable,
    taken by Python's max as the per-state code takes it (a NaN counts
    only in first place)."""
    return list(map(max, zip(*[iter(flat)] * N)))


def _orbit_changes(values: np.ndarray, norms: list) -> list[float]:
    """Relative change of each step values[s] -> values[s + 1] of a
    C-ordered (S, N, n, n) stack: the largest agent ||V_s^i - V_{s+1}^i||_F
    / (1 + ||V_s^i||_F), norms being _orbit_norms(values). One subtraction
    and one vecdot for all of them, finished in Python floats:
    bit-identical to PTuple.distance of each pair."""
    S, N, n = values.shape[:3]
    diff = (values[:-1] - values[1:]).reshape((S - 1) * N, n * n)
    scaled = map(truediv, map(math.sqrt, np.vecdot(diff, diff).tolist()),
                 map((1.0).__add__, norms))
    return _agent_max(scaled, N)


def run_recursion(game: GameSpec, terminal: PTuple, max_steps: int,
                  stop: ConvergenceStop | None = None) -> RecursionTrace:
    """Iterate the backward map from a terminal value tuple.

    Records every state and gain up to FULL_STORAGE_LIMIT steps; longer
    runs retain a trailing ring buffer of RING_BUFFER_SIZE steps. Stops
    early on divergence (norm above DIVERGENCE_THRESHOLD), a singular
    stage, or convergence under the stop rule; the termination record says
    which and carries the sup norm over every state visited, terminal
    included. Early stops are recorded, never raised.

    Each step's values are copied into storage that grows CHUNK_STEPS
    steps at a time; when the run ends the chunks are joined into the
    trace's read-only values, which its states are views of. The norms,
    changes and tests of a block of steps are taken together after it:
    one vecdot gives every state's agent norms and, with a stop rule, one
    subtraction and one vecdot every step's change. A block ends no later
    than the first step at which the stop rule could fire, so a run that
    completes or converges takes exactly its steps. Steps after a
    divergence inside a block are discarded, and overflow or invalid
    values met during the run do not warn.
    """
    ring = max_steps > FULL_STORAGE_LIMIT
    gains = deque(maxlen=RING_BUFFER_SIZE) if ring else []
    # A ring keeps the chunks that hold its states and the one being filled.
    chunks = deque(maxlen=-(-RING_BUFFER_SIZE // CHUNK_STEPS) + 1
                   if ring else None)

    p = terminal
    chunk = np.empty((min(max(max_steps, 0), CHUNK_STEPS) + 1,)
                     + p.stack.shape)
    chunk[0] = p.stack
    chunks.append(chunk)
    N = chunk.shape[1]
    row = 0                     # chunk row of the last state kept
    sup = max(_orbit_norms(chunk[:1]))
    reason = "completed"
    rel = float("inf")
    rcond = None
    steps = 0
    # Overflow or invalid values in the steps a divergence discards must
    # not warn; a kept step that meets them ends the run, diverged or
    # singular, so the record says what a warning would.
    with np.errstate(over="ignore", invalid="ignore"):
        while reason == "completed" and steps < max_steps:
            if row == len(chunk) - 1:
                last = chunk[row]
                chunk = np.empty((min(max_steps - steps, CHUNK_STEPS) + 1,)
                                 + last.shape)
                chunk[0] = last
                chunks.append(chunk)
                row = 0
            size = min(BLOCK_STEPS, max_steps - steps, len(chunk) - 1 - row)
            if stop is not None:
                size = min(size, stop._steps_to_fire(steps + 1))
            new_gains = []
            singular = None
            try:
                for slot in range(row + 1, row + size + 1):
                    p, k = riccati_step(p, game)
                    chunk[slot] = p.stack
                    new_gains.append(k)
            except SingularStageSystem as err:
                singular = err
            kept = taken = len(new_gains)
            if taken:
                block = chunk[row:row + taken + 1]
                norms = _orbit_norms(block)
                tops = _agent_max(norms[N:], N)
                if stop is not None:
                    changes = _orbit_changes(block, norms)
            for j in range(taken):
                top = tops[j]
                if top > sup:
                    sup = top
                if top > DIVERGENCE_THRESHOLD:
                    reason = "diverged"
                    kept = j + 1
                    break
                if stop is not None and stop(steps + j + 1, changes[j]):
                    reason = "converged"
                    kept = j + 1
                    break
            else:
                if singular is not None:
                    reason = "singular"
                    rcond = singular.rcond
            gains.extend(new_gains[:kept])
            if stop is not None and kept:
                rel = changes[kept - 1]
            steps += kept
            row += kept

    chunk.setflags(write=False)
    values = chunk[:row + 1]
    if len(chunks) > 1:
        parts = list(chunks)
        values = np.concatenate([parts[0]] + [c[1:] for c in parts[1:-1]]
                                + [values[1:]])
        values.setflags(write=False)
    values = values[-(min(steps, RING_BUFFER_SIZE) if ring else steps) - 1:]
    if stop is None and steps:
        tail = values[-2:]
        rel = _orbit_changes(tail, _orbit_norms(tail))[0]

    record = TerminationRecord(
        reason=reason, steps=steps,
        final_residual=rel if math.isfinite(rel) else -1.0, rcond=rcond,
        sup_norm=sup)
    return RecursionTrace(None, gains, record,
                          first_step=steps + 1 - len(values), values=values)


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
