"""Game data model: system and cost matrices, validation, stabilizability.

A game is the tuple (A, B^1..B^N, Q^1..Q^N, R^1..R^N, W): shared linear
dynamics x+ = A x + sum_i B^i u^i + w, one quadratic stage cost
x'Q^i x + (u^i)'R^i u^i per agent, and optional noise covariance W.
Validation is non-throwing: ``validate_game`` reports every violated
invariant instead of raising, so arbitrary input can be inspected.
"""

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

# Matrices declared symmetric are symmetrized on ingestion; asymmetry
# beyond this relative Frobenius level is a validation failure.
SYMMETRY_TOL = 1e-8
# Positive definiteness: min eigenvalue must exceed this times (1 + max eig).
DEFINITENESS_TOL = 1e-10
# Numerical rank: singular values below this times the largest count as zero.
PBH_RANK_TOL = 1e-9
# Eigenvalues with |lam| >= 1 - this margin are treated as unstable modes.
PBH_EIG_MARGIN = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _as_square(x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        n = int(round(np.sqrt(a.size)))
        a = a.reshape(n, n) if n * n == a.size else np.atleast_2d(a)
    return a


def _as_input_map(x, n: int) -> np.ndarray:
    """Coerce an input matrix to shape (n, m): scalars become 1x1, vectors
    of length n become a single-input column."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(n, -1) if a.size % max(n, 1) == 0 else np.atleast_2d(a)
    return a


def _symmetric(x) -> np.ndarray:
    """x as a matrix, symmetrized when square. A non-square matrix is kept
    as given, not broadcast against its transpose, so that validation
    reports its shape."""
    m = _as_square(x)
    return symmetrize(m) if m.shape[-1] == m.shape[-2] else m


def _rel_asymmetry(m: np.ndarray) -> float:
    """Relative Frobenius asymmetry; 0 for a non-square matrix, which has
    no symmetric part to discard."""
    if m.shape[-1] != m.shape[-2]:
        return 0.0
    return frobenius(m - m.T) / (1.0 + frobenius(m))


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto symmetric matrices, (M + M') / 2, of a
    float matrix or of every matrix in a stack: the sum is formed once and
    halved in place, which rounds as 0.5 * (M + M') does."""
    s = m + m.mT
    s *= 0.5
    return s


def frobenius(m: np.ndarray) -> float:
    """Frobenius norm of a float matrix, bit-identical to np.linalg.norm(m)
    (the same dot product of the raveled entries) without its dispatch."""
    v = m.ravel(order="K")
    return math.sqrt(v.dot(v))


def stack_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of every matrix in a (..., n, n) stack, shaped
    (...,), in one call; bit-identical to frobenius of each (the same dot
    product of the raveled entries, then correctly rounded sqrt)."""
    *lead, rows, cols = stack.shape
    flat = stack.reshape(*lead, rows * cols)
    return np.sqrt(np.vecdot(flat, flat))


def stack_stacks(stacks) -> np.ndarray:
    """np.stack of a non-empty sequence of equal-shaped arrays, built as
    one concatenate and a reshape: the same C-ordered array, without
    np.stack's per-array view and shape check."""
    return np.concatenate(stacks).reshape((len(stacks),) + stacks[0].shape)


def stack_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Relative Frobenius distance ||a^i - b^i||_F / (1 + ||a^i||_F) of
    every matrix of a stack a from its match in a stack b, the two
    broadcast against each other over their leading axes; (..., n, n)
    stacks give a (...) array. The denominators are taken from a at its
    own shape. Bit-identical to the same formula through frobenius, pair
    by pair. Callers take the max over agents with Python's max, as
    PTuple.distance does, so that a NaN counts only in first place."""
    return stack_norms(a - b) / (1.0 + stack_norms(a))


class GameSpec:
    """Immutable N-player LQ game definition.

    Parameters accept scalars, nested lists, or arrays; matrices declared
    symmetric (Q, R, W) are symmetrized on ingestion and the discarded
    asymmetry is kept for validation; non-square ones are kept as given,
    for validate_game to report their shape. W defaults to the zero matrix.

    Attributes
    ----------
    A : (n, n) state dynamics
    B : tuple of (n, m_i) input maps, one per agent
    Q : tuple of (n, n) state cost weights
    R : tuple of (m_i, m_i) input cost weights
    W : (n, n) noise covariance
    n, num_agents, input_dims : derived dimensions
    """

    __slots__ = ("A", "B", "Q", "R", "W", "n", "num_agents", "input_dims",
                 "_stage", "asymmetry")

    def __init__(self, A, B, Q, R, W=None):
        A = _as_square(A)
        n = A.shape[0]
        B = tuple(_as_input_map(b, n) for b in B)
        Q_raw = [_as_square(q) for q in Q]
        R_raw = [_as_square(r) for r in R]
        W_raw = _as_square(W) if W is not None else np.zeros((n, n))

        asym = {}
        for i, q in enumerate(Q_raw):
            asym[f"Q[{i}]"] = _rel_asymmetry(q)
        for i, r in enumerate(R_raw):
            asym[f"R[{i}]"] = _rel_asymmetry(r)
        asym["W"] = _rel_asymmetry(W_raw)

        self.A = _freeze(A)
        self.B = tuple(_freeze(b) for b in B)
        self.Q = tuple(_freeze(_symmetric(q)) for q in Q_raw)
        self.R = tuple(_freeze(_symmetric(r)) for r in R_raw)
        self.W = _freeze(_symmetric(W_raw))
        self.n = n
        self.num_agents = len(self.B)
        self.input_dims = tuple(b.shape[1] for b in self.B)
        self._stage = None      # stacked stage arrays, built on first step
        self.asymmetry = asym

    def __setattr__(self, name, value):
        if name in self.__slots__ and hasattr(self, "asymmetry"):
            raise AttributeError("GameSpec is immutable")
        object.__setattr__(self, name, value)

    def __getstate__(self):
        # The cached stage is rebuilt on the first step after unpickling.
        return {name: getattr(self, name) for name in self.__slots__
                if name != "_stage"}

    def __setstate__(self, state):
        # Restored slot by slot, not through __init__: Q and R are stored
        # symmetrized, so re-ingesting them would reset the asymmetry
        # that validate_game reports.
        for name, value in state.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_stage", None)
        for a in (self.A, self.W, *self.B, *self.Q, *self.R):
            a.setflags(write=False)

    def __repr__(self):
        return (f"GameSpec(n={self.n}, num_agents={self.num_agents}, "
                f"input_dims={self.input_dims})")

    def stacked_inputs(self) -> np.ndarray:
        """Horizontal concatenation [B^1 ... B^N], shape (n, sum m_i)."""
        return np.hstack(self.B)


class _MatrixTuple:
    """Immutable ordered tuple of per-agent float matrices, frozen on entry.

    A tuple wrapped around one computed array builds its entries, read-only
    views of that array, when they are first read.
    """

    __slots__ = ("entries",)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __getattr__(self, name):
        # Reached only for an unset slot: build the entries on first read.
        if name != "entries":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        entries = self._views()
        object.__setattr__(self, "entries", entries)
        return entries

    def __reduce__(self):
        # Rebuilt from the entries by the public constructor, so no lazy
        # state enters a pickle (or a copy).
        return type(self), (self.entries,)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __repr__(self):
        shapes = ", ".join(f"{m.shape[0]}x{m.shape[1]}" for m in self.entries)
        return f"{type(self).__name__}({shapes})"

    def distance(self, other) -> float:
        """Max over agents of relative Frobenius distance,
        ||X^i - O^i||_F / (1 + ||X^i||_F)."""
        return max(frobenius(a - b) / (1.0 + frobenius(a))
                   for a, b in zip(self.entries, other.entries))


class PTuple(_MatrixTuple):
    """Ordered tuple of per-agent symmetric value matrices, one n x n per agent.

    Square entries are symmetrized on ingestion, and entries are copied
    into one frozen (N, n, n) stack, of which they are read-only views.
    Entries of unequal shape (invalid input, which validate_terminal
    reports) are frozen one by one and have no stack.
    """

    __slots__ = ("_stack",)

    def __init__(self, entries):
        mats = [_symmetric(e) for e in entries]
        if mats and all(m.shape == mats[0].shape for m in mats):
            stack = np.stack(mats)
            stack.setflags(write=False)
            object.__setattr__(self, "_stack", stack)
        else:
            object.__setattr__(self, "entries", tuple(map(_freeze, mats)))
            object.__setattr__(self, "_stack", None)

    @classmethod
    def _trusted(cls, stack):
        """Wrap a freshly computed, exactly symmetric (N, n, n) stack
        without copying it; it is frozen in place."""
        stack.setflags(False)   # write=False, without keyword parsing
        obj = _new(cls)
        _set_stack(obj, stack)
        return obj

    def _views(self):
        return tuple(self._stack)

    @property
    def stack(self) -> np.ndarray:
        """The read-only (N, n, n) array the entries are views of."""
        if self._stack is None:
            raise ValueError("value matrices of unequal shape have no stack")
        return self._stack

    def distance(self, other) -> float:
        """Max over agents of relative Frobenius distance,
        ||X^i - O^i||_F / (1 + ||X^i||_F), over the two stacks at once."""
        return max(stack_distances(self.stack, other.stack).tolist())

    def norms(self) -> list[float]:
        return stack_norms(self.stack).tolist()

    def max_norm(self) -> float:
        return max(self.norms())

    def min_eigenvalue(self) -> float:
        return min(float(np.linalg.eigvalsh(m)[0]) for m in self.entries)


class GainTuple(_MatrixTuple):
    """Ordered tuple of per-agent feedback gains, one m_i x n per agent.

    Gains act through u^i = -K^i x, so the closed loop is A - sum_j B^j K^j.
    rows[i] is the slice of agent i's rows in the stacked (sum m_i, n) gains.
    """

    __slots__ = ("_solve", "rows")

    def __init__(self, entries):
        mats = tuple(_freeze(np.atleast_2d(np.asarray(e, dtype=float)))
                     for e in entries)
        object.__setattr__(self, "entries", mats)
        ends = list(accumulate((m.shape[0] for m in mats), initial=0))
        object.__setattr__(self, "rows", tuple(map(slice, ends, ends[1:])))

    @classmethod
    def _trusted(cls, solve, rows):
        """Wrap a freshly computed stacked gain solve, whose rows rows[i]
        are agent i's gain, without copying it; it is frozen in place."""
        solve.setflags(False)   # write=False, without keyword parsing
        obj = _new(cls)
        _set_solve(obj, solve)
        _set_rows(obj, rows)
        return obj

    def _views(self):
        return tuple(self._solve[rows] for rows in self.rows)

    @property
    def stack(self) -> np.ndarray:
        """The read-only (sum m_i, n) array whose rows rows[i] are K^i: the
        stacked solve the tuple wraps or, for a tuple built from entries,
        the entries stacked on first read."""
        if not hasattr(self, "_solve"):
            solve = np.vstack(self.entries)
            solve.setflags(write=False)
            object.__setattr__(self, "_solve", solve)
        return self._solve


# What the _trusted constructors call: the slot descriptors' own setters
# skip the immutable __setattr__ and the attribute lookup by name.
_new = object.__new__
_set_stack = PTuple._stack.__set__
_set_solve, _set_rows = GainTuple._solve.__set__, GainTuple.rows.__set__


@dataclass
class ValidationReport:
    """Outcome of validate_game. ok is true iff every sub-check passed."""

    ok: bool
    stabilizable: bool
    definiteness_failures: list[tuple[str, float]] = field(default_factory=list)
    dimension_failures: list[str] = field(default_factory=list)
    symmetry_failures: list[tuple[str, float]] = field(default_factory=list)

    def failure_text(self) -> str:
        """Every failed check, joined by '; '."""
        text = list(self.dimension_failures)
        text += [f"{name} asymmetric (relative {a:.3e})"
                 for name, a in self.symmetry_failures]
        text += [f"{name} fails its definiteness check (min eig {v:.3e})"
                 for name, v in self.definiteness_failures]
        if not self.dimension_failures and not self.stabilizable:
            text.append("(A, [B^1 ... B^N]) not stabilizable")
        return "; ".join(text)


def pbh_stabilizable(A: np.ndarray, B_all: np.ndarray) -> bool:
    """PBH stabilizability test for the pair (A, B_all).

    True iff rank([A - lam*I | B_all]) = n for every eigenvalue lam of A
    with |lam| >= 1 (up to PBH_EIG_MARGIN), with numerical rank judged at
    PBH_RANK_TOL relative to the largest singular value.
    """
    A = _as_square(A)
    B_all = np.atleast_2d(np.asarray(B_all, dtype=float))
    n = A.shape[0]
    if B_all.shape[0] != n:
        B_all = B_all.reshape(n, -1)
    eigs = np.linalg.eigvals(A)
    eye = np.eye(n)
    for lam in eigs:
        if abs(lam) < 1.0 - PBH_EIG_MARGIN:
            continue
        pencil = np.hstack([A - lam * eye, B_all.astype(complex)])
        svals = np.linalg.svd(pencil, compute_uv=False)
        top = svals.max(initial=0.0)
        rank = int(np.count_nonzero(svals > PBH_RANK_TOL * top)) if top > 0 else 0
        if rank < n:
            return False
    return True


def validate_game(game: GameSpec) -> ValidationReport:
    """Check dimensions, symmetry, definiteness, and stabilizability.

    All failures are reported, never raised. Definiteness uses the
    scale-relative threshold: min eig > DEFINITENESS_TOL * (1 + max eig)
    for Q and R; W only needs min eig > -DEFINITENESS_TOL * (1 + |max eig|).
    """
    dim_failures: list[str] = []
    n = game.n
    N = game.num_agents

    if n < 1:
        dim_failures.append("state dimension n must be >= 1")
    if N < 1:
        dim_failures.append("need at least one agent")
    if game.A.shape != (n, n):
        dim_failures.append(f"A has shape {game.A.shape}, expected ({n}, {n})")
    for i, b in enumerate(game.B):
        if b.shape[0] != n:
            dim_failures.append(f"B[{i}] has {b.shape[0]} rows, expected {n}")
        if b.shape[1] < 1:
            dim_failures.append(f"B[{i}] must have at least one column")
    if len(game.Q) != N:
        dim_failures.append(f"{len(game.Q)} Q matrices for {N} agents")
    if len(game.R) != N:
        dim_failures.append(f"{len(game.R)} R matrices for {N} agents")
    for i, q in enumerate(game.Q):
        if q.shape != (n, n):
            dim_failures.append(f"Q[{i}] has shape {q.shape}, expected ({n}, {n})")
    for i, (r, m) in enumerate(zip(game.R, game.input_dims)):
        if r.shape != (m, m):
            dim_failures.append(f"R[{i}] has shape {r.shape}, expected ({m}, {m})")
    if game.W.shape != (n, n):
        dim_failures.append(f"W has shape {game.W.shape}, expected ({n}, {n})")

    sym_failures = [(name, a) for name, a in game.asymmetry.items()
                    if a > SYMMETRY_TOL]

    def_failures: list[tuple[str, float]] = []
    dims_ok = not dim_failures
    if dims_ok:
        for name, mats in (("Q", game.Q), ("R", game.R)):
            for i, m in enumerate(mats):
                eigs = np.linalg.eigvalsh(m)
                if eigs[0] <= DEFINITENESS_TOL * (1.0 + eigs[-1]):
                    def_failures.append((f"{name}[{i}]", float(eigs[0])))
        w_eigs = np.linalg.eigvalsh(game.W)
        if w_eigs[0] < -DEFINITENESS_TOL * (1.0 + abs(w_eigs[-1])):
            def_failures.append(("W", float(w_eigs[0])))

    stabilizable = False
    if dims_ok:
        stabilizable = pbh_stabilizable(game.A, game.stacked_inputs())

    ok = dims_ok and not sym_failures and not def_failures and stabilizable
    return ValidationReport(
        ok=ok,
        stabilizable=stabilizable,
        definiteness_failures=def_failures,
        dimension_failures=dim_failures,
        symmetry_failures=sym_failures,
    )


@dataclass
class TerminalReport:
    """Outcome of validate_terminal. ok is true iff every sub-check passed."""

    ok: bool
    dimension_failures: list[str] = field(default_factory=list)
    finiteness_failures: list[str] = field(default_factory=list)
    definiteness_failures: list[tuple[str, float]] = field(default_factory=list)

    def failure_text(self) -> str:
        """Every failed check, joined by '; '."""
        return "; ".join(
            self.dimension_failures + self.finiteness_failures
            + [f"{name} not positive definite (min eig {v:.3e})"
               for name, v in self.definiteness_failures])


def validate_terminal(game: GameSpec, terminal: PTuple) -> TerminalReport:
    """Check a terminal value tuple against a game.

    Requires one (n, n) entry per agent, every entry finite, and every
    entry positive definite at the scale-relative threshold used for Q and
    R: min eig > DEFINITENESS_TOL * (1 + max eig). Entries are symmetric
    already (PTuple symmetrizes on ingestion). All failures are reported,
    never raised.
    """
    dim_failures: list[str] = []
    fin_failures: list[str] = []
    def_failures: list[tuple[str, float]] = []
    n = game.n
    if len(terminal) != game.num_agents:
        dim_failures.append(
            f"{len(terminal)} terminal matrices for {game.num_agents} agents")
    dim_failures += [f"P[{i}] has shape {m.shape}, expected ({n}, {n})"
                     for i, m in enumerate(terminal) if m.shape != (n, n)]
    good = [i for i, m in enumerate(terminal) if m.shape == (n, n)]
    if good:
        # One isfinite and one eigvalsh over the well-shaped entries.
        stack = (terminal.stack if len(good) == len(terminal)
                 else np.stack([terminal[i] for i in good]))
        finite = np.isfinite(stack).all(axis=(1, 2))
        fin_failures = [f"P[{i}] has non-finite entries"
                        for i, ok in zip(good, finite) if not ok]
        checked = [i for i, ok in zip(good, finite) if ok]
        for i, eigs in zip(checked, np.linalg.eigvalsh(stack[finite])):
            if eigs[0] <= DEFINITENESS_TOL * (1.0 + eigs[-1]):
                def_failures.append((f"P[{i}]", float(eigs[0])))
    ok = not (dim_failures or fin_failures or def_failures)
    return TerminalReport(ok=ok, dimension_failures=dim_failures,
                          finiteness_failures=fin_failures,
                          definiteness_failures=def_failures)
