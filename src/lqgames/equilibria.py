"""Independent computation of stationary equilibria.

Two routes that avoid iterating the backward recursion:

* scalar_two_agent_equilibria - the scalar two-agent case is a pair of
  coupled scalar fixed-point equations; all positive real solutions are
  bracketed by sign changes of the stage map's residual on a wide
  logarithmic grid and polished by a damped 2-D Newton, so equilibria the
  recursion never reaches (saddles) are found too.
* residual_descent_search - general dimensions; drives the fixed-point
  residual of the stage map to zero by damped Gauss-Newton from a set of
  initializations. The objective is sum_i ||P^i - f(P)^i||_F^2 with f the
  one-step backward map.

Every returned point carries its stage gains and a full stationary Nash
verification; fixed points whose closed loop is not strictly stable are
discarded (they are not equilibria) but counted in the search metadata.
"""

from dataclasses import dataclass, field

import numpy as np

from .analysis import NashVerification, nash_verify_stationary
from .model import GainTuple, GameSpec, PTuple
from .riccati import (NoConvergence, NotStabilizable, SingularStageSystem,
                      _one_blas_thread, _solve_each, _stage_map_batch,
                      riccati_step)

# Points closer than this (relative) are considered the same equilibrium.
DEDUP_TOL = 1e-6
# The scalar enumeration's logarithmic grid: its range in each of P^1
# and P^2, its points per axis, and the batches it is evaluated in, which
# bound its memory.
GRID_MIN = 1e-4
GRID_MAX = 1e6
GRID_POINTS = 200
GRID_BANDS = 8
# Half-width, in ulps per axis, of the lattice searched for a point the
# stage map holds exactly stationary.
PIN_MAX_ULPS = 60
# Descent: least_squares evaluations per start, and the sum of squared
# residuals below which a converged point counts as a fixed point.
DESCENT_MAX_NFEV = 10_000
DESCENT_ACCEPT_TOL = 1e-16


class NoEquilibriumFound(RuntimeError):
    """The scalar enumeration bracketed no verified root."""


@dataclass(frozen=True)
class EquilibriumPoint:
    p: PTuple
    gains: GainTuple
    verification: NashVerification


@dataclass
class EquilibriumSet:
    """Distinct verified stationary equilibria plus how they were found."""

    points: list[EquilibriumPoint]
    method: str
    search_metadata: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def nearest(self, p: PTuple) -> tuple[int, float]:
        """Index of the closest point and its relative distance; (-1, inf)
        when the set is empty."""
        best, dist = -1, float("inf")
        for idx, pt in enumerate(self.points):
            d = pt.p.distance(p)
            if d < dist:
                best, dist = idx, d
        return best, dist


def _image(game: GameSpec, x: np.ndarray) -> np.ndarray:
    """The engine's stage map of a scalar two-agent game at a (K, 2) batch
    of (P^1, P^2) pairs, as a (K, 2) array; a singular member is NaN."""
    values, _ = _stage_map_batch(game, x.reshape(-1, 2, 1, 1))
    return values.reshape(-1, 2)


def _newton(game: GameSpec, x: np.ndarray, pin: bool = False):
    """Damped Newton on f(x) - x, f the engine's scalar stage map, batched
    over a (K, 2) array of positive starts. The Jacobian is a forward
    difference with step 1e-7 (1 + |x_j|); a step is halved until the
    residual norm falls (or the factor is below 1e-6) with every entry
    positive and finite. A start stops where no step passes, after 80
    steps, or once max |f(x) - x| / (1 + |x|) is below 1e-12 or, with
    pin=True, zero or its relative step below 1e-14. Returns the last
    iterates and the mask of those with residual below 1e-12."""
    x = np.array(x, dtype=float)
    f = _image(game, x) - x
    live = np.ones(len(x), dtype=bool)
    for _ in range(80):
        rel = np.max(np.abs(f) / (1.0 + np.abs(x)), axis=1)
        live &= (rel != 0.0) if pin else ~(rel < 1e-12)
        if not live.any():
            break
        h = 1e-7 * (1.0 + np.abs(x))
        bumps = [x + e * h for e in np.eye(2)]
        J = np.stack([(_image(game, b) - b - f) / h[:, [j]]
                      for j, b in enumerate(bumps)], axis=2)
        step = _solve_each(J, -f[:, :, None])[:, :, 0]
        todo = live & np.all(np.isfinite(step), axis=1)
        if pin:
            todo &= np.max(np.abs(step) / (1.0 + np.abs(x)), axis=1) >= 1e-14
        # Backtrack: halve until the residual decreases and stays positive.
        live[:] = False         # until a step is taken
        t = np.ones(len(x))
        norm = np.linalg.norm(f, axis=1)
        for _ in range(40):
            if not todo.any():
                break
            cand = x + t[:, None] * step
            ok = todo & np.all(cand > 0, axis=1)
            fc = _image(game, np.where(ok[:, None], cand, x)) - cand
            ok &= np.all(np.isfinite(fc), axis=1) & (
                (np.linalg.norm(fc, axis=1) < norm) | (t < 1e-6))
            x[ok], f[ok] = cand[ok], fc[ok]
            live |= ok
            todo &= ~ok
            t[todo] *= 0.5
    return x, np.max(np.abs(f) / (1.0 + np.abs(x)), axis=1) < 1e-12


def _pin_to_stage_map(game: GameSpec, x: np.ndarray) -> tuple[float, float]:
    """A point near the positive Newton root x that the engine's stage
    map sends exactly to itself, searched outward by Chebyshev rings of
    the float64 lattice (one batched evaluation per ring, first hit in
    ring order), or x when none lies within PIN_MAX_ULPS. Typical games
    have one within a few tens of ulps. As a terminal cost it pins the
    recursion bit for bit, which matters at saddles, where any rounding
    residue is amplified."""
    # Attracting points pin themselves: a short burst of map iterations
    # either lands on an exactly stationary pair or cycles through a few
    # ulps; only saddles need the lattice search below.
    y = x.reshape(1, 2)
    seen = set()
    for _ in range(200):
        fy = _image(game, y)
        if np.array_equal(fy, y):
            return float(y[0, 0]), float(y[0, 1])
        if np.max(np.abs(fy - y) / (1.0 + np.abs(y))) > 1e-11:
            break               # walking away from the root: a saddle
        seen.add(y.tobytes())
        if fy.tobytes() in seen:
            break               # a cycle of the map: no stationary pair on it
        y = fy

    # Stepping a positive float's bits by k steps it k ulps.
    offsets = np.arange(-PIN_MAX_ULPS, PIN_MAX_ULPS + 1)
    axes = (x.reshape(2, 1).view(np.int64) + offsets).view(np.float64)
    lattice = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    chebyshev = np.maximum.outer(abs(offsets), abs(offsets))
    for radius in range(PIN_MAX_ULPS + 1):
        pts = lattice[chebyshev == radius]     # row-major: the ring order
        hits = np.flatnonzero(np.all(_image(game, pts) == pts, axis=1))
        if hits.size:
            return float(pts[hits[0], 0]), float(pts[hits[0], 1])
    return float(x[0]), float(x[1])


@_one_blas_thread
def scalar_two_agent_equilibria(game: GameSpec) -> EquilibriumSet:
    """Enumerate all stationary equilibria of a scalar two-agent game.

    Evaluates the engine's stage map on a GRID_POINTS x GRID_POINTS
    logarithmic grid of (P1, P2) in [GRID_MIN, GRID_MAX]^2, in GRID_BANDS
    batches, keeps the cells where both residual components change sign,
    polishes their centres by one batched Newton, deduplicates, and
    verifies. The roots are refined until the same map holds each exactly
    stationary (see _pin_to_stage_map), so the points double as
    recursion-pinning terminal costs. Unstable fixed points
    (|Acl| >= 1) are not equilibria and are only counted in the metadata.
    Raises NoEquilibriumFound when nothing verifies.
    """
    if game.n != 1 or game.num_agents != 2:
        raise ValueError("enumeration requires n = 1 and exactly two agents")

    axis = np.logspace(np.log10(GRID_MIN), np.log10(GRID_MAX), GRID_POINTS)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)
    F = np.concatenate([_image(game, band) - band for band in np.array_split(
        grid.reshape(-1, 2), GRID_BANDS)]).reshape(grid.shape)

    def corners(a):
        return a[:-1, :-1], a[1:, :-1], a[:-1, 1:], a[1:, 1:]

    # Cells whose corners are all finite and where both residual
    # components take more than one sign.
    c00, *others = corners(np.sign(F))
    mixed = ~np.logical_and.reduce([c00 == c for c in others])
    finite = np.logical_and.reduce(corners(np.all(np.isfinite(F), axis=-1)))
    cells = np.argwhere(finite & np.all(mixed, axis=-1))

    centres = np.sqrt(axis[cells] * axis[cells + 1])   # geometric
    polished, converged = _newton(game, centres)
    roots: list[np.ndarray] = []
    for root in polished[converged]:
        if all(np.max(np.abs(root - r) / (1.0 + np.abs(r))) > DEDUP_TOL
               for r in roots):
            roots.append(root)
    roots.sort(key=lambda r: (r[0], r[1]))
    if roots:
        refined, _ = _newton(game, np.array(roots), pin=True)
        roots = [_pin_to_stage_map(game, x) for x in refined]

    points = []
    unstable = 0
    failed = 0
    for root in roots:
        p = PTuple([root[0], root[1]])
        try:
            report = nash_verify_stationary(p, game)
        except SingularStageSystem:
            failed += 1
            continue
        if report.ok:
            points.append(EquilibriumPoint(p, report.gains, report))
        elif report.precondition_ok and report.closed_loop_spectral_radius >= 1.0:
            unstable += 1
        else:
            failed += 1

    metadata = {
        "grid_points": GRID_POINTS,
        "p_range": (GRID_MIN, GRID_MAX),
        "candidate_cells": int(len(cells)),
        "roots_polished": len(roots),
        "unstable_discarded": unstable,
        "verification_failed": failed,
        "anomaly": None,
    }
    if not 1 <= len(points) <= 3:
        metadata["anomaly"] = f"equilibrium count {len(points)} outside [1, 3]"
    if not points:
        raise NoEquilibriumFound(
            "no verified stationary equilibrium bracketed by the scan")
    return EquilibriumSet(points=points, method="enumeration",
                          search_metadata=metadata)


def _pack(p: PTuple, n: int) -> np.ndarray:
    iu = np.triu_indices(n)
    return p.stack[:, iu[0], iu[1]].ravel()


def _unpack(x: np.ndarray, n: int, N: int) -> PTuple:
    iu = np.triu_indices(n)
    m = np.zeros((N, n, n))
    m[:, iu[0], iu[1]] = x.reshape(N, -1)
    return PTuple(m + np.triu(m, 1).swapaxes(-1, -2))


@_one_blas_thread
def residual_descent_search(game: GameSpec, inits=None, restarts: int = 20,
                            seed: int = 0) -> EquilibriumSet:
    """Search for stationary equilibria by driving the fixed-point
    residual to zero.

    Runs damped Gauss-Newton (scipy least_squares on the stacked residual
    vec(P - f(P))) from each supplied initialization, the game's Q, and
    `restarts` random positive-definite ones. A point is accepted only when
    the squared residual falls below DESCENT_ACCEPT_TOL and the full
    stationary Nash verification passes. An empty set is a valid outcome.

    scipy.optimize is imported on the first call, so code that never
    searches by descent does not load it.

    Worst case: each of the len(inits) + 1 + restarts starts may use
    DESCENT_MAX_NFEV (10 000) residual evaluations, and the
    finite-difference Jacobian columns of `trf` come on top, since nfev
    does not count them; each evaluation and each column is one
    riccati_step. On the (2, 2, 2) game random_game(2, 2, 2,
    _rng_for(0, 0, 50)) at seed 1, which has no equilibrium, the search
    makes 77 269 riccati_step calls.
    """
    from scipy.optimize import least_squares

    n, N = game.n, game.num_agents
    rng = np.random.default_rng(seed)

    def residual_vec(x):
        p = _unpack(x, n, N)
        try:
            image, _ = riccati_step(p, game)
        except SingularStageSystem:
            return np.full(N * n * n, 1e6)
        return (p.stack - image.stack).ravel()

    starts: list[PTuple] = list(inits) if inits else []
    starts.append(PTuple(game.Q))
    for _ in range(restarts):
        mats = []
        for _ in range(N):
            g = rng.standard_normal((n, n))
            mats.append(g @ g.T + 0.1 * np.eye(n))
        starts.append(PTuple(mats))

    points: list[EquilibriumPoint] = []
    seen: list[PTuple] = []        # every converged point, accepted or not
    attempts = 0
    accepted = 0
    for start in starts:
        attempts += 1
        x0 = _pack(start, n)
        try:
            result = least_squares(residual_vec, x0, method="trf",
                                   xtol=1e-15, ftol=1e-15, gtol=1e-15,
                                   max_nfev=DESCENT_MAX_NFEV)
        except (ValueError, np.linalg.LinAlgError):
            continue
        phi = float(2.0 * result.cost)       # sum of squared residuals
        if not phi < DESCENT_ACCEPT_TOL:
            continue
        p = _unpack(result.x, n, N)
        if any(p.distance(s) < DEDUP_TOL for s in seen):
            continue
        seen.append(p)
        try:
            report = nash_verify_stationary(p, game)
        except (SingularStageSystem, NotStabilizable, NoConvergence):
            continue
        if report.ok:
            points.append(EquilibriumPoint(p, report.gains, report))
            accepted += 1

    metadata = {"initializations": attempts, "accepted": accepted,
                "restarts": restarts, "seed": seed}
    points.sort(key=lambda pt: tuple(np.asarray(pt.p[0]).ravel()))
    return EquilibriumSet(points=points, method="descent",
                          search_metadata=metadata)
