"""Independent computation of stationary equilibria.

Two routes that avoid iterating the backward recursion:

* scalar_two_agent_equilibria - the scalar two-agent case reduces to a
  pair of coupled scalar algebraic equations; all positive real solutions
  are bracketed by sign changes on a wide logarithmic grid and polished by
  a damped 2-D Newton step, so equilibria the recursion never reaches
  (saddles) are found too.
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
from scipy.optimize import least_squares

from .analysis import NashVerification, nash_verify_stationary
from .model import GainTuple, GameSpec, PTuple
from .riccati import (NoConvergence, NotStabilizable, SingularStageSystem,
                      riccati_step)

# Points closer than this (relative) are considered the same equilibrium.
DEDUP_TOL = 1e-6


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


def _scalar_params(game: GameSpec) -> tuple[float, ...]:
    a = float(game.A[0, 0])
    b1 = float(game.B[0][0, 0])
    b2 = float(game.B[1][0, 0])
    q1 = float(game.Q[0][0, 0])
    q2 = float(game.Q[1][0, 0])
    r1 = float(game.R[0][0, 0])
    r2 = float(game.R[1][0, 0])
    return a, b1, b2, q1, q2, r1, r2


def _scalar_residual(P1, P2, a, b1, b2, q1, q2, r1, r2):
    """Fixed-point residual of the scalar two-agent stage map, vectorized.

    Solves the 2x2 stage-gain system in closed form (Cramer) and returns
    (F1, F2, K1, K2, Acl) where F_i = f(P)_i - P_i.
    """
    m11 = r1 + b1 * b1 * P1
    m12 = b1 * b2 * P1
    m21 = b1 * b2 * P2
    m22 = r2 + b2 * b2 * P2
    det = m11 * m22 - m12 * m21
    with np.errstate(divide="ignore", invalid="ignore"):
        k1 = (b1 * P1 * a * m22 - m12 * b2 * P2 * a) / det
        k2 = (m11 * b2 * P2 * a - m21 * b1 * P1 * a) / det
    acl = a - b1 * k1 - b2 * k2
    F1 = q1 + r1 * k1 * k1 + acl * acl * P1 - P1
    F2 = q2 + r2 * k2 * k2 + acl * acl * P2 - P2
    return F1, F2, k1, k2, acl


def _newton_polish(P1, P2, params, tol=1e-12, max_iter=80):
    """Damped 2-D Newton on the scalar residual with finite-difference
    Jacobian; returns the refined root or None."""

    def res(p1, p2):
        F1, F2, _, _, _ = _scalar_residual(p1, p2, *params)
        return np.array([F1, F2], dtype=float)

    x = np.array([P1, P2], dtype=float)
    f = res(*x)
    for _ in range(max_iter):
        scale = 1.0 + np.abs(x)
        if np.max(np.abs(f) / scale) < tol:
            return x
        J = np.empty((2, 2))
        for j in range(2):
            h = 1e-7 * scale[j]
            bumped = x.copy()
            bumped[j] += h
            J[:, j] = (res(*bumped) - f) / h
        try:
            step = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError:
            return None
        # Backtrack: halve until the residual decreases and stays positive.
        t = 1.0
        for _ in range(40):
            x_new = x + t * step
            if np.all(x_new > 0):
                f_new = res(*x_new)
                if np.all(np.isfinite(f_new)) and (
                        np.linalg.norm(f_new) < np.linalg.norm(f) or t < 1e-6):
                    x, f = x_new, f_new
                    break
            t *= 0.5
        else:
            return None
    scale = 1.0 + np.abs(x)
    return x if np.max(np.abs(f) / scale) < tol else None


def _pin_to_stage_map(game: GameSpec, p1: float, p2: float,
                      max_ulps: int = 60) -> tuple[float, float]:
    """Refine a scalar root until the computed stage map is stationary.

    Newton-polishes against the engine's own one-step map, then searches
    the surrounding float64 lattice (outward by Chebyshev rings) for a
    point the computed map sends exactly to itself. Such a point exists
    for typical games within a few tens of ulps; when found, choosing it
    as a terminal cost pins the recursion bit for bit, which matters at
    saddle fixed points where any rounding residue is amplified. Falls
    back to the Newton point when no exactly stationary neighbor exists.
    """

    def f_map(x1, x2):
        # Scalars are symmetric as they are: wrap them without PTuple's
        # coercion, and read the image from its stack.
        p = PTuple._trusted(np.array([x1, x2]).reshape(2, 1, 1))
        image = riccati_step(p, game)[0].stack
        return float(image[0, 0, 0]), float(image[1, 0, 0])

    x = np.array([p1, p2], dtype=float)
    for _ in range(50):
        fx = np.array(f_map(*x))
        r = fx - x
        if np.all(r == 0.0):
            return float(x[0]), float(x[1])
        J = np.empty((2, 2))
        for j in range(2):
            h = 1e-7 * (1.0 + abs(x[j]))
            bumped = x.copy()
            bumped[j] += h
            J[:, j] = (np.array(f_map(*bumped)) - fx) / h
        try:
            step = np.linalg.solve(J - np.eye(2), -r)
        except np.linalg.LinAlgError:
            break
        if np.max(np.abs(step) / (1.0 + np.abs(x))) < 1e-14:
            break
        x = x + step

    # Attracting points pin themselves: a short burst of map iterations
    # either lands on an exactly stationary pair or cycles through a few
    # ulps; only saddles need the lattice search below.
    y = (float(x[0]), float(x[1]))
    for _ in range(200):
        fy = f_map(*y)
        if fy == y:
            return y
        if max(abs(fy[0] - y[0]) / (1.0 + abs(y[0])),
               abs(fy[1] - y[1]) / (1.0 + abs(y[1]))) > 1e-11:
            break               # walking away from the root: a saddle
        y = fy

    def lattice(value):
        """The 2 * max_ulps + 1 floats around value; entry max_ulps + k is
        value stepped k ulps."""
        down, up = [value], [value]
        for _ in range(max_ulps):
            down.append(np.nextafter(down[-1], -np.inf))
            up.append(np.nextafter(up[-1], np.inf))
        return [float(v) for v in down[:0:-1] + up]

    axis1, axis2 = lattice(x[0]), lattice(x[1])
    for radius in range(max_ulps + 1):
        ring = [(d1, d2) for d1 in range(-radius, radius + 1)
                for d2 in range(-radius, radius + 1)
                if max(abs(d1), abs(d2)) == radius]
        for d1, d2 in ring:
            x1, x2 = axis1[max_ulps + d1], axis2[max_ulps + d2]
            if f_map(x1, x2) == (x1, x2):
                return x1, x2
    return float(x[0]), float(x[1])


def scalar_two_agent_equilibria(game: GameSpec, grid_points: int = 200,
                                p_min: float = 1e-4, p_max: float = 1e6,
                                verify_tol: float = 1e-8,
                                pin: bool = True) -> EquilibriumSet:
    """Enumerate all stationary equilibria of a scalar two-agent game.

    Scans (P1, P2) over a grid_points x grid_points logarithmic grid in
    [p_min, p_max]^2, keeps the cells where both residual components
    change sign, polishes each by Newton, deduplicates, and verifies.
    With pin=True each root is further refined until the engine's own
    stage map holds it exactly stationary (see _pin_to_stage_map), so the
    points double as recursion-pinning terminal costs. Unstable fixed
    points of the algebraic equations (|Acl| >= 1) are not equilibria and
    are only counted in the metadata. Raises NoEquilibriumFound when
    nothing verifies.
    """
    if game.n != 1 or game.num_agents != 2:
        raise ValueError("enumeration requires n = 1 and exactly two agents")
    params = _scalar_params(game)

    axis = np.logspace(np.log10(p_min), np.log10(p_max), grid_points)
    P1, P2 = np.meshgrid(axis, axis, indexing="ij")
    F1, F2, _, _, _ = _scalar_residual(P1, P2, *params)
    valid = np.isfinite(F1) & np.isfinite(F2)
    s1 = np.sign(F1)
    s2 = np.sign(F2)

    def mixed(s):
        c00, c10 = s[:-1, :-1], s[1:, :-1]
        c01, c11 = s[:-1, 1:], s[1:, 1:]
        return ~((c00 == c10) & (c00 == c01) & (c00 == c11))

    ok = (valid[:-1, :-1] & valid[1:, :-1] & valid[:-1, 1:] & valid[1:, 1:])
    cells = np.argwhere(mixed(s1) & mixed(s2) & ok)

    roots: list[np.ndarray] = []
    for ci, cj in cells:
        x0 = np.sqrt(axis[ci] * axis[ci + 1])   # geometric cell center
        y0 = np.sqrt(axis[cj] * axis[cj + 1])
        root = _newton_polish(x0, y0, params)
        if root is None or not np.all(root > 0):
            continue
        if all(np.max(np.abs(root - r) / (1.0 + np.abs(r))) > DEDUP_TOL
               for r in roots):
            roots.append(root)

    points = []
    unstable = 0
    failed = 0
    for root in sorted(roots, key=lambda r: (r[0], r[1])):
        if pin:
            root = _pin_to_stage_map(game, root[0], root[1])
        p = PTuple([root[0], root[1]])
        try:
            report = nash_verify_stationary(p, game, tol=verify_tol)
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
        "grid_points": grid_points,
        "p_range": (p_min, p_max),
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


def _pack(p: PTuple, n: int, N: int) -> np.ndarray:
    iu = np.triu_indices(n)
    return np.concatenate([np.asarray(p[i])[iu] for i in range(N)])


def _unpack(x: np.ndarray, n: int, N: int) -> PTuple:
    iu = np.triu_indices(n)
    per = len(iu[0])
    mats = []
    for i in range(N):
        m = np.zeros((n, n))
        m[iu] = x[i * per:(i + 1) * per]
        m = m + np.triu(m, 1).T
        mats.append(m)
    return PTuple(mats)


def residual_descent_search(game: GameSpec, inits=None, restarts: int = 20,
                            max_iter: int = 10_000, seed: int = 0,
                            accept_tol: float = 1e-16,
                            verify_tol: float = 1e-8) -> EquilibriumSet:
    """Search for stationary equilibria by driving the fixed-point
    residual to zero.

    Runs damped Gauss-Newton (scipy least_squares on the stacked residual
    vec(P - f(P))) from each supplied initialization plus `restarts`
    random positive-definite ones. A point is accepted only when the
    squared residual falls below accept_tol and the full stationary Nash
    verification passes. An empty set is a valid outcome.
    """
    n, N = game.n, game.num_agents
    rng = np.random.default_rng(seed)

    def residual_vec(x):
        p = _unpack(x, n, N)
        try:
            image, _ = riccati_step(p, game)
        except SingularStageSystem:
            return np.full(N * n * n, 1e6)
        return np.concatenate([(np.asarray(p[i]) - np.asarray(image[i])).ravel()
                               for i in range(N)])

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
        x0 = _pack(start, n, N)
        try:
            result = least_squares(residual_vec, x0, method="trf",
                                   xtol=1e-15, ftol=1e-15, gtol=1e-15,
                                   max_nfev=max_iter)
        except (ValueError, np.linalg.LinAlgError):
            continue
        phi = float(2.0 * result.cost)       # sum of squared residuals
        if not phi < accept_tol:
            continue
        p = _unpack(result.x, n, N)
        if any(p.distance(s) < DEDUP_TOL for s in seen):
            continue
        seen.append(p)
        try:
            report = nash_verify_stationary(p, game, tol=verify_tol)
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
