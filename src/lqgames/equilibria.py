"""Independent computation of stationary equilibria.

Two routes that avoid iterating the backward recursion:

* scalar_two_agent_equilibria - the scalar two-agent case reduces to
  one unknown, D = 1 + s_1 P^1 + s_2 P^2 with s_i = B^i (R^i)^-1 B^i':
  every fixed point's D is a root of one degree-7 polynomial. Each real
  root is mapped back to (P^1, P^2) and polished by a damped 2-D Newton
  on the engine's stage map, so equilibria the recursion never reaches
  (saddles) are found too, at any scale.
* residual_descent_search - general dimensions; drives the fixed-point
  residual of the stage map to zero by damped Gauss-Newton from a set of
  initializations. The objective is sum_i ||P^i - f(P)^i||_F^2 with f the
  one-step backward map.

Every returned point carries its period-1 certificate from analysis'
cycle check; certificate.gains[0] is its stage-gain tuple. Fixed points
that fail the check are discarded, and both searches count them in their
metadata: unstable_discarded for a point whose residual passes but whose
closed loop is not strictly stable (it is not an equilibrium), and
verification_failed for every other failure, a singular stage among them.
"""

from dataclasses import dataclass, field

import numpy as np

from .analysis import CERT_TOL, CycleCertificate, _check_cycle
from .model import GameSpec, PTuple, stack_distances, stack_stacks
from .riccati import (SingularStageSystem, _one_blas_thread, _solve_each,
                      _stage_map_batch, riccati_step)

# Points closer than this (relative) are considered the same equilibrium.
DEDUP_TOL = 1e-6
# The scalar enumeration maps a root D of its polynomial back through a
# sign pattern when that pattern gives D back within this, relative:
# np.roots returns a near-double root only to about sqrt(eps), and the
# Newton polish decides every start that passes.
ROOT_TOL = 1e-6
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
    """A verified stationary equilibrium and its period-1 certificate."""

    p: PTuple
    certificate: CycleCertificate


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


def _image(game: GameSpec, x: np.ndarray) -> np.ndarray:
    """The engine's stage map of a scalar two-agent game at a (K, 2) batch
    of (P^1, P^2) pairs, as a (K, 2) array; a singular member is NaN."""
    values, _ = _stage_map_batch(game, x.reshape(-1, 2, 1, 1))
    return values.reshape(-1, 2)


def _certify(game: GameSpec,
             candidates) -> tuple[list[EquilibriumPoint], int, int]:
    """Check each candidate fixed point at period 1. Returns the passing
    points and the counts of the rest: unstable (residual below CERT_TOL,
    rho(Acl) >= 1) and failed (any other failure)."""
    points, unstable, failed = [], 0, 0
    for p in candidates:
        cert, failures = _check_cycle([p], game)
        if not failures:
            points.append(EquilibriumPoint(p, cert))
        elif (cert is not None and cert.cycle_residual < CERT_TOL
              and cert.product_spectral_radius >= 1.0):
            unstable += 1
        else:
            failed += 1
    return points, unstable, failed


def _newton(game: GameSpec, x: np.ndarray, pin: bool = False):
    """Damped Newton on f(x) - x, f the engine's scalar stage map, batched
    over a (K, 2) array of positive starts. The Jacobian is a forward
    difference with step 1e-7 (1 + |x_j|); a step is halved until the
    residual norm falls (or the factor is below 1e-6) with every entry
    positive and finite. A start stops where no step passes or moves it,
    after 80 steps, or once max |f(x) - x| / (1 + |x|) is below 1e-12
    or, with pin=True, zero or its relative step below 1e-14. Returns the
    last iterates and the mask of those with residual below 1e-12."""
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
            # A step that leaves x unchanged would only repeat itself.
            live |= ok & np.any(cand != x, axis=1)
            x[ok], f[ok] = cand[ok], fc[ok]
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

    With s_i = B^i (R^i)^-1 B^i' and D = 1 + s_1 P^1 + s_2 P^2, so that
    Acl = a / D, agent i's fixed-point equation is a^2 s_i (P^i)^2 +
    (a^2 - D^2) P^i + q_i D^2 = 0. Its roots are s_i P^i = (e + sigma_i
    r_i) / (2 a^2) with e = D^2 - a^2, r_i^2 = e^2 - 4 a^2 s_i q_i D^2 and
    sigma_i = +-1, so every fixed point has c + sigma_1 r_1 + sigma_2 r_2
    = 0 with c = 2D (D - a^2). The product over the four sign patterns,
    (c^2 + r_1^2 - r_2^2)^2 - 4 c^2 r_1^2, is a polynomial in D whose
    roots hold every fixed point's D: the search is complete. Its degree
    is 7, with a double root at 0, and a positive P^i needs D > |a|, so a
    game has at most five positive fixed points (mirror points sharing a
    D make it a multiple root). Each root's real part above |a| is mapped
    back to (P^1, P^2) through every sign pattern that gives D back
    within ROOT_TOL; the small root is taken as 2 q_i D^2 / (e + r_i),
    which keeps its digits when e >> a^2 s_i q_i and holds for s_i = 0.
    At a = 0 the polynomial vanishes and Q, the small roots at
    D = 1 + s_1 q_1 + s_2 q_2, is the only fixed point.

    One batched Newton on the engine's stage map polishes the starts. The
    distinct points it reaches are pinned so that the same map holds each
    exactly stationary (see _pin_to_stage_map), which makes them
    recursion-pinning terminal costs, and certified. Near a fold, where
    two equilibria merge, np.roots returns the near-double root only to
    about sqrt(eps), as two close roots or a complex pair; Newton takes
    each start onto an equilibrium or it is dropped. Unstable fixed
    points (|Acl| >= 1) are only counted. Metadata: d_roots (roots with
    real part above |a|), starts (the root and sign-pattern pairs that
    pass), roots_polished, unstable_discarded, verification_failed and
    unpinned: how many returned points the stage map does not hold
    exactly (their certificate's orbit residual is not zero), because no
    exactly stationary pair lies within PIN_MAX_ULPS; such a point is no
    exact terminal cost.
    Raises NoEquilibriumFound when nothing verifies.
    """
    if game.n != 1 or game.num_agents != 2:
        raise ValueError("enumeration requires n = 1 and exactly two agents")

    a = float(game.A[0, 0])
    s = np.array([(B @ np.linalg.solve(R, B.T))[0, 0]
                  for B, R in zip(game.B, game.R)])
    q = np.array([Q[0, 0] for Q in game.Q])
    a2 = a * a
    if a2:
        e, c = np.poly1d([1.0, 0.0, -a2]), np.poly1d([2.0, -2.0 * a2, 0.0])
        r1, r2 = (e * e - np.poly1d([4.0 * a2 * k, 0.0, 0.0]) for k in s * q)
        u = c * c + r1 - r2
        D = (u * u - 4.0 * c * c * r1).roots.real
        D = D[D > abs(a)]
    else:
        D = np.array([1.0 + s @ q])

    # Both roots of each agent's quadratic at every D, the large one where
    # a^2 s_i > 0, and the four sign patterns made of them.
    D2 = (D * D)[:, None]
    e = D2 - a2
    r = np.sqrt(np.maximum(e * e - 4.0 * a2 * s * q * D2, 0.0))
    small = 2.0 * q * D2 / (e + r)
    large = np.divide(e + r, 2.0 * a2 * s, out=np.full_like(r, np.nan),
                      where=a2 * s > 0.0)
    x = np.concatenate([np.stack([one[:, 0], two[:, 1]], axis=1)
                        for one in (small, large) for two in (small, large)])
    d = np.tile(D, 4)
    x = x[np.isfinite(x).all(axis=1) & (abs(1.0 + x @ s - d) <= ROOT_TOL * d)]

    polished, converged = _newton(game, x, pin=True)
    roots = np.empty((0, 2, 1, 1))
    for root in polished[converged].reshape(-1, 2, 1, 1):
        if all(max(d) > DEDUP_TOL
               for d in stack_distances(roots, root).tolist()):
            roots = np.concatenate([roots, root[None]])
    roots = sorted(_pin_to_stage_map(game, root.ravel()) for root in roots)

    points, unstable, failed = _certify(game, [PTuple(r) for r in roots])
    metadata = {"d_roots": len(D), "starts": len(x),
                "roots_polished": len(roots),
                "unstable_discarded": unstable, "verification_failed": failed,
                "unpinned": sum(pt.certificate.cycle_residual > 0.0
                                for pt in points)}
    if not points:
        raise NoEquilibriumFound(
            "no verified stationary equilibrium among the reduction's roots")
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
    the squared residual falls below DESCENT_ACCEPT_TOL and its period-1
    certificate passes; the distinct converged points that fail are
    counted as in the enumeration. An empty set is a valid outcome.

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

    seen: list[PTuple] = []        # every converged point, accepted or not
    for start in starts:
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
        if seen and any(max(d) < DEDUP_TOL for d in stack_distances(
                p.stack, stack_stacks([s.stack for s in seen])).tolist()):
            continue
        seen.append(p)

    points, unstable, failed = _certify(game, seen)
    metadata = {"initializations": len(starts), "accepted": len(points),
                "unstable_discarded": unstable, "verification_failed": failed,
                "restarts": restarts, "seed": seed}
    points.sort(key=lambda pt: tuple(np.asarray(pt.p[0]).ravel()))
    return EquilibriumSet(points=points, method="descent",
                          search_metadata=metadata)
