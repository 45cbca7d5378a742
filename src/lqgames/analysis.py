"""Asymptotic analysis of the backward value recursion.

A trace of the stage map can settle on a fixed point (a stationary
infinite-horizon equilibrium), fall into a periodic orbit (a periodic
equilibrium), stay bounded without settling, diverge, or hit a singular
stage. This module detects and certifies the first two and classifies the
rest.

A period-L orbit P_1, ..., P_L (P_l = f(P_{l+1}) cyclically, f the backward
map) is certified on four counts:

* orbit residual: each phase reproduces its predecessor through f;
* period product: Theta_L = Acl_L @ ... @ Acl_1 has spectral radius < 1,
  so the gain cycle stabilizes the system over one period even when
  individual phases are unstable;
* loop identity: unrolling the one-step value update around the loop
  returns the starting phase,
  P_1^i = sum_l Theta_{l-1}' (Q^i + K_l^i' R^i K_l^i) Theta_{l-1}
          + Theta_L' P_1^i Theta_L;
* periodic best response: for each agent, solving its periodic Riccati
  recursion against the others' frozen gain cycle reproduces the phases,
  so no agent can improve unilaterally.

Here K_l is the gain tuple produced by the stage solve at P_{l+1} (the one
applied while the orbit moves from P_{l+1} to P_l) and Acl_l the matching
closed loop.
"""

from dataclasses import dataclass, field

import numpy as np

from .model import (GainTuple, GameSpec, PTuple, stack_distances,
                    validate_terminal)
from .riccati import (CONV_WINDOW, ConvergenceStop, NoConvergence,
                      RecursionTrace, SingularStageSystem, _one_blas_thread,
                      best_response_dare, closed_loop, periodic_best_response,
                      riccati_step, run_recursion)

VERDICT_CONVERGED = "converged"
VERDICT_CYCLE = "cycle"
VERDICT_BOUNDED = "bounded_nonconvergent"
VERDICT_DIVERGED = "diverged"
VERDICT_SINGULAR = "singular"
VERDICTS = (VERDICT_CONVERGED, VERDICT_CYCLE, VERDICT_BOUNDED,
            VERDICT_DIVERGED, VERDICT_SINGULAR)

# Cycle detection: the smallest period L <= MAX_PERIOD whose last
# CYCLE_WINDOW * L steps match at relative tolerance CYCLE_TOL.
CYCLE_TOL = 1e-8
CYCLE_WINDOW = 3
MAX_PERIOD = 100
# Certificate tolerances: orbit residual, loop identity, periodic best
# responses (all relative).
CERT_TOL = 1e-8
LOOP_TOL = 1e-6
BR_TOL = 1e-6
# Stationary Nash check: fixed-point residual and best-response gain gaps.
NASH_TOL = 1e-8


class CertificationFailed(RuntimeError):
    """One or more cycle-certificate checks exceeded tolerance."""

    def __init__(self, failures: list[str]):
        self.failures = failures
        super().__init__("; ".join(failures))


@dataclass(frozen=True)
class CycleCertificate:
    """Evidence that a phase sequence is a certified periodic equilibrium.

    phases are in loop order (phase l steps to phase l-1 under the map);
    gains[l] is the stage-gain tuple applied while moving into phase l.
    phase_spectral_radii[l] is rho of the closed loop at that slot; single
    phases may be unstable as long as the period product is not.
    """

    period: int
    phases: tuple[PTuple, ...]
    gains: tuple[GainTuple, ...]
    cycle_residual: float
    product_spectral_radius: float
    loop_identity_residual: float
    periodic_br_residual: float
    phase_spectral_radii: tuple[float, ...]

    def forward_gain_schedule(self) -> list[GainTuple]:
        """One period of gains in forward-time application order.

        Applying them in this order makes the state transition over one
        period equal to the period product Theta_L.
        """
        return list(self.gains)


@dataclass
class Classification:
    """Asymptotic verdict for one (game, terminal) pair."""

    verdict: str
    fixed_point: PTuple | None = None
    steps_to_converge: int | None = None
    certificate: CycleCertificate | None = None
    sup_norm: float | None = None
    steps_observed: int | None = None
    step: int | None = None
    rcond: float | None = None


@dataclass
class ClassifyOptions:
    """Recursion horizon; the default is desk scale."""

    horizon: int = 10_000


@dataclass
class NashVerification:
    """Stationary-equilibrium check: stable closed loop plus per-agent
    best-response gain gaps below tolerance. gains is the stage-gain
    tuple at the checked point."""

    ok: bool
    precondition_ok: bool
    fixed_point_residual: float
    closed_loop_spectral_radius: float
    gains: GainTuple
    best_response_gaps: list[float] = field(default_factory=list)


def spectral_radius(M: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a square matrix."""
    return float(np.max(np.abs(np.linalg.eigvals(np.atleast_2d(M)))))


def fixed_point_residual(p: PTuple, game: GameSpec) -> float:
    """Max over agents of ||P^i - f(P)^i||_F / (1 + ||P^i||_F)."""
    image, _ = riccati_step(p, game)
    return p.distance(image)


def detect_convergence(trace: RecursionTrace) -> tuple[PTuple, int] | None:
    """Earliest settled point of a trace, or None.

    Finds the first index s* whose following CONV_WINDOW consecutive
    relative step changes (max over agents of ||P_{s+1}^i - P_s^i||_F
    scaled by 1 + ||P_s^i||_F) all fall below CONV_TOL, and returns the state
    closing that window together with s*. Step counts are absolute even
    when the trace retains only a trailing window. The rule is
    ConvergenceStop's, so a recursion that stopped on it settled
    CONV_WINDOW steps before its end.
    """
    states = trace.p_states
    rule = ConvergenceStop()
    for s in range(len(states) - 1):
        if rule(s + 1, states[s].distance(states[s + 1])):
            return states[s + 1], trace.first_step + s + 1 - CONV_WINDOW
    return None


def _minimal_period(states, tol: float, max_period: int, window: int) -> int | None:
    """Smallest L in [1, max_period] matching the trailing orbit.

    Requires window * L consecutive matches between states s and s + L at
    relative tolerance tol, within the trace. A first pass compares the
    last state S with state S - L for every L at once; only the L it
    passes are scanned pair by pair, in ascending order, which makes the
    result minimal (no divisor of the returned period also matches).
    """
    S = len(states) - 1
    top = min(max_period, (S + 1) // (window + 1))
    if top < 1:
        return None
    earlier = np.stack([states[S - L].stack for L in range(1, top + 1)])
    first = stack_distances(earlier, states[S].stack).max(axis=-1)
    for L in (np.flatnonzero(first < tol) + 1).tolist():
        if all(states[s].distance(states[s + L]) < tol
               for s in range(S - L - 1, S - L - window * L, -1)):
            return L
    return None


def detect_cycle(trace: RecursionTrace, game: GameSpec) -> CycleCertificate | None:
    """Detect and certify a periodic orbit at the tail of a trace.

    Scans periods L = 1..MAX_PERIOD for the smallest one where the last
    CYCLE_WINDOW * L steps repeat at relative tolerance CYCLE_TOL. A
    period-1 match is convergence, not a cycle, and yields None. For L >= 2
    the trailing phases are re-verified through verify_cycle (re-running
    the map around the loop, period-product spectral radius, loop identity,
    periodic best responses); a failed certificate also yields None.
    """
    states = trace.p_states
    L = _minimal_period(states, CYCLE_TOL, MAX_PERIOD, CYCLE_WINDOW)
    if L is None or L == 1:
        return None
    S = len(states) - 1
    # Loop order: phase l steps to phase l-1, so walk the tail backwards.
    phases = [states[S - j] for j in range(L)]
    try:
        return verify_cycle(phases, game)
    except (CertificationFailed, SingularStageSystem):
        return None


def verify_cycle(phases, game: GameSpec) -> CycleCertificate:
    """Certify a phase sequence as a periodic equilibrium.

    phases must be in loop order: phase l is the image of phase l+1 under
    the backward map (cyclically). Non-minimal periods are accepted - a
    fixed point replicated L times certifies for every L. Checks, in
    order: (a) orbit residual of each phase against the map image of its
    successor (below CERT_TOL); (b) period-product spectral radius below
    one; (c) loop identity residual for every agent (below LOOP_TOL); (d)
    periodic best-response residual for every agent (below BR_TOL). Raises
    CertificationFailed listing every check that exceeded its tolerance.
    """
    phases = [p if isinstance(p, PTuple) else PTuple(p) for p in phases]
    L = len(phases)
    if L < 2:
        raise ValueError("a cycle needs at least two phases")
    N = game.num_agents

    # (a) Re-run the map around the loop; the step at phases[(l+1) % L]
    # must land on phases[l] and yields the slot-l gains.
    gains: list[GainTuple] = []
    residual = 0.0
    for l in range(L):
        source = phases[(l + 1) % L]
        image, k = riccati_step(source, game)
        gains.append(k)
        residual = max(residual, phases[l].distance(image))

    loops = [closed_loop(game, k) for k in gains]
    phase_rho = tuple(spectral_radius(a) for a in loops)

    # (b) Period product in slot order Theta_L = Acl_L ... Acl_1.
    theta = [np.eye(game.n)]
    for l in range(L):
        theta.append(loops[l] @ theta[-1])
    rho_product = spectral_radius(theta[-1])

    # (c) Unroll the value update around the loop back to phase 1.
    loop_residual = 0.0
    for i in range(N):
        acc = theta[-1].T @ phases[0][i] @ theta[-1]
        for l in range(L):
            Ki = gains[l][i]
            weight = game.Q[i] + Ki.T @ game.R[i] @ Ki
            acc = acc + theta[l].T @ weight @ theta[l]
        loop_residual = max(
            loop_residual,
            float(np.linalg.norm(phases[0][i] - acc)
                  / (1.0 + np.linalg.norm(phases[0][i]))))

    # (d) Each agent's periodic best response against the others' frozen
    # gain cycle must reproduce its own phases.
    br_residual = 0.0
    br_failure = None
    for i in range(N):
        try:
            solved, _ = periodic_best_response(game, i, gains)
        except (NoConvergence, SingularStageSystem) as err:
            br_failure = str(err)
            break
        for l in range(L):
            br_residual = max(
                br_residual,
                float(np.linalg.norm(solved[l] - phases[l][i])
                      / (1.0 + np.linalg.norm(phases[l][i]))))

    failures = []
    if not residual < CERT_TOL:
        failures.append(f"orbit residual {residual:.3e} >= {CERT_TOL:.1e}")
    if not rho_product < 1.0:
        failures.append(f"period product spectral radius {rho_product:.6f} >= 1")
    if not loop_residual < LOOP_TOL:
        failures.append(f"loop identity residual {loop_residual:.3e} >= {LOOP_TOL:.1e}")
    if br_failure is not None:
        failures.append(br_failure)
    elif not br_residual < BR_TOL:
        failures.append(f"periodic best-response residual {br_residual:.3e} >= {BR_TOL:.1e}")
    if failures:
        raise CertificationFailed(failures)

    return CycleCertificate(
        period=L,
        phases=tuple(phases),
        gains=tuple(gains),
        cycle_residual=residual,
        product_spectral_radius=rho_product,
        loop_identity_residual=loop_residual,
        periodic_br_residual=br_residual,
        phase_spectral_radii=phase_rho,
    )


@_one_blas_thread
def classify(game: GameSpec, terminal: PTuple,
             opts: ClassifyOptions | None = None) -> Classification:
    """Run the recursion and name its asymptotic regime.

    Convergence is read from the termination record: the recursion stops
    on the ConvergenceStop rule, which is the rule detect_convergence
    applies, so the trace is not scanned a second time. Convergence comes
    before cycles (a settled trace is never reported as a period-1 cycle);
    anything bounded that the cycle detector does not claim is
    bounded_nonconvergent, with the sup norm over the whole orbit.
    Deterministic for fixed inputs and horizon. Raises ValueError, listing
    the failures, for a terminal that validate_terminal rejects.
    """
    report = validate_terminal(game, terminal)
    if not report.ok:
        raise ValueError(f"invalid terminal cost: {report.failure_text()}")
    if opts is None:
        opts = ClassifyOptions()
    trace = run_recursion(game, terminal, opts.horizon, stop=ConvergenceStop())
    term = trace.terminated

    if term.reason == "singular":
        return Classification(VERDICT_SINGULAR, step=term.steps,
                              rcond=term.rcond)
    if term.reason == "diverged":
        return Classification(VERDICT_DIVERGED, step=term.steps)

    if term.reason == "converged":
        return Classification(VERDICT_CONVERGED,
                              fixed_point=trace.final_state(),
                              steps_to_converge=term.steps - CONV_WINDOW)

    cert = detect_cycle(trace, game)
    if cert is not None:
        return Classification(VERDICT_CYCLE, certificate=cert)

    return Classification(VERDICT_BOUNDED, sup_norm=term.sup_norm,
                          steps_observed=term.steps)


def nash_verify_stationary(p: PTuple, game: GameSpec) -> NashVerification:
    """Verify a fixed point as a stationary Nash equilibrium.

    Requires the fixed-point residual below NASH_TOL (violations are
    reported, not raised), a strictly stable joint closed loop, and every
    agent's independent best-response gain within NASH_TOL of its stage
    gain.
    """
    image, gains = riccati_step(p, game)
    residual = p.distance(image)
    if not residual < NASH_TOL:
        return NashVerification(
            ok=False, precondition_ok=False, fixed_point_residual=residual,
            closed_loop_spectral_radius=float("nan"), gains=gains)

    rho = spectral_radius(closed_loop(game, gains))
    gaps = []
    for i in range(game.num_agents):
        _, Ki = best_response_dare(game, i, gains)
        gaps.append(float(np.linalg.norm(Ki - gains[i])))
    ok = rho < 1.0 and all(g < NASH_TOL for g in gaps)
    return NashVerification(
        ok=ok, precondition_ok=True, fixed_point_residual=residual,
        closed_loop_spectral_radius=rho, gains=gains,
        best_response_gaps=gaps)
