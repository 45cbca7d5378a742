"""Asymptotic analysis of the backward value recursion.

A trace of the stage map can settle on a fixed point (a stationary
infinite-horizon equilibrium), fall into a periodic orbit (a periodic
equilibrium), stay bounded without settling, diverge, or hit a singular
stage. This module detects and certifies the first two and classifies the
rest.

A period-L orbit P_1, ..., P_L (P_l = f(P_{l+1}) cyclically, f the backward
map) is certified on four counts, for any L >= 1; a stationary equilibrium
is the L = 1 case:

* orbit residual: each phase reproduces its predecessor through f (at
  L = 1 the fixed-point residual);
* period product: Theta_L = Acl_L @ ... @ Acl_1 has spectral radius < 1,
  so the gain cycle stabilizes the system over one period even when
  individual phases are unstable (at L = 1, rho(Acl) < 1);
* loop identity: unrolling the one-step value update around the loop
  returns the starting phase,
  P_1^i = sum_l Theta_{l-1}' (Q^i + K_l^i' R^i K_l^i) Theta_{l-1}
          + Theta_L' P_1^i Theta_L;
* periodic best response: for each agent, solving its periodic Riccati
  recursion against the others' frozen gain cycle reproduces the phases,
  so no agent can improve unilaterally (at L = 1, the DARE).

Here K_l is the gain tuple produced by the stage solve at P_{l+1} (the one
applied while the orbit moves from P_{l+1} to P_l) and Acl_l the matching
closed loop. The best responses run only once the orbit residual and the
period product pass: a stable Theta_L makes every (A - sum_{j != i}
B^j K_l^j, B^i) periodically stabilizable, so each one settles.

verify_cycle returns a CycleCertificate, or raises CertificationFailed
carrying the failing measurements. The period-1 certificate is the one
record of a stationary equilibrium, the searches' points included.
"""

from dataclasses import dataclass

import numpy as np

from .model import (GainTuple, GameSpec, PTuple, stack_distances,
                    validate_terminal)
from .riccati import (CONV_WINDOW, ConvergenceStop, NoConvergence,
                      RecursionTrace, SingularStageSystem, _one_blas_thread,
                      _orbit_changes, _orbit_norms, closed_loop,
                      periodic_best_response, riccati_step, run_recursion)

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
# Certificate tolerances, stationary or periodic: orbit residual, loop
# identity, best responses (all relative).
CERT_TOL = 1e-8
LOOP_TOL = 1e-6
BR_TOL = 1e-6


class CertificationFailed(RuntimeError):
    """One or more certificate checks failed. certificate holds the
    measurements of the failing phases, or None when a stage in the loop
    is singular."""

    def __init__(self, failures: list[str],
                 certificate: "CycleCertificate | None" = None):
        self.failures = failures
        self.certificate = certificate
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
    CONV_WINDOW steps before its end. The changes are the recursion's
    own, taken in one pass over the trace's stacked values.
    """
    values = trace.values
    rule = ConvergenceStop()
    for s, rel in enumerate(_orbit_changes(values, _orbit_norms(values))):
        if rule(s + 1, rel):
            return (trace.p_states[s + 1],
                    trace.first_step + s + 1 - CONV_WINDOW)
    return None


def _minimal_period(values: np.ndarray, tol: float, max_period: int,
                    window: int) -> int | None:
    """Smallest L in [1, max_period] matching the trailing orbit of the
    states stacked in values, (S + 1, N, n, n).

    Requires window * L consecutive matches between states s and s + L at
    relative tolerance tol, within the trace. A first pass compares the
    last state S with state S - L for every L at once; only the L it
    passes are scanned, all pairs of one L in one call, in ascending
    order, which makes the result minimal (no divisor of the returned
    period also matches). A pair matches when its PTuple.distance, the
    largest agent distance by Python's max, is below tol.
    """
    S = len(values) - 1
    top = min(max_period, (S + 1) // (window + 1))
    if top < 1:
        return None
    first = stack_distances(values[S - top:S][::-1], values[S]).max(axis=-1)
    for L in (np.flatnonzero(first < tol) + 1).tolist():
        lo = S - L - window * L + 1
        pairs = stack_distances(values[lo:S - L], values[lo + L:S])
        if all(max(d) < tol for d in pairs.tolist()):
            return L
    return None


def _detached(stack: np.ndarray) -> PTuple:
    """A value tuple over its own copy of one state's stack. A trace's
    states are views of its values, so a state kept after the trace would
    keep all of them."""
    return PTuple._trusted(stack.copy())


def detect_cycle(trace: RecursionTrace, game: GameSpec) -> CycleCertificate | None:
    """Detect and certify a periodic orbit at the tail of a trace.

    Scans periods L = 1..MAX_PERIOD for the smallest one where the last
    CYCLE_WINDOW * L steps repeat at relative tolerance CYCLE_TOL. A
    period-1 match is convergence, not a cycle, and yields None. For L >= 2
    the trailing phases are certified by verify_cycle; a failed
    certificate also yields None.
    """
    L = _minimal_period(trace.values, CYCLE_TOL, MAX_PERIOD, CYCLE_WINDOW)
    if L is None or L == 1:
        return None
    # Loop order: phase l steps to phase l-1, so walk the tail backwards.
    phases = [_detached(trace.values[-1 - j]) for j in range(L)]
    try:
        return verify_cycle(phases, game)
    except CertificationFailed:
        return None


def _check_cycle(phases, game: GameSpec,
                 ) -> tuple[CycleCertificate | None, list[str]]:
    """verify_cycle's checks on L >= 1 phases, reported, never raised, as
    (cert, failures). cert holds the measurements, passing or not, or is
    None when a stage in the loop is singular; its periodic_br_residual is
    NaN unless every agent's best response ran. failures names each
    failed check."""
    phases = [p if isinstance(p, PTuple) else PTuple(p) for p in phases]
    L = len(phases)
    if L < 1:
        raise ValueError("a cycle needs at least one phase")
    N = game.num_agents

    # (a) Re-run the map around the loop; the step at phases[(l+1) % L]
    # must land on phases[l] and yields the slot-l gains.
    gains: list[GainTuple] = []
    residual = 0.0
    for l in range(L):
        try:
            image, k = riccati_step(phases[(l + 1) % L], game)
        except SingularStageSystem as err:
            return None, [str(err)]
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

    failures = []
    if not residual < CERT_TOL:
        failures.append(f"orbit residual {residual:.3e} >= {CERT_TOL:.1e}")
    if not rho_product < 1.0:
        failures.append(f"period product spectral radius {rho_product:.6f} >= 1")
    if not loop_residual < LOOP_TOL:
        failures.append(f"loop identity residual {loop_residual:.3e} >= {LOOP_TOL:.1e}")

    # (d) Each agent's periodic best response against the others' frozen
    # gain cycle must reproduce its own phases.
    br: list[float] = []
    br_residual = float("nan")
    if residual < CERT_TOL and rho_product < 1.0:
        for i in range(N):
            try:
                solved, _ = periodic_best_response(game, i, gains)
            except (NoConvergence, SingularStageSystem) as err:
                failures.append(str(err))
                break
            br.append(max(float(np.linalg.norm(solved[l] - phases[l][i])
                                / (1.0 + np.linalg.norm(phases[l][i])))
                          for l in range(L)))
        else:
            br_residual = max(br)
            if not br_residual < BR_TOL:
                failures.append(f"periodic best-response residual "
                                f"{br_residual:.3e} >= {BR_TOL:.1e}")

    return CycleCertificate(
        period=L,
        phases=tuple(phases),
        gains=tuple(gains),
        cycle_residual=residual,
        product_spectral_radius=rho_product,
        loop_identity_residual=loop_residual,
        periodic_br_residual=br_residual,
        phase_spectral_radii=phase_rho,
    ), failures


def verify_cycle(phases, game: GameSpec) -> CycleCertificate:
    """Certify a phase sequence as a periodic equilibrium.

    phases must be in loop order: phase l is the image of phase l+1 under
    the backward map (cyclically). One phase is a stationary equilibrium,
    and non-minimal periods are accepted - a fixed point replicated L times
    certifies for every L. Checks the module docstring's four counts in
    order: orbit residual below CERT_TOL, period product below one, loop
    identity below LOOP_TOL, and, once the first two pass, every agent's
    best-response residual below BR_TOL. Raises CertificationFailed
    listing every failed check, a singular stage among them, with the
    measurements in its certificate, and ValueError for no phase.
    """
    cert, failures = _check_cycle(phases, game)
    if failures:
        raise CertificationFailed(failures, cert)
    return cert


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
                              fixed_point=_detached(trace.values[-1]),
                              steps_to_converge=term.steps - CONV_WINDOW)

    cert = detect_cycle(trace, game)
    if cert is not None:
        return Classification(VERDICT_CYCLE, certificate=cert)

    return Classification(VERDICT_BOUNDED, sup_norm=term.sup_norm,
                          steps_observed=term.steps)

