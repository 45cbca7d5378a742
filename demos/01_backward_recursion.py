"""Walk the coupled backward recursion by hand on a scalar two-agent game.

Every stage of an N-player LQ game solves one stacked linear system for
all feedback gains, then each player's value matrix steps backward. This
script writes that system out for the benchmark game (A=5, two agents),
takes a few steps manually, and then lets the recursion run until it
settles on a stationary equilibrium.
"""

import numpy as np

import lqgames as lq
from lqgames.riccati import CONV_TOL

# One shared unstable state, two players with different input prices.
game = lq.GameSpec(A=5, B=[1, 1], Q=[1, 1], R=[1, 2])
report = lq.validate_game(game)
print(f"game valid: {report.ok} (stabilizable: {report.stabilizable})")

# Stage system at the terminal values P = (1, 1): block (i, j) is
# R^i [i = j] + B^i P^i B^j and row i's right-hand side is B^i P^i A, so
# each block couples the players through the shared state.
P, A, B, R = [1.0, 1.0], 5.0, [1.0, 1.0], [1.0, 2.0]
M = [[B[i] * P[i] * B[j] + (R[i] if i == j else 0.0) for j in range(2)]
     for i in range(2)]
print("\nstage-gain system at P=(1,1):")
print("  M   =", M)
print("  rhs =", [B[i] * P[i] * A for i in range(2)])
p = lq.PTuple(P)
gains = lq.riccati_step(p, game)[1]       # the gain map
print("  K   =", [float(k[0, 0]) for k in gains])
print("  closed loop A - B1 K1 - B2 K2 =",
      float(lq.closed_loop(game, gains)[0, 0]))

# Three backward steps by hand.
print("\nbackward steps from Q_T = (1, 1):")
for s in range(3):
    p, gains = lq.riccati_step(p, game)
    vals = [round(float(np.asarray(m)[0, 0]), 6) for m in p]
    print(f"  step {s + 1}: P = {vals}")

# Full run with a convergence stop.
trace = lq.run_recursion(game, lq.PTuple([1.0, 1.0]), 1000, tol=CONV_TOL)
final = [round(float(np.asarray(m)[0, 0]), 8) for m in trace.final_state()]
print(f"\nrecursion {trace.terminated.reason} after "
      f"{trace.terminated.steps} steps at P* = {final}")
print(f"fixed-point residual: "
      f"{lq.fixed_point_residual(trace.final_state(), game):.2e}")

# The single-agent case is the classic regulator: with A=B=Q=R=1 the
# limit is the golden ratio.
lqr = lq.GameSpec(1, [1], [1], [1])
trace = lq.run_recursion(lqr, lq.PTuple([1.0]), 200, tol=1e-13)
print(f"\nsingle-agent check: limit {float(trace.final_state()[0][0, 0]):.12f}"
      f" vs (1+sqrt(5))/2 = {(1 + np.sqrt(5)) / 2:.12f}")
