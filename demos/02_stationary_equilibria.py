"""Enumerate every stationary equilibrium of a scalar two-agent game.

Multiple stationary equilibria is the basic multi-agent surprise: the
same game supports several mutually-consistent stationary policies. The
scalar enumerator finds all of them from the roots of one polynomial in
D = 1 + s_1 P^1 + s_2 P^2 (no recursion involved), certifies each as a
Nash equilibrium by its period-1 cycle certificate (every agent's best
response against the others' frozen gains reproduces its value), and
demonstrates terminal-cost selection: using any equilibrium as the
terminal cost pins the whole finite-horizon solution to it.
"""

import numpy as np

import lqgames as lq

game = lq.GameSpec(A=5, B=[1, 1], Q=[1, 1], R=[1, 2])
eqs = lq.scalar_two_agent_equilibria(game)
meta = eqs.search_metadata
print(f"found {len(eqs)} stationary equilibria from {meta['starts']} "
      f"starts at {meta['d_roots']} roots D > |a| of the reduction")

for idx, pt in enumerate(eqs):
    p1, p2 = (float(np.asarray(m)[0, 0]) for m in pt.p)
    cert = pt.certificate
    k1, k2 = (float(k[0, 0]) for k in cert.gains[0])
    print(f"\nequilibrium {idx}: P = ({p1:.6f}, {p2:.6f})")
    print(f"  gains K = ({k1:.6f}, {k2:.6f})")
    print(f"  rho(closed loop) = {cert.product_spectral_radius:.6f}")
    print(f"  best-response value residual = "
          f"{cert.periodic_br_residual:.1e}")

print("\nterminal-cost selection: start the 50-step recursion on each")
for idx, pt in enumerate(eqs):
    trace = lq.run_recursion(game, pt.p, 50)
    dev = max(s.distance(pt.p) for s in trace.p_states)
    print(f"  equilibrium {idx}: max deviation over 50 steps = {dev:.1e}")

# The general-dimension route: drive the fixed-point residual to zero by
# damped Gauss-Newton from a coarse grid. It recovers the same points,
# including the saddle the recursion itself never reaches.
inits = [lq.PTuple([a, b]) for a in (0.5, 5.0, 40.0) for b in (0.5, 5.0, 40.0)]
descent = lq.residual_descent_search(game, inits=inits, restarts=0)
print(f"\nresidual descent from a 3x3 grid found {len(descent)} points:")
for pt in descent:
    p1, p2 = (float(np.asarray(m)[0, 0]) for m in pt.p)
    print(f"  P = ({p1:.6f}, {p2:.6f})")
