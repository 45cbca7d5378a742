"""Map which terminal cost leads the recursion to which equilibrium.

The terminal cost of the finite-horizon game acts as an equilibrium
selector: the plane of (Q_T^1, Q_T^2) splits into basins of attraction,
one per attracting equilibrium, with the saddle living on the boundary.
This renders a coarse basin map as ASCII art and writes the full grid to
CSV for plotting.
"""


import lqgames as lq
from lqgames import fileio

game = lq.GameSpec(A=5, B=[1, 1], Q=[1, 1], R=[1, 2])

SAMPLES = 24
basin = lq.run_basin_grid(game, axis_samples=SAMPLES, q_range=(0.3, 30.0))
print(f"{len(basin.equilibria)} equilibria to label cells with")

symbols = {0: ".", 1: "#", 2: "o", None: "?"}
grid = {}
steps = []
for cell in basin.cells:
    grid[(cell.qt1, cell.qt2)] = symbols[cell.label]
    if cell.steps_to_converge is not None:
        steps.append(cell.steps_to_converge)

axis = basin.grid_axes[0]
print(f"\nbasin map over ({axis[0]:.2f}, {axis[-1]:.1f}]^2 "
      f"(rows: Q_T^2 top-down, cols: Q_T^1):")
for qt2 in reversed(axis):
    row = "".join(grid[(qt1, qt2)] for qt1 in axis)
    print("  " + row)

counts = basin.label_counts()
for label, count in sorted(counts.items(), key=lambda kv: str(kv[0])):
    share = count / len(basin.cells)
    print(f"label {label}: {count} cells ({100 * share:.1f}%)")
print(f"steps to converge: min {min(steps)}, max {max(steps)} "
      f"(darker cells of the published map = more steps)")

fileio.write_basin_csv(basin, "basin_map.csv",
                       {"samples": SAMPLES, "range": "0.3:30"})
print("full grid written to basin_map.csv")
