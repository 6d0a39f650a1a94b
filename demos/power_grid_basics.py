"""Tour of the reactive-power grid model.

Builds the two-bus textbook case whose load-voltage equation is a scalar
quadratic, checks the solver against the closed form, looks at the analytic
sensitivities, and sweeps the loading until the equations stop admitting a
solution while watching the monotonicity margin shrink.
"""
import math

import numpy as np

from ripplesim import (Graph, GridModel, loadability_sweep,
                       reactive_injections, solve_load_voltages)

# one generator (bus 0) and one load (bus 1) over a line with b = 10 p.u.
graph = Graph(node_count=2, edges=((0, 1),))
grid = GridModel(graph=graph, susceptances=(10.0,), generators=(0,),
                 loads=(1,))

print("Laplacian B:")
print(grid.b_matrix)

# with every voltage at 1.0 p.u. the injections vanish (zero row sums)
print("\ninjections at flat voltage:", reactive_injections([1.0, 1.0],
                                                           grid.b_matrix))

# drawing 0.1 p.u. of reactive power: 10 v (v - 1) = -0.1 has the high root
# (1 + sqrt(0.96)) / 2, and the Newton solve lands on it from the
# open-circuit voltage, the root at zero load: here v_G = 1.0 itself
sol = solve_load_voltages(np.array([-0.1]), np.array([1.0]), grid)
closed_form = (1.0 + math.sqrt(0.96)) / 2.0
print(f"\nsolved load voltage   {sol.v_load[0]:.12f}")
print(f"closed-form root      {closed_form:.12f}")
print(f"Newton iterations     {sol.iterations}, residual {sol.residual:.2e}")

# implicit-function sensitivities at the solved point, one column per bus:
# bus 0's generator voltage, then bus 1's load injection
print("\nd v_L / d q_L =", sol.jacobian[0, 1])
print("d v_L / d v_G =", sol.jacobian[0, 0])
print("monotonicity margin =", sol.monotonicity_margin,
      "(positive certifies a monotone response)")

# scale the load toward the point where the quadratic loses its real root
# (exactly scale 25 here); the margin decreases all the way to the edge
print("\nloadability sweep:")
print(f"{'scale':>8} {'solved':>7} {'margin':>12}")
for pt in loadability_sweep(grid, np.array([-0.1]), np.array([1.0]),
                            np.linspace(1.0, 30.0, 13)):
    margin = f"{pt.margin:12.6f}" if pt.solved else " " * 12
    print(f"{pt.scale:8.2f} {str(pt.solved):>7} {margin}")
