"""How connectivity changes outage behavior on random load-sharing graphs.

Runs Monte Carlo cascades on Erdős–Rényi graphs at several edge
probabilities and prints both resilience metrics side by side: the
probability that nothing goes down, and the average fraction of the
population that ends up in an outage. Densely connected networks fail
rarely, but when they do, everything goes at once.
"""

import numpy as np

from gridcascade import UniformLoads, monte_carlo

N = 50
D_M = 0.1
TRIALS = 500
SEED = 2026

print(f"{N} nodes, Uniform[0,1] loads, disturbance mean {D_M}, {TRIALS} trials/point")
print(f"{'p':>5}  {'P(no outage)':>13}  {'mean outage fraction':>21}")
ps = (0.1, 0.2, 0.4, 0.6, 0.8, 1.0)
# one call over the whole grid: trial k draws its graph weights, loads and
# shocks once and runs the cascade at every p
grid = monte_carlo(N, ps, UniformLoads(), D_M, TRIALS, master_seed=SEED)
for p, stats in zip(ps, grid):
    print(f"{p:>5.1f}  {stats.prob_no_outage:>13.3f}  {stats.mean_outage_fraction:>21.3f}")

# the fully connected case is all-or-nothing: every trial ends at f = 0 or 1
fractions = np.array([o.survivor_fraction for o in grid[ps.index(1.0)].outcomes])
print(f"\nfully connected: every survivor fraction in {{0, 1}}: "
      f"{set(np.unique(fractions)) <= {0.0, 1.0}}")
print("sparse graphs break into many small outages; dense graphs into few total ones")
