"""Does a large finite simulation agree with the infinite-network recursion?

Two checks with all nodes at load 0.8:

1. the recursion's first redistributed load D_1, the per-survivor share of
   the load that fails at stage 0, against its empirical value at N = 100000;
2. full cascades at N = 5000 on either side of the critical disturbance
   against the recursion's verdict.
"""

import numpy as np

from gridcascade import (
    DeltaLoads,
    apply_disturbance,
    init_loads,
    monte_carlo,
    run_recursion,
)

rng = np.random.default_rng(7)
loads = apply_disturbance(init_loads(100_000, DeltaLoads(0.8), rng), 0.1, rng)
failed = loads >= 1.0
predicted = run_recursion(0.8, 0.1)[1][0].D_n
empirical = loads[failed].sum() / (100_000 - failed.sum())
print("per-survivor redistributed load after the first stage (a0=0.8, d_m=0.1):")
print(f"  predicted {predicted:.5f}   empirical {empirical:.5f}   "
      f"({failed.sum()} of 100000 nodes failed)\n")

for d_m in (0.03, 0.07):
    verdict, _ = run_recursion(0.8, d_m)
    stats = monte_carlo(5000, 1.0, DeltaLoads(0.8), d_m, 20, master_seed=99)
    fractions = np.array([o.survivor_fraction for o in stats.outcomes])
    print(f"d_m = {d_m}: recursion says {verdict.value}; "
          f"{np.mean(fractions == 1.0):.0%} of N=5000 trials survive intact")
