"""How observation noise reshapes the two convergence phases.

The same problem is run across noise levels with the practical damping
schedule.  Small noise barely changes the trajectory; large noise leaves
the similarity improving while the discrepancy stalls on a floor set by
the noise level, so only the similarity metric remains informative.
"""

import numpy as np

from grouse import ExperimentConfig, StepMode, run_trajectory

N, D = 2000, 20
print(f"n={N} d={D}, practical damping, 3000 iterations per noise level")
print(f"{'sigma^2':>9} {'zeta_final':>11} {'eps_min':>10} {'eps_final':>10}")
for sigma_sq in (0.0, 1e-5, 1e-3, 1e-1, 1.0):
    mode = StepMode.PRACTICAL_NOISY if sigma_sq > 0 else StepMode.GREEDY_NOISELESS
    cfg = ExperimentConfig(n=N, d=D, sigma_sq=sigma_sq, seed=11, max_iters=3000,
                           eps_star=1e-6, mode=mode, sparse_ubar=True, record_every=25)
    result, rows = run_trajectory(cfg)
    eps_values = [row.epsilon for row in rows[1:]]
    print(f"{sigma_sq:>9.0e} {result.final_zeta:>11.4f} "
          f"{min(eps_values):>10.2e} {result.final_eps:>10.2e}")

print("\nWith sigma^2 >= 1e-1 the discrepancy plateaus orders of magnitude above")
print("the noiseless floor while the similarity still improves monotonically.")
