"""Track a planted subspace from a random start and split the run into phases.

A noise-free stream from a sparse planted subspace is consumed one vector
at a time.  The determinant similarity (zeta) races to 1 first; once it
crosses 1/2 the Frobenius discrepancy (epsilon) contracts linearly.  The
measured phase lengths are compared against the theoretical bounds.
"""

import numpy as np

from grouse import (
    BoundParams,
    ExperimentConfig,
    k1_bound,
    k2_bound,
    run_trajectory,
)

cfg = ExperimentConfig(n=200, d=5, sigma_sq=0.0, seed=7, eps_star=1e-4, sparse_ubar=True)
result, rows = run_trajectory(cfg)

print(f"n={cfg.n} d={cfg.d} noise-free, target eps* = {cfg.eps_star:g}")
print(f"{'t':>5} {'zeta':>12} {'epsilon':>12} {'theta':>8}")
for row in rows[:: max(1, len(rows) // 15)] + [rows[-1]]:
    print(f"{row.t:>5} {row.zeta:>12.4e} {row.epsilon:>12.4e} {row.theta:>8.4f}")

params = BoundParams(n=cfg.n, d=cfg.d, rho=0.1, rho_prime=0.1, eps_star=cfg.eps_star)
print(f"\nmeasured K1 = {result.phase.k1} (bound {k1_bound(params):.0f})")
print(f"measured K2 = {result.phase.k2} (bound {k2_bound(params):.0f})")
print(f"final epsilon = {result.final_eps:.3e} after {result.iters_run} iterations")
