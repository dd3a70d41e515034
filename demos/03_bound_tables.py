"""Evaluate the two-phase iteration bounds and test their tightness empirically.

The initial-phase bound K1 ~ (d^3/rho') mu0 log(n) is intentionally loose:
random starts reach the local region far faster.  The local-phase bound
K2 = 2 d log(1/(eps* rho)) is close to what actually happens.  A small
sweep measures both ratios over repeated trials.
"""

import math

import numpy as np

from grouse import BoundParams, ExperimentConfig, bounds_table, run_sweep

params = [BoundParams(n=n, d=d, rho=0.1, rho_prime=0.1, eps_star=1e-4)
          for n in (500, 1000) for d in (5, 10)]
print("theoretical bounds (mu0, K1, K2, K):")
print("n,d,sigma_sq,rho,rho_prime,eps_star,mu0,k1_bound,k2_bound,k_bound,error")
for row in bounds_table(params):
    print(row)

configs = [ExperimentConfig(n=p.n, d=p.d, sigma_sq=0.0, trials=20, seed=42,
                            eps_star=1e-4, sparse_ubar=True)
           for p in params]
print("\nmeasured phase lengths over 20 trials each:")
print(f"{'n':>5} {'d':>3} {'K1/d^3logn':>12} {'K2/dlog(1/e*)':>14}")
for summary in run_sweep(configs):
    cfg = summary.cfg
    print(f"{cfg.n:>5} {cfg.d:>3} {np.mean(summary.k1_ratios):>12.4f} "
          f"{np.mean(summary.k2_ratios):>14.3f}")
print("\nK1 ratios sit far below 1 (the bound is loose); K2 ratios sit near 1.")
