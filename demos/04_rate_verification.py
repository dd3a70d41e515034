"""Monte Carlo verification of the per-iteration expected-rate bounds.

A test iterate is constructed at a prescribed similarity to the planted
subspace, then thousands of oracle-damped steps are taken from it on fresh
draws.  The sample means of the next similarity and next discrepancy are
compared against the expected-rate bound formulas at three standard errors.
"""

import numpy as np

from grouse import (
    basis_with_similarity,
    make_planted,
    mc_eps_rate_check,
    mc_zeta_rate_check,
)

rng = np.random.default_rng(0)
n, d, sigma_sq, draws = 1000, 10, 1e-3, 4000
model = make_planted(n, d, sigma_sq, sparse=True, rng=rng)

print(f"n={n} d={d} sigma^2={sigma_sq}, {draws} draws per fixed iterate\n")
print("similarity lower bound:")
print(f"{'zeta_t':>7} {'bound':>10} {'mean zeta_t+1':>14} {'slack':>12}")
for zeta in (0.02, 0.1, 0.5):
    basis = basis_with_similarity(model.ubar, zeta, rng)
    check = mc_zeta_rate_check(model, basis, draws, rng)
    print(f"{zeta:>7.2f} {check.bound:>10.5f} {check.observed_mean:>14.5f} "
          f"{check.slack_se:>+9.0f} se")

print("\ndiscrepancy upper bound:")
basis = basis_with_similarity(model.ubar, 0.6, rng)
check = mc_eps_rate_check(model, basis, draws, rng)
print(f"mean eps_next = {check.observed_mean:.5f} vs bound {check.bound:.5f} "
      f"(slack {check.slack_se:+.0f} se, passed={check.passed})")
