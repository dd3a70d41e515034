"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict
line; without ``-s`` the lines still appear for failing criteria.
"""

import math
import time

import numpy as np
import pytest

from grouse.bounds import (
    BoundParams,
    k1_bound,
    k2_bound,
    k_total_bound,
    mc_eps_rate_check,
    mc_zeta_rate_check,
)
from grouse.core import StepConfig, StepMode, Tracker
from grouse.data import make_planted, draw_sample
from grouse.harness import ExperimentConfig, run_sweep
from grouse.subspaces import (
    basis_with_similarity,
    determinant_similarity,
    expected_initial_similarity,
    frobenius_discrepancy,
    random_orthonormal,
)


def report(number, name, ok, detail):
    print(f"\ncriterion {number:02d} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ---------------------------------------------------------------------------
# criterion 1: one-step improvement identities on noise-free data


def test_criterion_01_noiseless_monotonicity_identities():
    started = time.perf_counter()
    n, d, steps, trajectories = 100, 5, 500, 100
    worst_rel = 0.0
    worst_abs = 0.0
    cfg = StepConfig()  # greedy, re-orthonormalization every 100 non-skipped steps
    for trial in range(trajectories):
        rng = np.random.default_rng(np.random.SeedSequence(1001, spawn_key=(trial,)))
        model = make_planted(n, d, 0.0, sparse=True, rng=rng)
        tracker = Tracker(random_orthonormal(n, d, rng), cfg)
        zeta_now = determinant_similarity(tracker.basis, model.ubar)
        eps_now = frobenius_discrepancy(tracker.basis, model.ubar)
        for _ in range(steps):
            sample = draw_sample(model, rng)
            v_par = tracker.basis @ (tracker.basis.T @ sample.v)
            v_perp = sample.v - v_par
            out = tracker.update(sample.x)
            if out.skipped:
                continue
            zeta_next = determinant_similarity(out.updated, model.ubar)
            eps_next = frobenius_discrepancy(out.updated, model.ubar)
            ratio_predicted = 1.0 + float(v_perp @ v_perp) / float(v_par @ v_par)
            worst_rel = max(worst_rel, abs(zeta_next / zeta_now / ratio_predicted - 1.0))
            proj = model.ubar @ (model.ubar.T @ v_par)
            decrease_predicted = 1.0 - float(proj @ proj) / float(v_par @ v_par)
            worst_abs = max(worst_abs, abs((eps_now - eps_next) - decrease_predicted))
            zeta_now, eps_now = zeta_next, eps_next
    elapsed = time.perf_counter() - started
    ok = worst_rel <= 1e-8 and worst_abs <= 1e-8 and elapsed < 30.0
    assert report(
        1,
        "noiseless-monotonicity-identities",
        ok,
        f"max rel dev {worst_rel:.2e} (tol 1e-8), max abs dev {worst_abs:.2e} "
        f"(tol 1e-8) over {trajectories} trajectories x {steps} steps, {elapsed:.1f}s (<30s)",
    )


# ---------------------------------------------------------------------------
# criteria 2 and 3 share the same 50 noiseless runs at n=200, d=5


@pytest.fixture(scope="module")
def convergence_runs():
    cfg = ExperimentConfig(n=200, d=5, sigma_sq=0.0, trials=50, seed=2024,
                           eps_star=1e-4, sparse_ubar=True, threads=8)
    started = time.perf_counter()
    summary = run_sweep([cfg])[0]
    return summary, time.perf_counter() - started


def test_criterion_02_global_noiseless_convergence(convergence_runs):
    summary, elapsed = convergence_runs
    params = BoundParams(n=200, d=5, rho=0.1, rho_prime=0.1, eps_star=1e-4)
    budget = k_total_bound(params)
    within = [
        r for r in summary.results
        if r.phase.k1 is not None and r.phase.k2 is not None
        and r.phase.k1 + r.phase.k2 <= budget
    ]
    fraction = len(within) / len(summary.results)
    ok = fraction >= 0.8 and elapsed < 120.0
    assert report(
        2,
        "global-convergence-within-bound",
        ok,
        f"{len(within)}/{len(summary.results)} trials reached eps<=1e-4 within "
        f"K1+K2={budget:.1f} iterations (need >=80%), {elapsed:.1f}s (<120s)",
    )


def test_criterion_03_local_linear_rate(convergence_runs):
    summary, _ = convergence_runs
    params = BoundParams(n=200, d=5, rho=0.1, rho_prime=0.1, eps_star=1e-4)
    budget = k2_bound(params)
    k2s = [r.phase.k2 for r in summary.results if r.phase.k2 is not None]
    fraction = sum(k2 <= budget for k2 in k2s) / len(summary.results)
    ratio_mean = float(np.mean(summary.k2_ratios))
    ok = fraction >= 0.9 and 0.25 <= ratio_mean <= 1.0
    assert report(
        3,
        "local-linear-rate",
        ok,
        f"K2<= {budget:.1f} in {fraction:.0%} of trials (need >=90%); "
        f"mean K2/(d log(1/eps*)) = {ratio_mean:.3f} (band [0.25, 1.0])",
    )


# ---------------------------------------------------------------------------
# criterion 4: the initial-phase bound is loose


def test_criterion_04_k1_bound_looseness():
    started = time.perf_counter()
    configs = [
        ExperimentConfig(n=n, d=d, sigma_sq=0.0, trials=50, seed=77,
                         eps_star=1e-4, sparse_ubar=True, threads=8)
        for n in (500, 1000)
        for d in (5, 10)
    ]
    summaries = run_sweep(configs)
    per_config = {
        (s.cfg.n, s.cfg.d): float(np.mean(s.k1_ratios)) for s in summaries
    }
    overall = float(np.mean([r for s in summaries for r in s.k1_ratios]))
    elapsed = time.perf_counter() - started
    ok = overall < 0.1 and all(v < 0.1 for v in per_config.values())
    assert report(
        4,
        "k1-bound-looseness",
        ok,
        f"mean K1/(d^3 log n) = {overall:.4f} overall (need <0.1); per config "
        + ", ".join(f"n={n},d={d}:{v:.4f}" for (n, d), v in sorted(per_config.items()))
        + f"; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 5: expected similarity of a random initialization


def test_criterion_05_random_init_expectation():
    started = time.perf_counter()
    n, d, draws = 20, 2, 100_000
    rng = np.random.default_rng(505)
    ubar = random_orthonormal(n, d, rng)
    total = 0.0
    for _ in range(draws):
        total += determinant_similarity(random_orthonormal(n, d, rng), ubar)
    mean = total / draws
    target = expected_initial_similarity(n, d)  # (d / (n e))^d with unit prefactor
    lo, hi = 0.75 * target, 1.25 * target
    elapsed = time.perf_counter() - started
    ok = lo <= mean <= hi and elapsed < 60.0
    assert report(
        5,
        "random-init-expectation",
        ok,
        f"mean initial similarity {mean:.4e} vs band [{lo:.3e}, {hi:.3e}] "
        f"around (d/ne)^d={target:.4e}; exact expectation is 1/binom(n,d)="
        f"{1 / math.comb(n, d):.4e}, a factor {1 / math.comb(n, d) / target:.2f} "
        f"above the asymptotic form; {elapsed:.1f}s (<60s)",
    )


# ---------------------------------------------------------------------------
# criterion 6: expected similarity rate bound under noise


def test_criterion_06_zeta_rate_bound():
    started = time.perf_counter()
    n, d, draws = 2000, 20, 10_000
    rng = np.random.default_rng(606)
    details = []
    all_ok = True
    for sigma_sq in (1e-3, 1e-1):
        model = make_planted(n, d, sigma_sq, sparse=True, rng=rng)
        for zeta in (0.01, 0.1, 0.5):
            basis = basis_with_similarity(model.ubar, zeta, rng)
            check = mc_zeta_rate_check(model, basis, draws, rng)
            all_ok &= check.passed
            details.append(f"s2={sigma_sq},z={zeta}:slack={check.slack_se:+.0f}se")
    elapsed = time.perf_counter() - started
    ok = all_ok and elapsed < 300.0
    assert report(
        6,
        "zeta-rate-bound-mc",
        ok,
        f"mean zeta_next >= bound - 3se in all 6 settings ({'; '.join(details)}); "
        f"{elapsed:.1f}s (<300s)",
    )


# ---------------------------------------------------------------------------
# criterion 7: expected discrepancy rate bound under noise


def test_criterion_07_eps_rate_bound():
    started = time.perf_counter()
    n, d, sigma_sq, draws = 500, 10, 1e-3, 10_000
    rng = np.random.default_rng(707)
    model = make_planted(n, d, sigma_sq, sparse=True, rng=rng)
    basis = basis_with_similarity(model.ubar, 0.6, rng)
    check = mc_eps_rate_check(model, basis, draws, rng)
    elapsed = time.perf_counter() - started
    ok = check.passed and elapsed < 120.0
    assert report(
        7,
        "eps-rate-bound-mc",
        ok,
        f"mean eps_next {check.observed_mean:.5f} <= bound {check.bound:.5f} + 3se "
        f"(slack {check.slack_se:+.0f}se); {elapsed:.1f}s (<120s)",
    )


# ---------------------------------------------------------------------------
# criterion 8: noisy runs plateau at the scaled target


def test_criterion_08_noisy_plateau():
    started = time.perf_counter()
    n, d, sigma_sq, trials = 5000, 10, 1e-4, 20
    tau1 = math.log(d)
    target_eps = max(sigma_sq, tau1 * d**2 / n * sigma_sq)
    cfg = ExperimentConfig(n=n, d=d, sigma_sq=sigma_sq, trials=trials, seed=808,
                           eps_star=target_eps, mode=StepMode.PRACTICAL_NOISY,
                           sparse_ubar=True, max_iters=12_000, record_every=5,
                           threads=8)
    summary = run_sweep([cfg])[0]
    finite = [
        r for r in summary.results
        if r.phase.k1 is not None and r.phase.k2 is not None and r.final_eps <= target_eps
    ]
    fraction = len(finite) / trials
    elapsed = time.perf_counter() - started
    ok = fraction >= 0.9 and elapsed < 300.0
    assert report(
        8,
        "noisy-plateau-phase-detection",
        ok,
        f"{len(finite)}/{trials} trials reached eps<=max(sigma^2, tau1 d^2 sigma^2/n)="
        f"{target_eps:.1e} with finite (K1, K2) (need >=90%); {elapsed:.1f}s (<300s)",
    )


# ---------------------------------------------------------------------------
# criterion 9: long-run numerical hygiene


def test_criterion_09_numerical_hygiene():
    started = time.perf_counter()
    n, d, steps = 1000, 10, 100_000
    rng = np.random.default_rng(909)
    model = make_planted(n, d, 0.0, sparse=True, rng=rng)
    tracker = Tracker(random_orthonormal(n, d, rng))  # default re-orthonormalization period of 100
    eye = np.eye(d)
    worst = 0.0
    for _ in range(steps):
        basis = tracker.update(draw_sample(model, rng).x).updated
        worst = max(worst, float(np.max(np.abs(basis.T @ basis - eye))))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9
    assert report(
        9,
        "numerical-hygiene-long-run",
        ok,
        f"max orthonormality drift {worst:.2e} over {steps} steps "
        f"(tol 1e-9, {tracker.steps - tracker.skipped_steps} non-skipped); {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 10: scheduling-independent reproducibility


def test_criterion_10_sweep_determinism(tmp_path):
    bodies = {}
    for threads in (1, 8):
        out = tmp_path / f"sweep_t{threads}.csv"
        configs = [
            ExperimentConfig(n=200, d=5, sigma_sq=0.0, trials=8, seed=1010,
                             eps_star=1e-4, sparse_ubar=True, threads=threads),
            ExperimentConfig(n=150, d=4, sigma_sq=1e-3, trials=8, seed=1010,
                             mode=StepMode.PRACTICAL_NOISY, max_iters=500,
                             threads=threads),
        ]
        run_sweep(configs, out_path=str(out))
        raw = out.read_bytes().split(b"\n")
        bodies[threads] = [line for line in raw if not line.startswith(b"#")]
    ok = bodies[1] == bodies[8]
    assert report(
        10,
        "sweep-thread-determinism",
        ok,
        f"CSV bodies byte-identical across thread counts: {ok} "
        f"({len(bodies[1])} lines)",
    )
