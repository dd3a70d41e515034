"""Named property suites: identities, invariances, and Monte Carlo checks.

Each check measures one deviation statistic and compares it to a fixed
tolerance (``measured <= tolerated`` means pass).  Statistical checks use
the conventional three-standard-error acceptance, so ``measured`` is a
z-distance for those.  ``verify`` runs a suite and returns a report; the
CLI prints one line per property and maps the overall result to its exit
status.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .bounds import (
    BoundParams,
    _mean_se,
    expected_zeta_rate_bound,
    k1_bound,
    k2_bound,
    mc_eps_decrease_check,
    mc_eps_rate_check,
    mc_zeta_rate_check,
    mc_zeta_ratio_check,
    mu0,
)
from .core import OracleInfo, StepConfig, StepMode, StepOutcome, compute_theta, grouse_step, project
from .data import _sparse_density, _sparse_matrix, draw_batch, draw_sample, make_planted
from .subspaces import (
    basis_with_similarity,
    determinant_similarity,
    expected_initial_similarity_exact,
    frobenius_discrepancy,
    principal_angles,
    random_orthonormal,
    reorthonormalize,
)

__all__ = ["PropertyResult", "VerifyReport", "SUITES", "verify"]

SUITES = ("metrics", "step", "data", "rates")

_COUNTS = {
    "quick": {
        "pairs": 40,
        "trace_draws": 50_000,
        "init_draws": 30_000,
        "noise_draws": 50_000,
        "step_cases": 100,
        "rate_draws": 2_000,
    },
    "full": {
        "pairs": 200,
        "trace_draws": 100_000,
        "init_draws": 100_000,
        "noise_draws": 100_000,
        "step_cases": 300,
        "rate_draws": 10_000,
    },
}

# the rates suite runs at one problem size and noise level for every intensity
_RATE_N = 500
_RATE_D = 10
_RATE_SIGMA_SQ = 1e-3


@dataclass(frozen=True)
class PropertyResult:
    """One verified property: its measured deviation against the tolerated one."""

    name: str
    suite: str
    measured: float
    tolerated: float
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return (
            f"{status} {self.suite}/{self.name}: measured={self.measured:.3e} "
            f"tolerated={self.tolerated:.3e}{extra}"
        )


@dataclass(frozen=True)
class VerifyReport:
    results: list[PropertyResult]
    runtime_s: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failed_names(self) -> list[str]:
        return [r.name for r in self.results if not r.passed]


def _result(name: str, suite: str, measured: float | None, tolerated: float, detail: str = "") -> PropertyResult:
    """``measured=None`` means no case was evaluated: the property fails with ``measured=inf``."""
    if measured is None:
        measured, detail = math.inf, "; ".join(filter(None, ("no case evaluated", detail)))
    return PropertyResult(name, suite, float(measured), float(tolerated), bool(measured <= tolerated), detail)


def _z(values: np.ndarray, target: float) -> float:
    """Distance of the sample mean of ``values`` from ``target`` in standard errors."""
    mean, se = _mean_se(values)
    return abs(mean - target) / se


def _random_pair(rng: np.random.Generator, n_max: int = 50) -> tuple[np.ndarray, np.ndarray]:
    n = int(rng.integers(6, n_max + 1))
    d = int(rng.integers(1, min(n - 1, 8) + 1))
    return random_orthonormal(n, d, rng), random_orthonormal(n, d, rng)


# ---------------------------------------------------------------------------
# metrics suite


def zeta_determinant_agreement(rng: np.random.Generator, pairs: int) -> PropertyResult:
    """Product-of-squared-singular-values route vs explicit determinant."""
    worst = 0.0
    for _ in range(pairs):
        u, ubar = _random_pair(rng)
        z = determinant_similarity(u, ubar)
        m = ubar.T @ u
        z_det = float(np.linalg.det(m @ m.T))
        worst = max(worst, abs(z - z_det))
    return _result("zeta_matches_determinant", "metrics", worst if pairs > 0 else None, 1e-9)


def zeta_eps_inequalities(rng: np.random.Generator, pairs: int) -> PropertyResult:
    """1 - zeta <= eps always; eps <= 2 (1 - zeta) once zeta >= 1/2."""
    worst = -math.inf
    for i in range(pairs):
        if i % 2 == 0:
            u, ubar = _random_pair(rng)
        else:
            ubar = random_orthonormal(30, 4, rng)
            u = basis_with_similarity(ubar, float(rng.uniform(0.5, 1.0)), rng)
        z = determinant_similarity(u, ubar)
        e = frobenius_discrepancy(u, ubar)
        worst = max(worst, (1.0 - z) - e)
        if z >= 0.5:
            worst = max(worst, e - 2.0 * (1.0 - z))
    return _result("zeta_eps_inequalities", "metrics", worst if pairs > 0 else None, 1e-9)


def metric_rotation_invariance(rng: np.random.Generator, pairs: int) -> PropertyResult:
    """Both metrics depend on the spans only: right-rotating a basis changes nothing."""
    worst = 0.0
    for _ in range(pairs):
        u, ubar = _random_pair(rng)
        d = u.shape[1]
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        worst = max(worst, abs(determinant_similarity(u @ q, ubar) - determinant_similarity(u, ubar)))
        worst = max(worst, abs(frobenius_discrepancy(u, ubar @ q) - frobenius_discrepancy(u, ubar)))
    return _result("metric_rotation_invariance", "metrics", worst if pairs > 0 else None, 1e-10)


def trace_expectation_mc(rng: np.random.Generator, draws: int, d: int = 6) -> PropertyResult:
    """Mean of x^T Q x / x^T x over isotropic x equals tr(Q)/d."""
    q = rng.standard_normal((d, d))
    q = (q + q.T) / 2.0
    x = rng.standard_normal((draws, d))
    vals = np.einsum("ni,ij,nj->n", x, q, x) / np.einsum("ni,ni->n", x, x)
    return _result("trace_expectation_mc", "metrics", _z(vals, np.trace(q) / d), 3.0,
                   f"target={np.trace(q) / d:.5f}")


def random_init_similarity_mc(rng: np.random.Generator, draws: int, n: int = 20, d: int = 2) -> PropertyResult:
    """Mean initial similarity of random bases equals the exact value 1/binom(n, d)."""
    ubar = random_orthonormal(n, d, rng)
    dets = np.empty(draws)
    chunk = 10_000
    for done in range(0, draws, chunk):
        q = np.linalg.qr(rng.standard_normal((min(chunk, draws - done), n, d)))[0]
        dets[done:done + len(q)] = np.linalg.det(np.swapaxes(q, 1, 2) @ ubar) ** 2
    target = expected_initial_similarity_exact(n, d)
    return _result("random_init_similarity_mc", "metrics", _z(dets, target), 3.0,
                   f"mean={dets.mean():.4e} exact={target:.4e}")


def reorth_agreement(rng: np.random.Generator, pairs: int) -> PropertyResult:
    """Re-orthonormalization is orthonormal to 1e-14 and spans what Householder QR spans, to 1e-12.

    The cases cycle through a basis drifted by 99 GROUSE steps without
    re-orthonormalization and a basis with condition number up to 1e4, at
    scales 1, 1e200 and 1e-200.  ``measured`` is the larger of
    ``max|Q^T Q - I| / 1e-14`` and ``max|Q Q^T - P_qr| / 1e-12``, where
    ``P_qr`` is the projector of ``np.linalg.qr`` on the unscaled basis.
    """
    orth, agreement = 0.0, 0.0
    for i in range(pairs):
        u, _ = _random_pair(rng)
        n, d = u.shape
        if i % 2 == 0:
            for _ in range(99):
                u = grouse_step(u, rng.standard_normal(n), _NO_REORTH).updated
        else:
            singular_values = np.logspace(0, -rng.uniform(0, 4), d)
            u = (u * singular_values) @ np.linalg.qr(rng.standard_normal((d, d)))[0]
        q = reorthonormalize(u * (1.0, 1e200, 1e-200)[i % 3])
        q_qr = np.linalg.qr(u)[0]
        orth = max(orth, float(np.max(np.abs(q.T @ q - np.eye(d)))))
        agreement = max(agreement, float(np.max(np.abs(q @ q.T - q_qr @ q_qr.T))))
    return _result("reorth_agreement", "metrics", max(orth / 1e-14, agreement / 1e-12) if pairs > 0 else None,
                   1.0, f"max|Q^T Q - I|={orth:.1e} projector gap={agreement:.1e}")


# ---------------------------------------------------------------------------
# step suite


def _noiseless_case(rng: np.random.Generator, n: int = 40, d: int = 4):
    ubar = random_orthonormal(n, d, rng)
    u = random_orthonormal(n, d, rng)
    s = rng.standard_normal(d)
    v = ubar @ s
    v /= np.linalg.norm(v)
    return ubar, u, v


_NO_REORTH = StepConfig(reorth_period=None)


def _worst_step(rng: np.random.Generator, cases: int,
                deviation: Callable[[np.ndarray, np.ndarray, np.ndarray, StepOutcome], float | None],
                cfg: StepConfig = _NO_REORTH, oracle: OracleInfo | None = None,
                n: int = 40, d: int = 4) -> float | None:
    """Largest ``deviation(ubar, u, v, out)`` over noise-free cases and their steps, or ``None``.

    A case is evaluated when its step is not skipped and ``deviation`` does not return ``None``.
    """
    worst, evaluated = 0.0, 0
    for _ in range(cases):
        ubar, u, v = _noiseless_case(rng, n, d)
        out = grouse_step(u, v, cfg, oracle=oracle)
        if out.skipped:
            continue
        value = deviation(ubar, u, v, out)
        if value is not None:
            worst, evaluated = max(worst, value), evaluated + 1
    return worst if evaluated else None


def step_orthonormality(rng: np.random.Generator, cases: int) -> PropertyResult:
    """A non-skipped update of an orthonormal basis stays orthonormal to 1e-9."""
    def deviation(ubar, u, v, out):
        return float(np.max(np.abs(out.updated.T @ out.updated - np.eye(u.shape[1]))))
    return _result("step_orthonormality", "step", _worst_step(rng, cases, deviation), 1e-9)


def rank_one_structure(rng: np.random.Generator, cases: int) -> PropertyResult:
    """The update maps w/||w|| to y/||y|| and fixes every in-span direction orthogonal to w."""
    def deviation(ubar, u, v, out):
        w_hat = out.w / np.linalg.norm(out.w)
        p_norm = np.linalg.norm(out.p)
        r_norm = np.linalg.norm(out.r)
        y_hat = np.cos(out.theta) * out.p / p_norm + np.sin(out.theta) * out.r / r_norm
        z = rng.standard_normal(u.shape[1])
        z -= (z @ w_hat) * w_hat
        return max(float(np.max(np.abs(out.updated @ w_hat - y_hat))),
                   float(np.max(np.abs(out.updated @ z - u @ z))))
    return _result("rank_one_structure", "step", _worst_step(rng, cases, deviation, n=30, d=4), 1e-10)


def monotonic_zeta_identity(rng: np.random.Generator, cases: int) -> PropertyResult:
    """Noiseless greedy similarity ratio equals 1 + ||v_perp||^2 / ||v_par||^2."""
    def deviation(ubar, u, v, out):
        z0 = determinant_similarity(u, ubar)
        v_par = u @ (u.T @ v)
        v_perp = v - v_par
        z1 = determinant_similarity(out.updated, ubar)
        predicted = 1.0 + float(v_perp @ v_perp) / float(v_par @ v_par)
        return abs(z1 / z0 / predicted - 1.0)
    return _result("monotonic_zeta_identity", "step", _worst_step(rng, cases, deviation), 1e-8)


def monotonic_eps_identity(rng: np.random.Generator, cases: int) -> PropertyResult:
    """Noiseless greedy discrepancy decrease equals 1 - ||P_bar v_par||^2 / ||v_par||^2."""
    def deviation(ubar, u, v, out):
        e0 = frobenius_discrepancy(u, ubar)
        v_par = u @ (u.T @ v)
        e1 = frobenius_discrepancy(out.updated, ubar)
        proj = ubar @ (ubar.T @ v_par)
        predicted = 1.0 - float(proj @ proj) / float(v_par @ v_par)
        return abs((e0 - e1) - predicted)
    return _result("monotonic_eps_identity", "step", _worst_step(rng, cases, deviation), 1e-8)


def greedy_optimality(
    rng: np.random.Generator,
    cases: int,
    theta_scale: float = 1.0,
) -> PropertyResult:
    """Scaling the used angle by 0.9 or 1.1 must strictly lower the similarity gain.

    The gain is re-evaluated through the one-step ratio formula
    ``(cos(theta) + (||v_perp||/||v_par||) sin(theta))^2``.  ``theta_scale``
    deliberately mis-scales the angle actually applied (negative-control
    hook); any value other than 1 makes the property fail.
    """
    worst, evaluated = -math.inf, 0
    for _ in range(max(cases, 100)):
        ubar, u, v = _noiseless_case(rng)
        w, p, r = project(u, v)
        p_norm = float(np.linalg.norm(p))
        r_norm = float(np.linalg.norm(r))
        if min(p_norm, r_norm, float(np.linalg.norm(w))) <= 1e-12:
            continue
        theta_used = theta_scale * compute_theta(0.0, r_norm, p_norm)
        q = r_norm / p_norm

        def gain(theta: float) -> float:
            return (math.cos(theta) + q * math.sin(theta)) ** 2

        best_perturbed = max(gain(0.9 * theta_used), gain(1.1 * theta_used))
        worst, evaluated = max(worst, best_perturbed - gain(theta_used)), evaluated + 1
    return _result("greedy_optimality", "step", worst if evaluated else None, -1e-15,
                   detail=f"theta_scale={theta_scale}")


def step_equivariance(rng: np.random.Generator, cases: int) -> PropertyResult:
    """Rotating the basis representation does not change the updated subspace."""
    def deviation(ubar, u, v, out):
        d = u.shape[1]
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        out_b = grouse_step(u @ q, v, _NO_REORTH)
        if out_b.skipped:
            return None
        return 1.0 - determinant_similarity(out.updated, out_b.updated)
    return _result("step_equivariance", "step", _worst_step(rng, cases, deviation), 1e-9)


def alpha_one_fixed_point(rng: np.random.Generator, cases: int) -> PropertyResult:
    """With full damping the rotation angle is zero and the basis is unchanged."""
    cfg = StepConfig(mode=StepMode.ORACLE_NOISY, sigma_sq=1.0, reorth_period=None)

    def deviation(ubar, u, v, out):
        return max(abs(out.alpha - 1.0), abs(out.theta), float(np.max(np.abs(out.updated - u))))
    worst = _worst_step(rng, cases, deviation, cfg, oracle=OracleInfo(v_perp_norm_sq=0.0))
    return _result("alpha_one_fixed_point", "step", worst, 1e-12)


# ---------------------------------------------------------------------------
# data suite


def sample_invariants(rng: np.random.Generator, draws: int) -> PropertyResult:
    """x = v + xi exactly; v in the planted span; unit signal norm."""
    model = make_planted(100, 5, 1e-3, sparse=True, rng=rng)
    batch = draw_batch(model, draws, rng)
    worst = float(np.max(np.abs(batch.x - batch.v - batch.xi)))
    out_of_span = batch.v - (batch.v @ model.ubar) @ model.ubar.T
    worst = max(worst, float(np.max(np.linalg.norm(out_of_span, axis=1))))
    norms = np.linalg.norm(batch.v, axis=1)
    worst = max(worst, float(np.max(np.abs(norms - 1.0))))
    return _result("sample_invariants", "data", worst, 1e-10)


def noise_energy_mc(rng: np.random.Generator, draws: int, sigma_sq: float = 0.04) -> PropertyResult:
    """Mean noise-to-signal energy ratio equals sigma^2 under unit signal norm."""
    model = make_planted(100, 5, sigma_sq, sparse=False, rng=rng)
    batch = draw_batch(model, draws, rng)
    ratios = np.einsum("ni,ni->n", batch.xi, batch.xi)
    return _result("noise_energy_mc", "data", _z(ratios, sigma_sq), 3.0)


def noise_split_mc(rng: np.random.Generator, draws: int, sigma_sq: float = 0.04) -> PropertyResult:
    """Expected noise energy splits as (d/n) sigma^2 in-span and (1 - d/n) sigma^2 out-of-span."""
    n, d = 100, 5
    model = make_planted(n, d, sigma_sq, sparse=False, rng=rng)
    basis = random_orthonormal(n, d, rng)
    batch = draw_batch(model, draws, rng)
    par = (batch.xi @ basis) @ basis.T
    perp = batch.xi - par
    par_sq = np.einsum("ni,ni->n", par, par)
    perp_sq = np.einsum("ni,ni->n", perp, perp)
    z_par = _z(par_sq, d / n * sigma_sq)
    return _result("noise_split_mc", "data", max(z_par, _z(perp_sq, (1 - d / n) * sigma_sq)), 3.0)


def signal_energy_unnormalized_mc(rng: np.random.Generator, draws: int) -> PropertyResult:
    """Without normalization the expected squared signal norm is d."""
    n, d = 100, 5
    model = make_planted(n, d, 0.0, sparse=False, rng=rng, normalize_signal=False)
    batch = draw_batch(model, draws, rng)
    sq = np.einsum("ni,ni->n", batch.v, batch.v)
    return _result("signal_energy_unnormalized_mc", "data", _z(sq, d), 3.0)


def sparse_density_mc(rng: np.random.Generator, models: int = 100) -> PropertyResult:
    """Fraction of structurally nonzero entries matches the generation density."""
    n, d = 1000, 5
    density = _sparse_density(n, d)
    fractions = np.empty(models)
    for i in range(models):
        fractions[i] = np.count_nonzero(_sparse_matrix(n, d, density, rng)) / (n * d)
    se = math.sqrt(density * (1 - density) / (n * d * models))
    z = abs(fractions.mean() - density) / se
    return _result("sparse_density_mc", "data", z, 3.0, f"density={density:.4f}")


def stream_determinism(rng_seed: int) -> PropertyResult:
    """Identical seeds reproduce the model and the sample stream bit for bit."""
    worst = 0.0
    for _ in range(2):
        a = np.random.default_rng(rng_seed)
        b = np.random.default_rng(rng_seed)
        model_a = make_planted(50, 3, 1e-2, sparse=True, rng=a)
        model_b = make_planted(50, 3, 1e-2, sparse=True, rng=b)
        worst = max(worst, float(np.max(np.abs(model_a.ubar - model_b.ubar))))
        for _ in range(5):
            sa = draw_sample(model_a, a)
            sb = draw_sample(model_b, b)
            worst = max(worst, float(np.max(np.abs(sa.x - sb.x))))
    return _result("stream_determinism", "data", worst, 0.0)


# ---------------------------------------------------------------------------
# rates suite


def _rate_fixture(rng: np.random.Generator, n: int, d: int, zeta: float):
    model = make_planted(n, d, _RATE_SIGMA_SQ, sparse=True, rng=rng)
    basis = basis_with_similarity(model.ubar, zeta, rng)
    return model, basis


def zeta_rate_bound_mc(rng: np.random.Generator, n: int, d: int, draws: int) -> PropertyResult:
    model, basis = _rate_fixture(rng, n, d, zeta=0.1)
    check = mc_zeta_rate_check(model, basis, BoundParams(n=n, d=d, sigma_sq=_RATE_SIGMA_SQ), draws, rng)
    return _result("zeta_rate_bound_mc", "rates", -check.slack_se, 3.0,
                   f"mean={check.observed_mean:.5f} bound={check.bound:.5f}")


def eps_rate_bound_mc(rng: np.random.Generator, n: int, d: int, draws: int) -> PropertyResult:
    model, basis = _rate_fixture(rng, n, d, zeta=0.6)
    check = mc_eps_rate_check(model, basis, BoundParams(n=n, d=d, sigma_sq=_RATE_SIGMA_SQ), draws, rng)
    return _result("eps_rate_bound_mc", "rates", -check.slack_se, 3.0,
                   f"mean={check.observed_mean:.5f} bound={check.bound:.5f}")


def zeta_ratio_identity_mc(rng: np.random.Generator, n: int, d: int, draws: int) -> PropertyResult:
    model, basis = _rate_fixture(rng, n, d, zeta=0.3)
    check = mc_zeta_ratio_check(model, basis, draws, rng)
    return _result("zeta_ratio_identity_mc", "rates", -check.slack_se, 3.0,
                   f"mean_ratio={check.observed_mean:.5f} bound={check.bound:.5f}")


def eps_decrease_mc(rng: np.random.Generator, n: int, d: int, draws: int) -> PropertyResult:
    model, basis = _rate_fixture(rng, n, d, zeta=0.6)
    check = mc_eps_decrease_check(model, basis, draws, rng)
    return _result("eps_decrease_mc", "rates", -check.slack_se, 3.0,
                   f"mean_decrease={check.observed_mean:.3e}")


def bound_formula_sanity() -> PropertyResult:
    """Plug-in values and shape properties of the bound evaluators."""
    p = BoundParams(n=200, d=5, rho=0.1, rho_prime=0.1, eps_star=1e-4)
    worst = abs(mu0(p) - 0.8809980656223966)
    worst = max(worst, abs(k1_bound(p) - 5858.098225482874) / 5858.098225482874)
    worst = max(worst, abs(k2_bound(p) - 115.12925464970229) / 115.12925464970229)
    # noise only slows the guaranteed similarity rate, which never predicts regression
    prev = math.inf
    for sigma_sq in (0.0, 1e-4, 1e-2, 1.0):
        q = BoundParams(n=500, d=10, sigma_sq=sigma_sq)
        value = expected_zeta_rate_bound(0.3, q)
        worst = max(worst, value - prev)
        worst = max(worst, 0.3 - value)
        prev = value
    return _result("bound_formula_sanity", "rates", worst, 1e-9)


# ---------------------------------------------------------------------------
# driver


def verify(suite: str = "all", seed: int = 0, intensity: str = "quick") -> VerifyReport:
    """Run a property suite and report per-property outcomes.

    ``suite`` is one of ``metrics``, ``step``, ``data``, ``rates`` or
    ``all``; ``intensity`` picks the sample sizes (``quick`` stays well
    under a minute, ``full`` spends more draws on the statistical checks).
    """
    if suite not in SUITES + ("all",):
        raise ValueError(f"unknown suite {suite!r}; pick from {SUITES + ('all',)}")
    if intensity not in _COUNTS:
        raise ValueError(f"unknown intensity {intensity!r}; pick from {tuple(_COUNTS)}")
    counts = _COUNTS[intensity]
    rng = np.random.default_rng(seed)
    started = time.perf_counter()
    results: list[PropertyResult] = []

    if suite in ("metrics", "all"):
        for check in (zeta_determinant_agreement, zeta_eps_inequalities, metric_rotation_invariance):
            results.append(check(rng, counts["pairs"]))
        results.append(trace_expectation_mc(rng, counts["trace_draws"]))
        results.append(random_init_similarity_mc(rng, counts["init_draws"]))
        # a child generator: the draws of the properties after this one do not depend on it
        results.append(reorth_agreement(rng.spawn(1)[0], counts["pairs"]))
    if suite in ("step", "all"):
        for check in (step_orthonormality, rank_one_structure, monotonic_zeta_identity, monotonic_eps_identity,
                      greedy_optimality, step_equivariance, alpha_one_fixed_point):
            results.append(check(rng, counts["step_cases"]))
    if suite in ("data", "all"):
        for check in (sample_invariants, noise_energy_mc, noise_split_mc, signal_energy_unnormalized_mc):
            results.append(check(rng, counts["noise_draws"]))
        results.append(sparse_density_mc(rng))
        results.append(stream_determinism(seed))
    if suite in ("rates", "all"):
        for check in (zeta_rate_bound_mc, eps_rate_bound_mc, zeta_ratio_identity_mc, eps_decrease_mc):
            results.append(check(rng, _RATE_N, _RATE_D, counts["rate_draws"]))
        results.append(bound_formula_sanity())

    return VerifyReport(results=results, runtime_s=time.perf_counter() - started)
