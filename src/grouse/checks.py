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
from .core import OracleInfo, StepConfig, StepMode, StepOutcome, grouse_step
from .data import _sparse_density, _sparse_matrix, draw_batch, draw_sample, make_planted
from .subspaces import (
    _at_least,
    _similarity,
    basis_with_angles,
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

# the rates suite runs at one problem size and noise level, (n, d, sigma^2), for every intensity
_RATE = (500, 10, 1e-3)


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


def _worst(cases: int, deviation: Callable[[int], float | None]) -> float | None:
    """Largest ``deviation(i)`` over the cases ``i < cases``, or ``None`` when no case is evaluated.

    A case is evaluated when ``deviation`` does not return ``None``.  A NaN deviation counts as the largest, so a
    property that meets one fails, whichever case it comes from.
    """
    values = [value for value in map(deviation, range(cases)) if value is not None]
    return max(values, key=lambda value: (math.isnan(value), value), default=None)


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
    """``determinant_similarity``, ``det(M)^2`` with ``M = Ubar^T U``, vs the determinant of the product ``M M^T``."""
    def deviation(_):
        u, ubar = _random_pair(rng)
        z = determinant_similarity(u, ubar)
        m = ubar.T @ u
        z_det = float(np.linalg.det(m @ m.T))
        return abs(z - z_det)
    return _result("zeta_matches_determinant", "metrics", _worst(pairs, deviation), 1e-9)


def zeta_eps_inequalities(rng: np.random.Generator, pairs: int) -> PropertyResult:
    """1 - zeta <= eps always; eps <= 2 (1 - zeta) once zeta >= 1/2."""
    def deviation(i):
        if i % 2 == 0:
            u, ubar = _random_pair(rng)
        else:
            ubar = random_orthonormal(30, 4, rng)
            u = basis_with_similarity(ubar, float(rng.uniform(0.5, 1.0)), rng)
        z = determinant_similarity(u, ubar)
        e = frobenius_discrepancy(u, ubar)
        return max((1.0 - z) - e, e - 2.0 * (1.0 - z) if z >= 0.5 else -math.inf)
    return _result("zeta_eps_inequalities", "metrics", _worst(pairs, deviation), 1e-9)


def metric_rotation_invariance(rng: np.random.Generator, pairs: int) -> PropertyResult:
    """Both metrics depend on the spans only: right-rotating a basis changes nothing."""
    def deviation(_):
        u, ubar = _random_pair(rng)
        d = u.shape[1]
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        return max(abs(determinant_similarity(u @ q, ubar) - determinant_similarity(u, ubar)),
                   abs(frobenius_discrepancy(u, ubar @ q) - frobenius_discrepancy(u, ubar)))
    return _result("metric_rotation_invariance", "metrics", _worst(pairs, deviation), 1e-10)


def trace_expectation_mc(rng: np.random.Generator, draws: int) -> PropertyResult:
    """Mean of x^T Q x / x^T x over isotropic x equals tr(Q)/d."""
    d = 6
    q = rng.standard_normal((d, d))
    q = (q + q.T) / 2.0
    x = rng.standard_normal((draws, d))
    vals = np.einsum("ni,ij,nj->n", x, q, x) / np.einsum("ni,ni->n", x, x)
    return _result("trace_expectation_mc", "metrics", _z(vals, np.trace(q) / d), 3.0,
                   f"target={np.trace(q) / d:.5f}")


def random_init_similarity_mc(rng: np.random.Generator, draws: int) -> PropertyResult:
    """Mean initial similarity of random bases equals the exact value 1/binom(n, d)."""
    n, d = 20, 2
    ubar = random_orthonormal(n, d, rng)
    zetas = np.empty(draws)
    chunk = 10_000
    for done in range(0, draws, chunk):
        q = np.linalg.qr(rng.standard_normal((min(chunk, draws - done), n, d)))[0]
        zetas[done:done + len(q)] = _similarity(np.swapaxes(q, 1, 2) @ ubar)  # Q^T Ubar: det(A^T) = det(A)
    target = expected_initial_similarity_exact(n, d)
    return _result("random_init_similarity_mc", "metrics", _z(zetas, target), 3.0,
                   f"mean={zetas.mean():.4e} exact={target:.4e}")


def reorth_agreement(rng: np.random.Generator, pairs: int) -> PropertyResult:
    """Re-orthonormalization is orthonormal to 1e-14 and spans what Householder QR spans, to 1e-12.

    The cases cycle through a basis drifted by 99 GROUSE steps without
    re-orthonormalization and a basis with condition number up to 1e4, at
    scales 1, 1e200 and 1e-200.  ``measured`` is the larger of
    ``max|Q^T Q - I| / 1e-14`` and ``max|Q Q^T - P_qr| / 1e-12``, where
    ``P_qr`` is the projector of ``np.linalg.qr`` on the unscaled basis.
    """
    orth, agreement = 0.0, 0.0

    def deviation(i):
        nonlocal orth, agreement
        u, _ = _random_pair(rng)
        n, d = u.shape
        if i % 2 == 0:
            for _ in range(99):
                u = grouse_step(u, rng.standard_normal(n), StepConfig()).updated
        else:
            singular_values = np.logspace(0, -rng.uniform(0, 4), d)
            u = (u * singular_values) @ np.linalg.qr(rng.standard_normal((d, d)))[0]
        q = reorthonormalize(u * (1.0, 1e200, 1e-200)[i % 3])
        q_qr = np.linalg.qr(u)[0]
        orth = max(orth, float(np.max(np.abs(q.T @ q - np.eye(d)))))
        agreement = max(agreement, float(np.max(np.abs(q @ q.T - q_qr @ q_qr.T))))
        return max(orth / 1e-14, agreement / 1e-12)
    worst = _worst(pairs, deviation)  # before the detail reads orth and agreement
    return _result("reorth_agreement", "metrics", worst, 1.0,
                   f"max|Q^T Q - I|={orth:.1e} projector gap={agreement:.1e}")


def similarity_forms_agree(rng: np.random.Generator, pairs: int) -> PropertyResult:
    """``determinant_similarity`` (``det(Ubar^T U)^2`` by LU) is the product of squared SVD cosines to 1e-12 relative.

    The cases cycle through the sizes (30, 4), (200, 5) and (2000, 20), on
    ``basis_with_angles`` bases whose smallest cosine is log-uniform in
    1e-9 ... 1 and whose other cosines lie in 0.1 ... 1 - 1e-12, with
    ``1 - cos`` log-uniform.  One cosine at most is small: with two or more
    below 1e-3 beside larger ones the SVD leaves the small singular values an
    error of about machine epsilon absolute, and the product is the less
    accurate form.
    ``measured`` is the largest relative gap.
    """
    def deviation(i):
        n, d = ((30, 4), (200, 5), (2000, 20))[i % 3]
        ubar = random_orthonormal(n, d, rng)
        cosines = 1.0 - 10.0 ** rng.uniform(-12.0, math.log10(0.9), d)
        cosines[-1] = 10.0 ** rng.uniform(-9.0, 0.0)
        u = basis_with_angles(ubar, cosines, rng)
        product = float(np.prod(np.square(principal_angles(u, ubar))))
        return abs(determinant_similarity(u, ubar) - product) / product
    return _result("similarity_forms_agree", "metrics", _worst(pairs, deviation), 1e-12)


# ---------------------------------------------------------------------------
# step suite


def _noiseless_case(rng: np.random.Generator, n: int = 40, d: int = 4):
    ubar = random_orthonormal(n, d, rng)
    u = random_orthonormal(n, d, rng)
    s = rng.standard_normal(d)
    v = ubar @ s
    v /= np.linalg.norm(v)
    return ubar, u, v


def _worst_step(rng: np.random.Generator, cases: int,
                deviation: Callable[[np.ndarray, np.ndarray, np.ndarray, StepOutcome], float | None],
                cfg: StepConfig = StepConfig(), oracle: OracleInfo | None = None,
                n: int = 40, d: int = 4) -> float | None:
    """Largest ``deviation(ubar, u, v, out)`` over noise-free cases and their steps, or ``None``.

    A case is evaluated when its step is not skipped and ``deviation`` does not return ``None``.
    """
    def stepped(_):
        ubar, u, v = _noiseless_case(rng, n, d)
        out = grouse_step(u, v, cfg, oracle=oracle)
        return None if out.skipped else deviation(ubar, u, v, out)
    return _worst(cases, stepped)


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


def greedy_optimality(rng: np.random.Generator, cases: int) -> PropertyResult:
    """Scaling the step's angle by 0.9 or 1.1 must strictly lower the similarity gain.

    The gain is re-evaluated through the one-step ratio formula
    ``(cos(theta) + (||v_perp||/||v_par||) sin(theta))^2`` at the angle the step reports.
    """
    def deviation(ubar, u, v, out):
        q = float(np.linalg.norm(out.r) / np.linalg.norm(out.p))

        def gain(theta: float) -> float:
            return (math.cos(theta) + q * math.sin(theta)) ** 2

        return max(gain(0.9 * out.theta), gain(1.1 * out.theta)) - gain(out.theta)
    return _result("greedy_optimality", "step", _worst_step(rng, cases, deviation), -1e-15)


def step_equivariance(rng: np.random.Generator, cases: int) -> PropertyResult:
    """Rotating the basis representation does not change the updated subspace."""
    def deviation(ubar, u, v, out):
        d = u.shape[1]
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        out_b = grouse_step(u @ q, v, StepConfig())
        if out_b.skipped:
            return None
        return 1.0 - determinant_similarity(out.updated, out_b.updated)
    return _result("step_equivariance", "step", _worst_step(rng, cases, deviation), 1e-9)


def alpha_one_fixed_point(rng: np.random.Generator, cases: int) -> PropertyResult:
    """With full damping the rotation angle is zero and the basis is unchanged."""
    cfg = StepConfig(mode=StepMode.ORACLE_NOISY, sigma_sq=1.0)

    def deviation(ubar, u, v, out):
        return max(abs(out.alpha - 1.0), abs(out.theta), float(np.max(np.abs(out.updated - u))))
    worst = _worst_step(rng, cases, deviation, cfg, oracle=OracleInfo(v_perp_norm_sq=0.0))
    return _result("alpha_one_fixed_point", "step", worst, 1e-12)


def rotation_forms_agree(rng: np.random.Generator, cases: int) -> PropertyResult:
    """The direction ``-2 sin^2(theta/2) p_hat + sin(theta) r_hat`` is ``cos(theta) p_hat + sin(theta) r_hat - p_hat``.

    On the steps of noise-free cases, at angles where both forms are
    accurate, the update ``U' - U`` agrees with the rank-one update of the
    ``cos(theta) - 1`` form to 1e-12 relative to its largest entry.  A step
    at ``theta`` of about 1e-9, where ``cos(theta) - 1`` cancels, keeps
    ``max|U'^T U' - I| <= 1e-14``.  ``measured`` is the larger of the
    relative gap over 1e-12 and the orthonormality error over 1e-14.
    """
    def gap(ubar, u, v, out):
        p_hat = out.p / np.linalg.norm(out.p)
        old = np.cos(out.theta) * p_hat + np.sin(out.theta) * out.r / np.linalg.norm(out.r) - p_hat
        old_update = np.outer(old, out.w / np.linalg.norm(out.w))
        return float(np.max(np.abs(out.updated - u - old_update)) / np.max(np.abs(old_update)))

    def small_angle_orth(_):
        _, u, v = _noiseless_case(rng)
        z = rng.standard_normal(u.shape[0])
        z -= u @ (u.T @ z)
        x = u @ (u.T @ v) + 1e-9 * z / np.linalg.norm(z)  # residual 1e-9 of a projection near 1: theta near 1e-9
        out = grouse_step(u, x, StepConfig())
        return None if out.skipped else float(np.max(np.abs(out.updated.T @ out.updated - np.eye(u.shape[1]))))

    worst_gap, worst_orth = _worst_step(rng, cases, gap), _worst(cases, small_angle_orth)
    if worst_gap is None or worst_orth is None:
        return _result("rotation_forms_agree", "step", None, 1.0)
    return _result("rotation_forms_agree", "step", max(worst_gap / 1e-12, worst_orth / 1e-14), 1.0,
                   f"relative gap={worst_gap:.1e} max|U'^T U' - I| at theta~1e-9={worst_orth:.1e}")


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


def noise_energy_mc(rng: np.random.Generator, draws: int) -> PropertyResult:
    """Mean noise-to-signal energy ratio equals sigma^2 under unit signal norm."""
    sigma_sq = 0.04
    model = make_planted(100, 5, sigma_sq, sparse=False, rng=rng)
    batch = draw_batch(model, draws, rng)
    ratios = np.einsum("ni,ni->n", batch.xi, batch.xi)
    return _result("noise_energy_mc", "data", _z(ratios, sigma_sq), 3.0)


def noise_split_mc(rng: np.random.Generator, draws: int) -> PropertyResult:
    """Expected noise energy splits as (d/n) sigma^2 in-span and (1 - d/n) sigma^2 out-of-span."""
    n, d, sigma_sq = 100, 5, 0.04
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


def sparse_density_mc(rng: np.random.Generator) -> PropertyResult:
    """Fraction of structurally nonzero entries matches the generation density."""
    n, d, models = 1000, 5, 100
    density = _sparse_density(n, d)
    fractions = np.empty(models)
    for i in range(models):
        fractions[i] = np.count_nonzero(_sparse_matrix(n, d, density, rng)) / (n * d)
    se = math.sqrt(density * (1 - density) / (n * d * models))
    z = abs(fractions.mean() - density) / se
    return _result("sparse_density_mc", "data", z, 3.0, f"density={density:.4f}")


def stream_determinism(rng: np.random.Generator) -> PropertyResult:
    """Identical seeds reproduce the model and the sample stream bit for bit: two generators of ``rng``'s seed."""
    a, b = (np.random.default_rng(rng.bit_generator.seed_seq) for _ in range(2))
    model_a = make_planted(50, 3, 1e-2, sparse=True, rng=a)
    model_b = make_planted(50, 3, 1e-2, sparse=True, rng=b)
    worst = float(np.max(np.abs(model_a.ubar - model_b.ubar)))
    for _ in range(5):
        sa = draw_sample(model_a, a)
        sb = draw_sample(model_b, b)
        worst = max(worst, float(np.max(np.abs(sa.x - sb.x))))
    return _result("stream_determinism", "data", worst, 0.0)


# ---------------------------------------------------------------------------
# rates suite


def _rate_fixture(rng: np.random.Generator, zeta: float):
    model = make_planted(*_RATE, sparse=True, rng=rng)
    return model, basis_with_similarity(model.ubar, zeta, rng)


def zeta_rate_bound_mc(rng: np.random.Generator, draws: int) -> PropertyResult:
    model, basis = _rate_fixture(rng, zeta=0.1)
    check = mc_zeta_rate_check(model, basis, draws, rng)
    return _result("zeta_rate_bound_mc", "rates", -check.slack_se, 3.0,
                   f"mean={check.observed_mean:.5f} bound={check.bound:.5f}")


def eps_rate_bound_mc(rng: np.random.Generator, draws: int) -> PropertyResult:
    model, basis = _rate_fixture(rng, zeta=0.6)
    check = mc_eps_rate_check(model, basis, draws, rng)
    return _result("eps_rate_bound_mc", "rates", -check.slack_se, 3.0,
                   f"mean={check.observed_mean:.5f} bound={check.bound:.5f}")


def zeta_ratio_identity_mc(rng: np.random.Generator, draws: int) -> PropertyResult:
    model, basis = _rate_fixture(rng, zeta=0.3)
    check = mc_zeta_ratio_check(model, basis, draws, rng)
    return _result("zeta_ratio_identity_mc", "rates", -check.slack_se, 3.0,
                   f"mean_ratio={check.observed_mean:.5f} bound={check.bound:.5f}")


def eps_decrease_mc(rng: np.random.Generator, draws: int) -> PropertyResult:
    model, basis = _rate_fixture(rng, zeta=0.6)
    check = mc_eps_decrease_check(model, basis, draws, rng)
    return _result("eps_decrease_mc", "rates", -check.slack_se, 3.0,
                   f"mean_decrease={check.observed_mean:.3e}")


def bound_formula_sanity(rng: np.random.Generator) -> PropertyResult:
    """Plug-in values and shape properties of the bound evaluators; ``rng`` is not drawn from."""
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

# One row per property: its suite, the ``_COUNTS`` keys of its sizes and its function's name.  ``verify`` calls the
# function as ``check(rng, *sizes)``, looked up by name so that a wrapper set on the module attribute sees the call;
# a property takes no other argument, and the worst of its cases is ``_worst``'s.
# Row k draws from its own stream, ``SeedSequence(seed, spawn_key=(k,))``, so rows are only appended, never reordered
# or deleted: a property added or stubbed out then moves no other property's draws.
_PROPERTIES = (
    ("metrics", ("pairs",), "zeta_determinant_agreement"),
    ("metrics", ("pairs",), "zeta_eps_inequalities"),
    ("metrics", ("pairs",), "metric_rotation_invariance"),
    ("metrics", ("trace_draws",), "trace_expectation_mc"),
    ("metrics", ("init_draws",), "random_init_similarity_mc"),
    ("metrics", ("pairs",), "reorth_agreement"),
    ("metrics", ("pairs",), "similarity_forms_agree"),
    ("step", ("step_cases",), "step_orthonormality"),
    ("step", ("step_cases",), "rank_one_structure"),
    ("step", ("step_cases",), "monotonic_zeta_identity"),
    ("step", ("step_cases",), "monotonic_eps_identity"),
    ("step", ("step_cases",), "greedy_optimality"),
    ("step", ("step_cases",), "step_equivariance"),
    ("step", ("step_cases",), "alpha_one_fixed_point"),
    ("step", ("step_cases",), "rotation_forms_agree"),
    ("data", ("noise_draws",), "sample_invariants"),
    ("data", ("noise_draws",), "noise_energy_mc"),
    ("data", ("noise_draws",), "noise_split_mc"),
    ("data", ("noise_draws",), "signal_energy_unnormalized_mc"),
    ("data", (), "sparse_density_mc"),
    ("data", (), "stream_determinism"),
    ("rates", ("rate_draws",), "zeta_rate_bound_mc"),
    ("rates", ("rate_draws",), "eps_rate_bound_mc"),
    ("rates", ("rate_draws",), "zeta_ratio_identity_mc"),
    ("rates", ("rate_draws",), "eps_decrease_mc"),
    ("rates", (), "bound_formula_sanity"),
)


def verify(suite: str = "all", seed: int = 0, intensity: str = "quick") -> VerifyReport:
    """Run a property suite and report per-property outcomes, in the order of ``_PROPERTIES``.

    ``suite`` is one of ``metrics``, ``step``, ``data``, ``rates`` or
    ``all``; ``intensity`` picks the sample sizes (``quick`` stays well
    under a minute, ``full`` spends more draws on the statistical checks).
    ``seed`` must be a non-negative integer.
    """
    seed = _at_least("seed", seed)
    if suite not in SUITES + ("all",):
        raise ValueError(f"unknown suite {suite!r}; pick from {SUITES + ('all',)}")
    if intensity not in _COUNTS:
        raise ValueError(f"unknown intensity {intensity!r}; pick from {tuple(_COUNTS)}")
    started = time.perf_counter()
    results = [globals()[name](np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,))),
                               *(_COUNTS[intensity][key] for key in keys))
               for k, (row_suite, keys, name) in enumerate(_PROPERTIES) if suite in (row_suite, "all")]
    return VerifyReport(results=results, runtime_s=time.perf_counter() - started)
