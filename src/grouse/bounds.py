"""Theoretical iteration bounds, expected-rate formulas, and their Monte Carlo checks.

Convergence of the streaming estimator splits into two measured phases:
``K1`` iterations to bring the determinant similarity up to its target
(1/2 noiseless) and ``K2`` further iterations to bring the Frobenius
discrepancy down to the accuracy target.  This module evaluates the
theoretical bounds on both phases, the per-iteration expected-rate bounds
for noisy data, and detects the measured phase split in a recorded
trajectory.  The ``mc_*`` functions verify the expected-rate results by
running real update steps on fresh draws at a fixed iterate.

Logarithms are natural throughout.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import StepConfig, StepMode, _energy_outside, _step
from .data import PlantedModel, draw_batch
from .subspaces import (MetricSample, _check_finite, _cosines, _cross_gram, _discrepancy, _similarity,
                         _squares, determinant_similarity, frobenius_discrepancy, principal_angles)

__all__ = [
    "BoundParams",
    "PhaseReport",
    "RateCheck",
    "detect_phases",
    "expected_eps_rate_bound",
    "expected_zeta_rate_bound",
    "k1_bound",
    "k2_bound",
    "k_total_bound",
    "mc_eps_decrease_check",
    "mc_eps_rate_check",
    "mc_zeta_rate_check",
    "mc_zeta_ratio_check",
    "mu0",
]


@dataclass(frozen=True)
class BoundParams:
    """Inputs to the iteration-bound and expected-rate formulas.

    ``rho`` and ``rho_prime`` are the failure probabilities of the local
    and initial phase; ``eps_star`` the target Frobenius discrepancy;
    ``c0`` the prefactor of the expected initial similarity (close to 1);
    ``tau1``/``tau2`` scale the noisy-phase targets and default to
    ``log(d)``.
    """

    n: int
    d: int
    sigma_sq: float = 0.0
    rho: float = 0.1
    rho_prime: float = 0.1
    eps_star: float = 1e-4
    c0: float = 1.0
    tau1: float | None = None
    tau2: float | None = None

    def __post_init__(self) -> None:
        if not 0 < self.d < self.n:
            raise ValueError(f"need 0 < d < n, got n={self.n}, d={self.d}")
        if self.sigma_sq < 0:
            raise ValueError(f"sigma_sq must be >= 0, got {self.sigma_sq}")
        if not 0 < self.rho < 1 or not 0 < self.rho_prime < 1:
            raise ValueError("rho and rho_prime must lie in (0, 1)")
        if self.rho + self.rho_prime >= 1:
            raise ValueError(f"rho + rho_prime must be < 1, got {self.rho + self.rho_prime}")
        if not 0 < self.eps_star < self.d:
            raise ValueError(f"eps_star must lie in (0, d), got {self.eps_star}")
        if self.c0 <= 0:
            raise ValueError(f"c0 must be > 0, got {self.c0}")
        if self.tau1 is None:
            object.__setattr__(self, "tau1", math.log(self.d))
        if self.tau2 is None:
            object.__setattr__(self, "tau2", math.log(self.d))
        _check_finite(sigma_sq=self.sigma_sq, c0=self.c0, tau1=self.tau1, tau2=self.tau2)


@dataclass(frozen=True)
class PhaseReport:
    """Measured phase split of a trajectory.

    ``k1`` is the first recorded iteration with similarity at or above
    ``target_zeta``; ``k2`` the number of further iterations until the
    discrepancy first drops to ``target_eps``.  Either is ``None`` when
    the trajectory never reaches the corresponding target.
    """

    k1: int | None
    k2: int | None
    target_zeta: float
    target_eps: float


def mu0(params: BoundParams) -> float:
    """Initial-phase log factor ``1 + (log((1 - rho')/c0) + d log(e/d)) / (d log n)``."""
    p = params
    return 1.0 + (math.log((1.0 - p.rho_prime) / p.c0) + p.d * math.log(math.e / p.d)) / (
        p.d * math.log(p.n)
    )


def k1_bound(params: BoundParams) -> float:
    """Initial-phase iteration bound ``(d^3/rho' + d) * mu0 * log(n)``."""
    p = params
    return (p.d**3 / p.rho_prime + p.d) * mu0(p) * math.log(p.n)


def k2_bound(params: BoundParams) -> float:
    """Local-phase iteration bound ``2 d log(1/(eps_star rho))``.

    Requires ``eps_star * rho < 1``.
    """
    p = params
    if p.eps_star * p.rho >= 1:
        raise ValueError(f"eps_star * rho must be < 1, got {p.eps_star * p.rho}")
    return 2.0 * p.d * math.log(1.0 / (p.eps_star * p.rho))


def k_total_bound(params: BoundParams) -> float:
    """Combined two-phase iteration bound ``k1_bound + k2_bound``."""
    return k1_bound(params) + k2_bound(params)


def expected_zeta_rate_bound(zeta: float, params: BoundParams) -> float:
    """Lower bound on the expected next determinant similarity given the current one.

    Returns ``(1 + beta0 * g * (1 - sigma^2 / (g + sigma^2))) * zeta`` with
    ``g = (1 - zeta)/d`` and ``beta0 = 1 / (1 + (d/n) sigma^2)``.  With
    ``sigma^2 = 0`` this reduces to the noiseless rate ``(1 + g) * zeta``.
    """
    if not 0 < zeta <= 1:
        raise ValueError(f"zeta must lie in (0, 1], got {zeta}")
    p = params
    gap = (1.0 - zeta) / p.d
    if p.sigma_sq == 0:
        return (1.0 + gap) * zeta
    beta0 = 1.0 / (1.0 + p.d / p.n * p.sigma_sq)
    return (1.0 + beta0 * gap * (1.0 - p.sigma_sq / (gap + p.sigma_sq))) * zeta


def expected_eps_rate_bound(eps: float, cos_sq_phi_d: float, params: BoundParams) -> float:
    """Upper bound on the expected next Frobenius discrepancy given the current one.

    Returns ``(1 - (beta0/d) * (cos_sq_phi_d - beta1 sigma^2 / (eps/d + beta1 sigma^2))) * eps``
    with ``beta0 = 1/(1 + (d/n) sigma^2)`` and ``beta1 = 1 - d/n``;
    ``cos_sq_phi_d`` is the squared cosine of the largest principal angle.
    """
    p = params
    if not 0 < eps < p.d:
        raise ValueError(f"eps must lie in (0, d), got {eps}")
    if not 0 <= cos_sq_phi_d <= 1:
        raise ValueError(f"cos_sq_phi_d must lie in [0, 1], got {cos_sq_phi_d}")
    beta0 = 1.0 / (1.0 + p.d / p.n * p.sigma_sq)
    beta1 = 1.0 - p.d / p.n
    noise_term = beta1 * p.sigma_sq / (eps / p.d + beta1 * p.sigma_sq) if p.sigma_sq > 0 else 0.0
    return (1.0 - beta0 / p.d * (cos_sq_phi_d - noise_term)) * eps


def noisy_zeta_target(params: BoundParams) -> float:
    """Similarity target for the initial phase under noise: ``min(1/2, exp(-tau2 d^2 sigma^2 / n))``."""
    p = params
    return min(0.5, math.exp(-p.tau2 * p.d**2 * p.sigma_sq / p.n))


def noisy_eps_target(params: BoundParams) -> float:
    """Discrepancy target for the local phase under noise: ``max(sigma^2, tau1 (d^2/n) sigma^2)``."""
    p = params
    return max(p.sigma_sq, p.tau1 * p.d**2 / p.n * p.sigma_sq)


@dataclass(frozen=True)
class _PhaseRule:
    """The phase targets and the K1/K2 update of ``detect_phases``, one recorded iterate at a time.

    ``k1`` and ``k2`` are integer arrays, one entry per trajectory (a
    stack of trials in the harness), and hold -1 while unmet.
    """

    target_zeta: float
    target_eps: float

    @classmethod
    def of(cls, params: BoundParams, noisy: bool) -> "_PhaseRule":
        if noisy:
            return cls(noisy_zeta_target(params), noisy_eps_target(params))
        return cls(0.5, params.eps_star)

    def advance(self, k1, k2, t: int, zeta, eps):
        """``k1`` and ``k2`` after the iterate recorded at step ``t`` (a NaN ``zeta`` never meets the target)."""
        if (k2 >= 0).all():  # a split that is complete never changes
            return k1, k2
        k1 = np.where((k1 < 0) & (zeta >= self.target_zeta), t, k1)
        k2 = np.where((k1 >= 0) & (k2 < 0) & (eps <= self.target_eps), t - k1, k2)
        return k1, k2

    def report(self, k1, k2) -> PhaseReport:
        return PhaseReport(k1=None if k1 < 0 else int(k1), k2=None if k2 < 0 else int(k2),
                           target_zeta=self.target_zeta, target_eps=self.target_eps)


def detect_phases(
    trajectory: Sequence[MetricSample],
    params: BoundParams,
    noisy: bool = False,
) -> PhaseReport:
    """Split a recorded trajectory into the two measured convergence phases.

    Noiseless targets are similarity 1/2 and discrepancy ``eps_star``;
    noisy targets are ``noisy_zeta_target`` / ``noisy_eps_target``.  The
    local phase is counted from the iteration that first meets the
    similarity target (``k2 = 0`` when that iterate already meets the
    discrepancy target).  Iteration indices must be strictly increasing.
    The harness applies the same ``_PhaseRule`` while a trial runs.
    """
    if not trajectory:
        raise ValueError("trajectory must be non-empty")
    ts = [s.t for s in trajectory]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("iteration indices must be strictly increasing")
    rule = _PhaseRule.of(params, noisy)
    k1, k2 = np.full(1, -1), np.full(1, -1)
    for sample in trajectory:
        k1, k2 = rule.advance(k1, k2, sample.t, sample.zeta, sample.epsilon)
    return rule.report(k1[0], k2[0])


@dataclass(frozen=True)
class RateCheck:
    """Outcome of a Monte Carlo bound verification.

    ``slack_se`` is how many standard errors the observed mean clears the
    bound by (positive = inequality satisfied with room); ``passed`` uses
    the conventional 3-standard-error acceptance.
    """

    observed_mean: float
    std_err: float
    bound: float
    n_draws: int
    slack_se: float
    passed: bool


# A stack holds the draws whose updated bases fill about 2**16 elements (0.5 MB; 13 draws
# at (500, 10) ran fastest), and a few draws at least, so large bases share the per-stack cost.
_CHUNK_ELEMENTS = 2**16
_MIN_CHUNK = 4


# The per-basis metrics the ``mc_*`` checks pass, and their forms on a stack of Gram matrices.
_STACKED_METRICS = {
    determinant_similarity: lambda gram: _similarity(_cosines(gram)),
    frobenius_discrepancy: _discrepancy,
}


def _oracle_steps(
    model: PlantedModel,
    basis: np.ndarray,
    n_draws: int,
    rng: np.random.Generator,
    metric: Callable[[np.ndarray, np.ndarray], float],
) -> tuple[np.ndarray, np.ndarray]:
    """Next-step metric over fresh draws at a fixed iterate, oracle schedule.

    Returns per-draw arrays of ``metric(next iterate, ubar)`` and of the
    realized gain term ``(1 - alpha)^2 ||r||^2 / ||p||^2``; ``metric`` is
    ``determinant_similarity`` or ``frobenius_discrepancy``, or a
    ``functools.wraps`` wrapper of one (a tracer's or profiler's).

    The draws run in stacks through ``draw_batch`` and ``core._step`` (the
    step ``grouse_step`` runs on one row), and every value is bit-identical
    to one ``draw_sample``, ``grouse_step`` and ``metric`` per draw.  Raises
    ``ValueError`` for fewer than two draws, before drawing, and for a
    non-finite update.
    """
    if n_draws < 2:
        raise ValueError(f"n_draws must be >= 2 for a standard error, got {n_draws}")
    stacked_metric = _STACKED_METRICS[inspect.unwrap(metric)]
    chunk = min(n_draws, max(_MIN_CHUNK, _CHUNK_ELEMENTS // basis.size))
    cfg = StepConfig(mode=StepMode.ORACLE_NOISY)
    values = np.empty(n_draws)
    gains = np.empty(n_draws)
    for start in range(0, n_draws, chunk):
        stop = min(start + chunk, n_draws)
        batch = draw_batch(model, stop - start, rng)
        _, _, _, p_sq, r_sq, alpha, _, updated, skipped = _step(
            basis, batch.x, cfg, _energy_outside(basis, batch.v))
        values[start:stop] = stacked_metric(np.matmul(model.ubar.T, updated))
        del updated  # the next stack's update is built without this one held
        gains[start:stop] = np.divide(_squares(1.0 - alpha) * r_sq, p_sq,
                                      out=np.zeros(stop - start), where=~skipped)
    return values, gains


def _resolved_zeta(basis: np.ndarray, ubar: np.ndarray) -> float:
    """Similarity of a fixed iterate that rounding has not decided.

    Same arithmetic as ``determinant_similarity``.  Raises ``ValueError``
    when the smallest principal-angle cosine is at most ``n`` machine
    epsilons: a rate or ratio against such a similarity measures rounding.
    """
    cosines = principal_angles(basis, ubar)
    floor = basis.shape[0] * np.finfo(float).eps
    if cosines[-1] <= floor:  # principal_angles sorts the cosines non-increasing
        raise ValueError(f"iterate is unresolved: smallest principal-angle cosine "
                         f"{cosines[-1]:.3e} <= n * eps = {floor:.3e}")
    return float(_similarity(cosines))


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(len(values)))


def _rate_check(mean: float, se: float, bound: float, n_draws: int, *, above: bool) -> RateCheck:
    """Compare a sample mean to its bound at three standard errors.

    ``above`` requires the mean to be at least the bound, otherwise at most.
    """
    margin = mean - bound if above else bound - mean
    slack = margin / se if se > 0 else math.inf
    passed = mean >= bound - 3 * se if above else mean <= bound + 3 * se
    return RateCheck(observed_mean=mean, std_err=se, bound=bound, n_draws=n_draws,
                     slack_se=float(slack), passed=bool(passed))


def mc_zeta_rate_check(
    model: PlantedModel,
    basis: np.ndarray,
    params: BoundParams,
    n_draws: int,
    rng: np.random.Generator,
) -> RateCheck:
    """Check the expected-similarity lower bound at a fixed iterate.

    Runs ``n_draws`` oracle-schedule steps on fresh draws and requires the
    sample mean of the next similarity to stay above
    ``expected_zeta_rate_bound`` minus three standard errors.  Raises
    ``ValueError`` when the smallest principal-angle cosine of ``basis`` is
    at most ``n * eps``, where the current similarity is rounding.
    """
    bound = expected_zeta_rate_bound(_resolved_zeta(basis, model.ubar), params)
    zetas, _ = _oracle_steps(model, basis, n_draws, rng, determinant_similarity)
    return _rate_check(*_mean_se(zetas), bound, n_draws, above=True)


def mc_eps_rate_check(
    model: PlantedModel,
    basis: np.ndarray,
    params: BoundParams,
    n_draws: int,
    rng: np.random.Generator,
) -> RateCheck:
    """Check the expected-discrepancy upper bound at a fixed iterate."""
    gram = _cross_gram(basis, model.ubar)
    cos_sq = float(_cosines(gram)[-1] ** 2)  # the smallest cosine, a float64 scalar squared
    bound = expected_eps_rate_bound(float(_discrepancy(gram)), cos_sq, params)
    epss, _ = _oracle_steps(model, basis, n_draws, rng, frobenius_discrepancy)
    return _rate_check(*_mean_se(epss), bound, n_draws, above=False)


def mc_zeta_ratio_check(
    model: PlantedModel,
    basis: np.ndarray,
    n_draws: int,
    rng: np.random.Generator,
) -> RateCheck:
    """Check the similarity-ratio identity in expectation at a fixed iterate.

    The expected one-step similarity ratio must be at least one plus the
    expected realized gain ``(1 - alpha)^2 ||r||^2 / ||p||^2``; the two
    means are compared at three combined standard errors.  Raises
    ``ValueError`` when the smallest principal-angle cosine of ``basis`` is
    at most ``n * eps``, where the current similarity is rounding.
    """
    zeta_now = _resolved_zeta(basis, model.ubar)
    zetas, gains = _oracle_steps(model, basis, n_draws, rng, determinant_similarity)
    ratios = zetas / zeta_now
    se = math.sqrt(ratios.var(ddof=1) / n_draws + gains.var(ddof=1) / n_draws)
    return _rate_check(float(ratios.mean()), se, 1.0 + float(gains.mean()), n_draws, above=True)


def mc_eps_decrease_check(
    model: PlantedModel,
    basis: np.ndarray,
    n_draws: int,
    rng: np.random.Generator,
) -> RateCheck:
    """Check that the discrepancy decreases in expectation outside the noise ball.

    Requires the current discrepancy to be at least ``d^2 sigma^2``; the
    sample mean of the per-step decrease must be non-negative up to three
    standard errors.
    """
    d = model.d
    eps_now = frobenius_discrepancy(basis, model.ubar)
    if eps_now < d**2 * model.sigma_sq:
        raise ValueError(
            f"iterate is inside the noise ball: eps={eps_now:.3e} < d^2 sigma^2="
            f"{d**2 * model.sigma_sq:.3e}"
        )
    epss, _ = _oracle_steps(model, basis, n_draws, rng, frobenius_discrepancy)
    return _rate_check(*_mean_se(eps_now - epss), 0.0, n_draws, above=True)
