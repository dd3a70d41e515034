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

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .core import StepConfig, StepMode, _energy_outside, _finite, _step
from .data import PlantedModel, draw_batch
from .subspaces import (MetricSample, _at_least, _column_major, _cosines, _cross_gram, _dims, _discrepancy,
                         _own_fields, _similarity, _squares, _within, frobenius_discrepancy)

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
        _own_fields(self)
        _dims(self.n, self.d)
        _at_least("sigma_sq", self.sigma_sq, float)
        for name, high in (("rho", 1), ("rho_prime", 1), ("eps_star", self.d), ("c0", math.inf)):
            _within(name, getattr(self, name), 0, high)
        if self.rho + self.rho_prime >= 1:
            raise ValueError(f"rho + rho_prime must be < 1, got {self.rho + self.rho_prime}")
        for name in ("tau1", "tau2"):  # each defaults to log(d)
            if getattr(self, name) is None:
                object.__setattr__(self, name, math.log(self.d))


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
    zeta = _within("zeta", zeta, 0, 1, "(]")
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
    eps, cos_sq_phi_d = _within("eps", eps, 0, p.d), _within("cos_sq_phi_d", cos_sq_phi_d, 0, 1, "[]")
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


class _Phases:
    """The phase targets and each trajectory's ``K1`` and ``K2`` so far, one recorded iterate at a time.

    ``count`` trajectories (a stack of trials in the harness) advance together and ``keep`` drops some; each split
    is held here only and read through ``report``.
    """

    def __init__(self, params: BoundParams, count: int = 1) -> None:
        noisy = params.sigma_sq > 0
        self.target_zeta = noisy_zeta_target(params) if noisy else 0.5
        self.target_eps = noisy_eps_target(params) if noisy else params.eps_star
        self._k1, self._k2 = np.full(count, -1), np.full(count, -1)  # -1 while unmet

    def advance(self, t: int, zeta, eps) -> None:
        """Take the iterates recorded at step ``t`` (a NaN ``zeta`` never meets the target)."""
        k1, k2 = self._k1, self._k2
        if (k2 >= 0).all():  # a split that is complete never changes
            return
        k1 = np.where((k1 < 0) & (zeta >= self.target_zeta), t, k1)
        self._k1, self._k2 = k1, np.where((k1 >= 0) & (k2 < 0) & (eps <= self.target_eps), t - k1, k2)

    def keep(self, keep: np.ndarray) -> None:
        """Drop the trajectories where ``keep`` is False."""
        self._k1, self._k2 = self._k1[keep], self._k2[keep]

    def report(self, i: int = 0) -> PhaseReport:
        k1, k2 = self._k1[i], self._k2[i]
        return PhaseReport(k1=None if k1 < 0 else int(k1), k2=None if k2 < 0 else int(k2),
                           target_zeta=self.target_zeta, target_eps=self.target_eps)


def detect_phases(trajectory: Iterable[MetricSample], params: BoundParams) -> PhaseReport:
    """Split a recorded trajectory into the two measured convergence phases.

    The targets follow ``params.sigma_sq``: without noise they are
    similarity 1/2 and discrepancy ``eps_star``, with noise
    ``noisy_zeta_target`` / ``noisy_eps_target``.  The local phase is
    counted from the iteration that first meets the similarity target
    (``k2 = 0`` when that iterate already meets the discrepancy target).
    Iteration indices must be strictly increasing.  ``trajectory`` is read
    once, so an iterator gives the split its list gives.  The rows of
    ``run_trajectory`` are ``MetricSample``s and pass as they are.  The
    harness advances the same ``_Phases`` while a trial runs.
    """
    trajectory = list(trajectory)
    if not trajectory:
        raise ValueError("trajectory must be non-empty")
    ts = [s.t for s in trajectory]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("iteration indices must be strictly increasing")
    phases = _Phases(params)
    for sample in trajectory:
        phases.advance(sample.t, sample.zeta, sample.epsilon)
    return phases.report()


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


def _oracle_steps(
    model: PlantedModel,
    basis: np.ndarray,
    n_draws: int,
    rng: np.random.Generator,
    gram_metric: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Next-step metric over fresh draws at a fixed iterate, oracle schedule.

    Returns per-draw arrays of the metric of the next iterate and of the
    realized gain term ``(1 - alpha)^2 ||r||^2 / ||p||^2``.  ``gram_metric``
    maps a stack of Gram matrices ``Ubar^T U`` to their metrics:
    ``subspaces._similarity`` or ``subspaces._discrepancy``.

    The draws run in stacks through ``draw_batch`` and ``core._step`` (the
    step ``grouse_step`` runs on one row), and every value is bit-identical
    to one ``draw_sample``, ``grouse_step`` and ``determinant_similarity``
    or ``frobenius_discrepancy`` per draw.  Raises ``ValueError`` for fewer
    than two draws, before drawing, and for a non-finite update.
    """
    n_draws = _at_least("n_draws", n_draws, least=2)  # a standard error needs two draws
    basis = _column_major(basis)  # the layout grouse_step steps, so the bits are its bits
    chunk = min(n_draws, max(_MIN_CHUNK, _CHUNK_ELEMENTS // basis.size))
    cfg = StepConfig(mode=StepMode.ORACLE_NOISY)
    values = np.empty(n_draws)
    gains = np.empty(n_draws)
    for start in range(0, n_draws, chunk):
        stop = min(start + chunk, n_draws)
        batch = draw_batch(model, stop - start, rng)
        _, _, _, p_sq, r_sq, alpha, _, updated, skipped, failed = _step(
            basis, batch.x, cfg, _energy_outside(basis, batch.v))
        _finite(failed.any())
        values[start:stop] = gram_metric(np.matmul(model.ubar.T, updated))
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
    gram = _cross_gram(basis, ubar)
    smallest = _cosines(gram)[-1]  # the SVD sorts the cosines non-increasing
    floor = basis.shape[0] * np.finfo(float).eps
    if smallest <= floor:
        raise ValueError(f"iterate is unresolved: smallest principal-angle cosine "
                         f"{smallest:.3e} <= n * eps = {floor:.3e}")
    return float(_similarity(gram))


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(len(values)))


def _rate_check(mean: float, se: float, bound: float, n_draws: int, *, above: bool) -> RateCheck:
    """Compare a sample mean to its bound at three standard errors.

    ``above`` requires the mean to be at least the bound, otherwise at most.
    With ``se = 0`` the slack is infinite, with the sign of the margin.
    """
    margin = mean - bound if above else bound - mean
    slack = margin / se if se > 0 else (math.inf if margin >= 0 else -math.inf)
    passed = mean >= bound - 3 * se if above else mean <= bound + 3 * se
    return RateCheck(observed_mean=mean, std_err=se, bound=bound, n_draws=n_draws,
                     slack_se=float(slack), passed=bool(passed))


def mc_zeta_rate_check(model: PlantedModel, basis: np.ndarray, n_draws: int, rng: np.random.Generator) -> RateCheck:
    """Check the expected-similarity lower bound at a fixed iterate.

    Runs ``n_draws`` oracle-schedule steps on fresh draws and requires the
    sample mean of the next similarity to stay above
    ``expected_zeta_rate_bound`` minus three standard errors.  The bound
    reads n, d and sigma^2 from ``model``.  Raises ``ValueError`` when the
    smallest principal-angle cosine of ``basis`` is at most ``n * eps``,
    where the current similarity is rounding.
    """
    params = BoundParams(n=model.n, d=model.d, sigma_sq=model.sigma_sq)
    bound = expected_zeta_rate_bound(_resolved_zeta(basis, model.ubar), params)
    zetas, _ = _oracle_steps(model, basis, n_draws, rng, _similarity)
    return _rate_check(*_mean_se(zetas), bound, n_draws, above=True)


def mc_eps_rate_check(model: PlantedModel, basis: np.ndarray, n_draws: int, rng: np.random.Generator) -> RateCheck:
    """Check the expected-discrepancy upper bound at a fixed iterate.

    The bound reads n, d and sigma^2 from ``model``.  Raises ``ValueError``,
    before any draw, when the discrepancy of ``basis`` is not in ``(0, d)``.
    """
    gram = _cross_gram(basis, model.ubar)
    eps_now = _within("iterate's eps", float(_discrepancy(gram)), 0, model.d)
    cos_sq = float(_cosines(gram)[-1] ** 2)  # the smallest cosine, a float64 scalar squared
    params = BoundParams(n=model.n, d=model.d, sigma_sq=model.sigma_sq)
    bound = expected_eps_rate_bound(eps_now, cos_sq, params)
    epss, _ = _oracle_steps(model, basis, n_draws, rng, _discrepancy)
    return _rate_check(*_mean_se(epss), bound, n_draws, above=False)


def mc_zeta_ratio_check(model: PlantedModel, basis: np.ndarray, n_draws: int, rng: np.random.Generator) -> RateCheck:
    """Check the similarity-ratio identity in expectation at a fixed iterate.

    The expected one-step similarity ratio must be at least one plus the
    expected realized gain ``(1 - alpha)^2 ||r||^2 / ||p||^2``; the two
    means are compared at three combined standard errors.  Raises
    ``ValueError`` when the smallest principal-angle cosine of ``basis`` is
    at most ``n * eps``, where the current similarity is rounding.
    """
    zeta_now = _resolved_zeta(basis, model.ubar)
    zetas, gains = _oracle_steps(model, basis, n_draws, rng, _similarity)
    ratios = zetas / zeta_now
    se = math.sqrt(ratios.var(ddof=1) / n_draws + gains.var(ddof=1) / n_draws)
    return _rate_check(float(ratios.mean()), se, 1.0 + float(gains.mean()), n_draws, above=True)


def mc_eps_decrease_check(model: PlantedModel, basis: np.ndarray, n_draws: int, rng: np.random.Generator) -> RateCheck:
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
    epss, _ = _oracle_steps(model, basis, n_draws, rng, _discrepancy)
    return _rate_check(*_mean_se(eps_now - epss), 0.0, n_draws, above=True)
