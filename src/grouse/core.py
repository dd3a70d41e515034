"""One streaming subspace update: projection, adaptive step size, rank-one rotation.

Given the current orthonormal basis ``U`` and an observation ``x``, a step
decomposes ``x`` into its projection ``p`` onto ``span(U)`` and residual
``r = x - p``, picks a rotation angle

    theta = arctan((1 - alpha) * ||r|| / ||p||),

and replaces the in-span direction ``p/||p||`` by
``y/||y|| = cos(theta) p/||p|| + sin(theta) r/||r||`` through the rank-one
update

    U' = U + (y/||y|| - p/||p||) w^T / ||w||,        w = U^T x.

With ``alpha = 0`` the angle is the greedy choice that maximizes the
one-step gain of the determinant similarity on noise-free data.  The two
noisy schedules damp the step as the residual becomes noise dominated:
the practical schedule uses only observable norms and the configured
noise level, the oracle schedule uses the true out-of-span signal energy
(available only in simulation).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .subspaces import reorthonormalize

__all__ = [
    "OracleInfo",
    "StepConfig",
    "StepMode",
    "StepOutcome",
    "compute_alpha",
    "compute_theta",
    "grouse_step",
    "project",
    "rotate_update",
]


class StepMode(Enum):
    """Step-size schedule: greedy (noise-free), practical noisy, or oracle noisy."""

    GREEDY_NOISELESS = "greedy"
    PRACTICAL_NOISY = "practical"
    ORACLE_NOISY = "oracle"


@dataclass(frozen=True)
class StepConfig:
    """Step-size schedule and numerical-hygiene settings.

    ``sigma_sq`` is the known upper bound on the noise-to-signal energy
    ratio; ``c`` the positive constant scaling the practical schedule.
    Steps whose coefficient, projection, or residual norm falls at or
    below ``skip_norm_tol`` are skipped.  ``reorth_period`` asks callers
    that track a non-skipped step count to re-orthonormalize every that
    many non-skipped steps (``None`` disables periodic correction).
    """

    mode: StepMode = StepMode.GREEDY_NOISELESS
    sigma_sq: float = 0.0
    c: float = 1.0
    skip_norm_tol: float = 1e-12
    reorth_period: int | None = 100

    def __post_init__(self) -> None:
        if self.sigma_sq < 0:
            raise ValueError(f"sigma_sq must be >= 0, got {self.sigma_sq}")
        if self.c <= 0:
            raise ValueError(f"c must be > 0, got {self.c}")
        if self.skip_norm_tol <= 0:
            raise ValueError(f"skip_norm_tol must be > 0, got {self.skip_norm_tol}")
        if self.reorth_period is not None and self.reorth_period < 1:
            raise ValueError(f"reorth_period must be a positive int or None, got {self.reorth_period}")


@dataclass(frozen=True)
class OracleInfo:
    """Ground-truth signal energy outside the current span: ``||v_perp||^2``.

    Only available when the clean signal is known (simulation); drives the
    oracle step-size schedule ``alpha = 1 - ||v_perp||^2 / ||r||^2``.
    """

    v_perp_norm_sq: float

    def __post_init__(self) -> None:
        if self.v_perp_norm_sq < 0:
            raise ValueError(f"v_perp_norm_sq must be >= 0, got {self.v_perp_norm_sq}")

    @classmethod
    def from_signal(cls, U: np.ndarray, v: np.ndarray) -> OracleInfo:
        """Oracle energy of the clean signal ``v`` outside ``span(U)``: ``||v - U U^T v||^2``."""
        v_perp = v - U @ (U.T @ v)
        return cls(v_perp_norm_sq=float(v_perp @ v_perp))


@dataclass(frozen=True)
class StepOutcome:
    """Intermediates and result of one update.

    ``w`` are the least-squares coefficients, ``p``/``r`` the projection
    and residual of the observation, ``alpha``/``theta`` the damping and
    rotation angle actually used.  ``updated`` is the new basis; when
    ``skipped`` it is the input basis unchanged.
    """

    w: np.ndarray
    p: np.ndarray
    r: np.ndarray
    alpha: float
    theta: float
    updated: np.ndarray
    skipped: bool


def project(U: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares coefficients, projection, and residual of ``x`` against ``U``.

    Because ``U`` has orthonormal columns the unique minimizer of
    ``||U w - x||`` is ``w = U^T x``, with projection ``p = U w`` and residual
    ``r = x - p``.  Raises ``ValueError`` on dimension mismatch or non-finite
    input.
    """
    U = np.asarray(U, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or U.ndim != 2 or x.shape[0] != U.shape[0]:
        raise ValueError(f"incompatible shapes: basis {U.shape}, vector {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("observation contains non-finite entries")
    w = U.T @ x
    p = U @ w
    r = x - p
    return w, p, r


def compute_alpha(
    cfg: StepConfig,
    x_norm_sq: float,
    r_norm_sq: float,
    n: int,
    d: int,
    oracle: OracleInfo | None = None,
) -> float:
    """Damping factor of the step, clamped to [0, 1].

    Greedy mode returns 0.  Practical mode returns
    ``c * sigma^2/(1+sigma^2) * (1 - d/n) * ||x||^2/||r||^2``; oracle mode
    returns ``1 - ||v_perp||^2/||r||^2`` and requires ``oracle``.  The clamp
    enforces the analyzed range: values above 1 would reverse the step.
    """
    if cfg.mode is StepMode.GREEDY_NOISELESS:
        return 0.0
    if cfg.mode is StepMode.PRACTICAL_NOISY:
        raw = cfg.c * cfg.sigma_sq / (1.0 + cfg.sigma_sq) * (1.0 - d / n) * x_norm_sq / r_norm_sq
    elif cfg.mode is StepMode.ORACLE_NOISY:
        if oracle is None:
            raise ValueError("oracle mode requires OracleInfo")
        raw = 1.0 - oracle.v_perp_norm_sq / r_norm_sq
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown step mode {cfg.mode!r}")
    return float(min(max(raw, 0.0), 1.0))


def compute_theta(alpha: float, r_norm: float, p_norm: float) -> float:
    """Rotation angle ``arctan((1 - alpha) * r_norm / p_norm)`` in [0, pi/2)."""
    if p_norm <= 0:
        raise ValueError("projection norm is degenerate; the step must be skipped")
    return float(np.arctan((1.0 - alpha) * r_norm / p_norm))


def rotate_update(
    U: np.ndarray,
    w: np.ndarray,
    p: np.ndarray,
    r: np.ndarray,
    theta: float,
) -> np.ndarray:
    """Rank-one basis update rotating ``p/||p||`` toward ``r/||r||`` by ``theta``.

    All of ``w``, ``p``, ``r`` must be nonzero.  In exact arithmetic the
    result has orthonormal columns whenever ``U`` does.
    """
    w_norm = np.linalg.norm(w)
    p_norm = np.linalg.norm(p)
    r_norm = np.linalg.norm(r)
    if min(w_norm, p_norm, r_norm) <= 0:
        raise ValueError("rank-one update is undefined for zero coefficient, projection, or residual")
    p_hat = p / p_norm
    y_hat = np.cos(theta) * p_hat + np.sin(theta) * (r / r_norm)
    return U + np.outer(y_hat - p_hat, w / w_norm)


def grouse_step(
    U: np.ndarray,
    x: np.ndarray,
    cfg: StepConfig,
    oracle: OracleInfo | None = None,
    nonskipped_steps: int | None = None,
) -> StepOutcome:
    """Run one full update of the basis ``U`` with observation ``x``.

    Degenerate observations -- ``x`` (numerically) inside ``span(U)`` or
    orthogonal to it -- leave no well-defined rank-one direction, so the
    step is skipped and ``U`` is returned unchanged with ``skipped=True``.

    ``nonskipped_steps`` is the caller's count of previously completed
    non-skipped steps; when given and ``cfg.reorth_period`` is set, every
    ``reorth_period``-th non-skipped step is re-orthonormalized before it
    is returned.  The function itself keeps no state.
    """
    w, p, r = project(U, x)
    w_norm = np.linalg.norm(w)
    p_norm = np.linalg.norm(p)
    r_norm = np.linalg.norm(r)
    tol = cfg.skip_norm_tol
    if w_norm <= tol or p_norm <= tol or r_norm <= tol:
        return StepOutcome(w=w, p=p, r=r, alpha=0.0, theta=0.0, updated=U, skipped=True)

    alpha = compute_alpha(cfg, float(x @ x), float(r_norm**2), U.shape[0], U.shape[1], oracle)
    theta = compute_theta(alpha, r_norm, p_norm)
    updated = rotate_update(U, w, p, r, theta)
    if not np.all(np.isfinite(updated)):
        raise ValueError("update produced non-finite entries")
    if (
        cfg.reorth_period is not None
        and nonskipped_steps is not None
        and (nonskipped_steps + 1) % cfg.reorth_period == 0
    ):
        updated = reorthonormalize(updated)
    return StepOutcome(w=w, p=p, r=r, alpha=alpha, theta=theta, updated=updated, skipped=False)
