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

from .subspaces import _check_finite, _squares, reorthonormalize

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
        _check_finite(sigma_sq=self.sigma_sq, c=self.c, skip_norm_tol=self.skip_norm_tol)
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
        _check_finite(v_perp_norm_sq=self.v_perp_norm_sq)
        if self.v_perp_norm_sq < 0:
            raise ValueError(f"v_perp_norm_sq must be >= 0, got {self.v_perp_norm_sq}")

    @classmethod
    def from_signal(cls, U: np.ndarray, v: np.ndarray) -> OracleInfo:
        """Oracle energy of the clean signal ``v`` outside ``span(U)``: ``||v - U U^T v||^2``."""
        return cls(v_perp_norm_sq=float(_energy_outside(U, v)))


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


def _checked(U: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``U`` and ``x`` as float arrays; raises unless they are an (n, d) basis and a finite (n,) vector."""
    U = np.asarray(U, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or U.ndim != 2 or x.shape[0] != U.shape[0]:
        raise ValueError(f"incompatible shapes: basis {U.shape}, vector {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("observation contains non-finite entries")
    return U, x


def _project(U: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``w = U^T x``, ``p = U w`` and ``r = x - p`` over the leading axes of ``x``, by BLAS gemv per row.

    ``U`` is one basis ``(n, d)`` for every row or one basis per row ``(b, n, d)``.
    """
    w = np.matmul(U.swapaxes(-1, -2), x[..., None])[..., 0]
    p = np.matmul(U, w[..., None])[..., 0]
    return w, p, x - p


def _energy_outside(U: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``||v - U U^T v||^2`` over the leading axes of ``v``."""
    v_perp = _project(U, v)[2]
    return np.vecdot(v_perp, v_perp)


def project(U: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares coefficients, projection, and residual of ``x`` against ``U``.

    Because ``U`` has orthonormal columns the unique minimizer of
    ``||U w - x||`` is ``w = U^T x``, with projection ``p = U w`` and residual
    ``r = x - p``.  Raises ``ValueError`` on dimension mismatch or a
    non-finite basis or observation.
    """
    U, x = _checked(U, x)
    if not np.isfinite(U).all():
        raise ValueError("basis contains non-finite entries")
    return _project(U, x)


def _alpha(cfg: StepConfig, x_norm_sq, r_norm_sq, n: int, d: int, v_perp_norm_sq):
    """``compute_alpha`` of a noisy schedule, elementwise over arrays of squared norms and oracle energies."""
    if cfg.mode is StepMode.PRACTICAL_NOISY:
        raw = cfg.c * cfg.sigma_sq / (1.0 + cfg.sigma_sq) * (1.0 - d / n) * x_norm_sq / r_norm_sq
    elif v_perp_norm_sq is None:
        raise ValueError("oracle mode requires OracleInfo")
    else:
        raw = 1.0 - v_perp_norm_sq / r_norm_sq
    return np.minimum(np.maximum(raw, 0.0), 1.0)


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
    return float(_alpha(cfg, x_norm_sq, r_norm_sq, n, d, None if oracle is None else oracle.v_perp_norm_sq))


def _theta(alpha, r_norm, p_norm):
    return np.arctan((1.0 - alpha) * r_norm / p_norm)


def compute_theta(alpha: float, r_norm: float, p_norm: float) -> float:
    """Rotation angle ``arctan((1 - alpha) * r_norm / p_norm)`` in [0, pi/2)."""
    if p_norm <= 0:
        raise ValueError("projection norm is degenerate; the step must be skipped")
    return float(_theta(alpha, r_norm, p_norm))


def _rotate(U: np.ndarray, w_hat: np.ndarray, p_hat: np.ndarray, r_hat: np.ndarray, theta) -> np.ndarray:
    """``U + (cos(theta) p_hat + sin(theta) r_hat - p_hat) w_hat^T`` over the leading axes of ``p_hat``."""
    y_hat = np.cos(theta)[..., None] * p_hat + np.sin(theta)[..., None] * r_hat
    update = np.multiply((y_hat - p_hat)[..., :, None], w_hat[..., None, :])
    return np.add(U, update, out=update)


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
    w_norm, p_norm, r_norm = (np.linalg.norm(a) for a in (w, p, r))
    if min(w_norm, p_norm, r_norm) <= 0:
        raise ValueError("rank-one update is undefined for zero coefficient, projection, or residual")
    return _rotate(U, w / w_norm, p / p_norm, r / r_norm, theta)


def _step(U: np.ndarray, x: np.ndarray, cfg: StepConfig, v_perp_norm_sq=None) -> tuple:
    """The step over the leading axes of ``x``: one observation ``(n,)`` or a stack ``(b, n)``.

    ``U`` is one basis ``(n, d)`` shared by every row, or one basis per row
    ``(b, n, d)`` (the lock-step trials of a sweep).  ``v_perp_norm_sq``
    holds the oracle energy of each row.  Returns ``w``, ``p``, ``r``, the
    squared norms of ``p`` and ``r``, ``alpha``, ``theta``, the updated bases
    and the skipped flags.  A skipped row's basis is its input basis and its
    ``alpha`` and ``theta`` are meaningless (0.0 when every row is skipped,
    and then ``U`` itself is the update).  Each row gets the bits it gets
    alone.  Raises ``ValueError`` on a non-finite update.
    """
    w, p, r = _project(U, x)
    p_sq, r_sq = np.vecdot(p, p), np.vecdot(r, r)
    w_norm, p_norm, r_norm = np.sqrt(np.vecdot(w, w)), np.sqrt(p_sq), np.sqrt(r_sq)
    tol = cfg.skip_norm_tol
    skipped = (w_norm <= tol) | (p_norm <= tol) | (r_norm <= tol)
    if skipped.all():
        return w, p, r, p_sq, r_sq, 0.0, 0.0, U, skipped
    # a skipped row of a stack divides by its norms plus 1, so it raises no division warning
    w_norm, p_norm, r_norm = w_norm + skipped, p_norm + skipped, r_norm + skipped
    alpha = 0.0
    if cfg.mode is not StepMode.GREEDY_NOISELESS:
        alpha = _alpha(cfg, np.vecdot(x, x), _squares(r_norm), *U.shape[-2:], v_perp_norm_sq)
    theta = _theta(alpha, r_norm, p_norm)
    updated = _rotate(U, w / w_norm[..., None], p / p_norm[..., None], r / r_norm[..., None], theta)
    if skipped.any():
        np.copyto(updated, U, where=skipped[..., None, None])
    if not np.isfinite(updated).all():
        raise ValueError("update produced non-finite entries")
    return w, p, r, p_sq, r_sq, alpha, theta, updated, skipped


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
    U, x = _checked(U, x)
    energy = None if oracle is None else oracle.v_perp_norm_sq
    w, p, r, _, _, alpha, theta, updated, skipped = _step(U, x, cfg, energy)
    if (
        not skipped
        and cfg.reorth_period is not None
        and nonskipped_steps is not None
        and (nonskipped_steps + 1) % cfg.reorth_period == 0
    ):
        updated = reorthonormalize(updated)
    return StepOutcome(w=w, p=p, r=r, alpha=float(alpha), theta=float(theta), updated=updated,
                       skipped=bool(skipped))
