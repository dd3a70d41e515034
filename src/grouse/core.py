"""One streaming subspace update: projection, adaptive step size, rank-one rotation.

Given the current orthonormal basis ``U`` and an observation ``x``, a step
decomposes ``x`` into its projection ``p`` onto ``span(U)`` and residual
``r = x - p``, picks a rotation angle

    theta = arctan((1 - alpha) * ||r|| / ||p||),

and replaces the in-span direction ``p/||p||`` by
``y/||y|| = cos(theta) p/||p|| + sin(theta) r/||r||`` through the rank-one
update

    U' = U + (y/||y|| - p/||p||) w^T / ||w||,        w = U^T x,

whose direction is formed as ``-2 sin^2(theta/2) p/||p|| + sin(theta) r/||r||``,
free of the cancellation of ``cos(theta) - 1`` at small angles.  Bases are
column-major (``subspaces._column_major``): the projections and the update
run over contiguous n-vectors.

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

from .subspaces import (_at_least, _basis, _column_major, _dims, _own_fields, _real, _shaped, _squares, _within,
                         check_orthonormal, reorthonormalize)

__all__ = [
    "OracleInfo",
    "StepConfig",
    "StepMode",
    "StepOutcome",
    "Tracker",
    "compute_alpha",
    "compute_theta",
    "grouse_step",
    "project",
    "rotate_update",
]

_SKIP_NORM_TOL = 1e-12  # a step whose coefficient, projection or residual norm is at or below this is skipped
# the step's ufunc buffer, numpy's smallest: a broadcast over an inner axis under about 3,000 entries copies through the
# default 8,192-entry buffers at 1.0-1.4 ns an entry, against 0.3 ns unbuffered (numpy 2.4), which halves _rotate for
# 13 draws at (n, d) = (500, 10); float64 + - * / are correctly rounded however a loop is chunked, so no bit moves
_UFUNC_BUFSIZE = 16


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
    below ``_SKIP_NORM_TOL`` are skipped.  A ``Tracker`` re-orthonormalizes
    every ``reorth_period``-th non-skipped step of each stream it holds
    (``None`` disables periodic correction); ``grouse_step`` never does.
    """

    mode: StepMode = StepMode.GREEDY_NOISELESS
    sigma_sq: float = 0.0
    c: float = 1.0
    reorth_period: int | None = 100

    def __post_init__(self) -> None:
        _own_fields(self)
        _at_least("sigma_sq", self.sigma_sq, float)
        _within("c", self.c, 0, np.inf)
        if self.reorth_period is not None:
            _at_least("reorth_period", self.reorth_period, least=1)


@dataclass(frozen=True)
class OracleInfo:
    """Ground-truth signal energy outside the current span: ``||v_perp||^2``.

    Only available when the clean signal is known (simulation); drives the
    oracle step-size schedule ``alpha = 1 - ||v_perp||^2 / ||r||^2``.
    """

    v_perp_norm_sq: float

    def __post_init__(self) -> None:
        _own_fields(self)
        _at_least("v_perp_norm_sq", self.v_perp_norm_sq, float)

    @classmethod
    def from_signal(cls, U: np.ndarray, v: np.ndarray) -> OracleInfo:
        """Oracle energy ``||v - U U^T v||^2`` of the clean (n,) signal ``v`` outside the basis ``U`` (``_basis``)."""
        U = _basis("U", U)
        return cls(v_perp_norm_sq=float(_energy_outside(U, _shaped("v", v, U.shape[:1]))))


def _step_inputs(cfg: StepConfig, *oracle: OracleInfo | None) -> float | None:
    """The oracle energy of a step under ``cfg``, ``None`` off the oracle schedule: the one owner of its input rules.

    ``cfg`` is a ``StepConfig``; ``oracle``, unless ``cfg`` comes alone (a ``Tracker``'s), is an ``OracleInfo`` under
    the oracle schedule, the one that reads the true energy (known only in simulation), and ``None`` under the others.
    """
    if not isinstance(cfg, StepConfig):
        raise ValueError(f"cfg must be a StepConfig, got {cfg!r}")
    (info,) = oracle or (None,)
    if info is not None and not isinstance(info, OracleInfo):
        raise ValueError(f"oracle must be an OracleInfo or None, got {info!r}")
    if oracle and (info is None) == (cfg.mode is StepMode.ORACLE_NOISY):
        raise ValueError(f"oracle must be {'None' if info else 'an OracleInfo'} under the {cfg.mode.value} schedule")
    return None if info is None else info.v_perp_norm_sq


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
    """``U`` and ``x`` as float arrays; raises unless they are (n, d) with 0 < d < n (``_dims``) and a finite (n,).

    The basis's entries are not tested, which would be O(nd) a step: the step flags a non-finite basis as failed.
    """
    U = _shaped("U", U, ("n", "d"))
    _dims(*U.shape)
    x = _shaped("x", x, U.shape[:1])
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
    ``r = x - p``.  Raises ``ValueError`` on a basis that
    ``subspaces._basis`` rejects or an ``x`` that is not a finite (n,) vector.
    """
    U, x = _checked(_basis("basis", U), x)
    return _project(_column_major(U), x)


def _alpha(cfg: StepConfig, x_norm_sq, r_norm_sq, n: int, d: int, v_perp_norm_sq):
    """``compute_alpha`` of a noisy schedule, elementwise over arrays of squared norms and oracle energies."""
    raw = (cfg.c * cfg.sigma_sq / (1.0 + cfg.sigma_sq) * (1.0 - d / n) * x_norm_sq / r_norm_sq
           if cfg.mode is StepMode.PRACTICAL_NOISY else 1.0 - v_perp_norm_sq / r_norm_sq)
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
    returns ``1 - ||v_perp||^2/||r||^2``.  The clamp enforces the analyzed
    range: values above 1 would reverse the step.  ``oracle`` is given
    under the oracle schedule and under no other (``_step_inputs``).  In
    greedy mode too, a ``ValueError`` names a ``cfg`` that is not a
    ``StepConfig``, a misplaced or missing ``oracle``, a complex or
    non-finite argument, a negative norm and dimensions outside
    ``0 < d < n``; a noisy schedule also needs ``r_norm_sq > 0``.
    """
    energy = _step_inputs(cfg, oracle)
    x_norm_sq, r_norm_sq = _at_least("x_norm_sq", x_norm_sq, float), _at_least("r_norm_sq", r_norm_sq, float)
    n, d = _dims(n, d)
    if cfg.mode is StepMode.GREEDY_NOISELESS:
        return 0.0
    return float(_alpha(cfg, x_norm_sq, _within("r_norm_sq", r_norm_sq, 0, np.inf), n, d, energy))


def _theta(alpha, r_norm, p_norm):
    return np.arctan((1.0 - alpha) * r_norm / p_norm)


def compute_theta(alpha: float, r_norm: float, p_norm: float) -> float:
    """Rotation angle ``arctan((1 - alpha) * r_norm / p_norm)`` in [0, pi/2).

    A ``ValueError`` names a complex or non-finite argument, an ``alpha``
    outside [0, 1], a negative ``r_norm`` and a ``p_norm`` that is not
    positive (the step must be skipped).
    """
    alpha, r_norm = _within("alpha", alpha, 0, 1, "[]"), _at_least("r_norm", r_norm, float)
    return float(_theta(alpha, r_norm, _within("p_norm", p_norm, 0, np.inf)))


def _rotate(U: np.ndarray, w_hat: np.ndarray, p_hat: np.ndarray, r_hat: np.ndarray, theta) -> np.ndarray:
    """``U + (-2 sin^2(theta/2) p_hat + sin(theta) r_hat) w_hat^T`` over the leading axes of ``p_hat``.

    ``-2 sin^2(theta/2)`` is ``cos(theta) - 1`` without its cancellation at
    small ``theta``.  The update is built as its transpose, ``w_hat`` times
    the direction, so the result is column-major (a stack of them for a
    stack of rows) whatever the layout of ``U``.
    """
    half = np.sin(theta / 2)
    direction = (-2.0 * half * half)[..., None] * p_hat + np.sin(theta)[..., None] * r_hat
    update = np.multiply(w_hat[..., :, None], direction[..., None, :])
    return np.add(U.swapaxes(-1, -2), update, out=update).swapaxes(-1, -2)


def rotate_update(
    U: np.ndarray,
    w: np.ndarray,
    p: np.ndarray,
    r: np.ndarray,
    theta: float,
) -> np.ndarray:
    """Rank-one basis update rotating ``p/||p||`` toward ``r/||r||`` by ``theta``.

    ``U`` is (n, d) with 0 < d < n (``_dims``), ``w`` is (d,) and ``p`` and
    ``r`` are (n,), all nonzero; a stack of rows is refused.  In exact
    arithmetic the result has orthonormal columns whenever ``U`` does; it is
    column-major.  A complex or misshaped argument raises ``ValueError``.
    """
    U = _shaped("U", U, ("n", "d"))
    n, d = _dims(*U.shape)
    w, p, r = _shaped("w", w, (d,)), _shaped("p", p, (n,)), _shaped("r", r, (n,))
    w_norm, p_norm, r_norm = (np.linalg.norm(a) for a in (w, p, r))
    if min(w_norm, p_norm, r_norm) <= 0:
        raise ValueError("rank-one update is undefined for zero coefficient, projection, or residual")
    return _rotate(U, w / w_norm, p / p_norm, r / r_norm, _real("theta", theta))


def _finite(failed) -> None:
    """Raise the one error of a non-finite update if ``failed``: ``_step``'s flag of a row, or of any row of a stack."""
    if failed:
        raise ValueError("update produced non-finite entries")


def _step(U: np.ndarray, x: np.ndarray, cfg: StepConfig, v_perp_norm_sq=None) -> tuple:
    """The step over the leading axes of ``x``: one observation ``(n,)`` or a stack ``(b, n)``.

    ``U`` is one basis ``(n, d)`` shared by every row, or one basis per row
    ``(b, n, d)`` (the lock-step trials of a sweep), column-major
    (``subspaces._column_major``) as the updated bases are.  ``v_perp_norm_sq``
    holds the oracle energy of each row.  Returns ``w``, ``p``, ``r``, the
    squared norms of ``p`` and ``r``, ``alpha``, ``theta``, the updated bases
    and the skipped and failed flags.  A skipped row's basis is its input
    basis and its ``alpha`` and ``theta`` are 0.0 (``U`` itself is the
    update when every row is skipped); a failed row's holds a non-finite
    entry.  Each row gets the bits it gets alone.  The step keeps no state
    and never raises for a row: a ``Tracker`` re-orthonormalizes.
    """
    w, p, r = _project(U, x)
    p_sq, r_sq = np.vecdot(p, p), np.vecdot(r, r)
    w_norm, p_norm, r_norm = np.sqrt(np.vecdot(w, w)), np.sqrt(p_sq), np.sqrt(r_sq)
    skipped = (w_norm <= _SKIP_NORM_TOL) | (p_norm <= _SKIP_NORM_TOL) | (r_norm <= _SKIP_NORM_TOL)
    n_skipped = np.count_nonzero(skipped)  # a numpy scalar's any() and all() cost twice a count
    if n_skipped == skipped.size:
        return w, p, r, p_sq, r_sq, 0.0, 0.0, U, skipped, np.zeros_like(skipped)
    # a skipped row's zero norms and a non-finite basis's inf / inf make NaNs, not warnings; skipped rows get U's.
    # errstate also scopes the buffer size (numpy >= 2.0): it is restored on exit, an error's too
    with np.errstate(divide="ignore", invalid="ignore"):
        np.setbufsize(_UFUNC_BUFSIZE)
        alpha = 0.0
        if cfg.mode is not StepMode.GREEDY_NOISELESS:
            x_sq = np.vecdot(x, x) if cfg.mode is StepMode.PRACTICAL_NOISY else None  # only the practical one reads it
            alpha = _alpha(cfg, x_sq, _squares(r_norm), *U.shape[-2:], v_perp_norm_sq)
        theta = _theta(alpha, r_norm, p_norm)
        factors = w / w_norm[..., None], p / p_norm[..., None], r / r_norm[..., None]
        updated = _rotate(U, *factors, theta)
        # U' - U is w_hat times a direction made of theta, p_hat and r_hat, so a row of U' is finite iff its four are
        # (a non-finite x or U makes w_hat NaN).  Their entries are at most 1 and theta < 2, so a row's one sum of them
        # is finite iff they are: O(n + d) per row, where a test of U' is O(nd)
        failed = ~skipped & ~np.isfinite(theta + sum(np.add.reduce(a, axis=-1) for a in factors))
    if n_skipped:
        np.copyto(updated, U, where=skipped[..., None, None])
        alpha, theta = np.where(skipped, 0.0, alpha), np.where(skipped, 0.0, theta)
    return w, p, r, p_sq, r_sq, alpha, theta, updated, skipped, failed


def grouse_step(U: np.ndarray, x: np.ndarray, cfg: StepConfig, oracle: OracleInfo | None = None) -> StepOutcome:
    """Run one full update of the basis ``U`` with observation ``x``.

    Degenerate observations -- ``x`` (numerically) inside ``span(U)`` or
    orthogonal to it -- leave no well-defined rank-one direction, so the
    step is skipped and ``U`` is returned unchanged with ``skipped=True``.
    Otherwise the step runs on ``U`` column-major (a copy when ``U`` has
    another layout), so its bits do not depend on the caller's layout, and
    the updated basis is column-major.  Raises ``ValueError`` on a bad
    argument (``U`` must be (n, d) with 0 < d < n and ``x`` a finite (n,)
    vector) or a non-finite update, which is what a non-finite ``U``
    makes: its entries are not tested.  ``oracle`` goes with the oracle
    schedule only: it is required there and raises under the others
    (``_step_inputs``).

    The function keeps no state, so it never re-orthonormalizes, whatever
    ``cfg.reorth_period``: a ``Tracker`` counts a stream's steps and does.
    """
    energy = _step_inputs(cfg, oracle)
    U, x = _checked(U, x)
    w, p, r, _, _, alpha, theta, updated, skipped, failed = _step(_column_major(U), x, cfg, energy)
    _finite(failed)
    return StepOutcome(w=w, p=p, r=r, alpha=float(alpha), theta=float(theta),
                       updated=U if skipped else updated, skipped=bool(skipped))


class Tracker:
    """One stream's estimate, or a stack of lock-step streams: ``basis``, ``steps`` taken, ``skipped_steps`` among them.

    The start basis must be an orthonormal (n, d) basis with 0 < d < n (``check_orthonormal``), or a (b, n, d) stack
    of them with one count of skipped steps per row; it is kept column-major.  One method, ``_update_rows``, steps
    every stream and re-orthonormalizes it every ``cfg.reorth_period``-th non-skipped step: ``update(x)`` runs it on
    one stream, the sweep engine on a stack.
    """

    def __init__(self, basis: np.ndarray, cfg: StepConfig = StepConfig()) -> None:
        _step_inputs(cfg)
        stacked = np.ndim(basis) == 3  # one basis and one count of skipped steps per row
        for u in basis if stacked else [basis]:
            check_orthonormal(u)
        self.basis = _column_major(basis)
        self.cfg = cfg
        self.steps, self.skipped_steps = 0, np.zeros(len(basis), dtype=int) if stacked else 0

    def update(self, x: np.ndarray, oracle: OracleInfo | None = None) -> StepOutcome:
        """Step the basis with observation ``x`` and, under the oracle schedule only, its ``oracle``.

        An invalid ``x`` or ``oracle`` or a failed update raises ``grouse_step``'s error and changes no state.
        """
        energy = _step_inputs(self.cfg, oracle)
        w, p, r, _, _, alpha, theta, updated, skipped, errors = self._update_rows(_checked(self.basis, x)[1], energy)
        if errors:
            raise errors[()]
        return StepOutcome(w, p, r, float(alpha), float(theta), updated, bool(skipped))

    def _update_rows(self, x: np.ndarray, energy=None) -> tuple:
        """The step of each stream with its row of ``x`` (``(n,)`` for one stream) and of the oracle ``energy``.

        Each row gets the bits it gets alone.  Returns ``_step``'s values with ``{index: error}`` for ``failed``, an
        index being ``()`` or ``(row,)``: the error that ``grouse_step`` raises for the row alone, or its
        re-orthonormalization's.  The caller drops failed rows (``_keep``); a step that fails every row changes nothing.
        """
        w, p, r, p_sq, r_sq, alpha, theta, updated, skipped, failed = _step(self.basis, x, self.cfg, energy)
        reorth_period = self.cfg.reorth_period  # a stream is due at its reorth_period-th non-skipped step
        due = reorth_period is not None and (self.steps - self.skipped_steps) % reorth_period == reorth_period - 1
        errors, rows = {}, failed | due  # a count of the rows costs a seventh of np.argwhere, so it comes first
        for i in map(tuple, np.argwhere(rows)) if np.count_nonzero(rows) else ():
            try:
                if failed[i]:  # grouse_step's checks in its order: the oracle energy's, the inputs', the update's
                    _step_inputs(self.cfg, None if energy is None else OracleInfo(np.asarray(energy)[i]))
                    _checked(self.basis[i], x[i])
                    _finite(True)
                if not skipped[i]:
                    updated[i] = reorthonormalize(updated[i])
            except Exception as exc:  # the row's stream ends; the others go on
                errors[i] = exc
        if len(errors) < skipped.size:  # tolist() keeps one stream's count an int
            self.basis, self.steps, self.skipped_steps = updated, self.steps + 1, self.skipped_steps + skipped.tolist()
        return w, p, r, p_sq, r_sq, alpha, theta, updated, skipped, errors

    def _keep(self, keep: np.ndarray) -> None:
        """Drop the streams of a stack where ``keep`` is False."""
        self.basis, self.skipped_steps = self.basis[keep], self.skipped_steps[keep]
