"""Planted-model data generation for streaming subspace estimation.

Observations are ``x = v + xi`` where ``v = ubar @ s`` lies in a hidden
d-dimensional ground-truth subspace, ``s`` has iid standard normal
entries, and the noise ``xi`` has iid ``N(0, sigma^2 / n)`` entries.
With the default column normalization (``||v|| = 1``) the expected
noise-to-signal energy ratio is exactly ``sigma^2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .subspaces import (_at_least, _dims, _own_fields, _typed, _within, check_orthonormal, random_orthonormal,
                        reorthonormalize)

__all__ = [
    "PlantedModel",
    "Sample",
    "draw_batch",
    "draw_sample",
    "make_planted",
]

_MAX_SPARSE_ATTEMPTS = 50


@dataclass(frozen=True)
class PlantedModel:
    """Ground-truth subspace plus signal and noise settings for a stream.

    ``sparsity`` records the entry density used to generate ``ubar``
    before orthonormalization (``None`` for a dense draw).
    """

    ubar: np.ndarray
    sigma_sq: float
    normalize_signal: bool = True
    sparsity: float | None = None

    def __post_init__(self) -> None:
        check_orthonormal(self.ubar)
        _own_fields(self)
        _at_least("sigma_sq", self.sigma_sq, float)
        if self.sparsity is not None:
            _within("sparsity", self.sparsity, 0, 1, "(]")

    @property
    def n(self) -> int:
        return self.ubar.shape[0]

    @property
    def d(self) -> int:
        return self.ubar.shape[1]


@dataclass(frozen=True)
class Sample:
    """One observation ``x = v + xi`` with its clean decomposition, or a stack of them in rows.

    ``v``, ``s`` and ``xi`` are exposed for metrics and oracle step sizes
    only; estimators must consume nothing but ``x``.
    """

    x: np.ndarray
    v: np.ndarray
    s: np.ndarray
    xi: np.ndarray


def _sparse_density(n: int, d: int) -> float:
    """Entry density of a sparse ground truth: ``max(log(n)/n, 2d/n)``, at most 1."""
    return min(max(np.log(n) / n, 2 * d / n), 1.0)


def _sparse_matrix(n: int, d: int, density: float, rng: np.random.Generator) -> np.ndarray:
    """(n, d) matrix of standard normal entries, each kept with probability ``density``.

    Columns that come out identically zero are re-drawn, so none is empty.
    """
    mask = rng.random((n, d)) < density
    m = rng.standard_normal((n, d)) * mask
    empty = ~mask.any(axis=0)
    while empty.any():
        k = int(empty.sum())
        mask_k = rng.random((n, k)) < density
        m[:, empty] = rng.standard_normal((n, k)) * mask_k
        empty[np.flatnonzero(empty)] = ~mask_k.any(axis=0)
    return m


def _sparse_orthonormal(n: int, d: int, density: float, rng: np.random.Generator) -> np.ndarray:
    """The first sparse draw that ``reorthonormalize`` accepts, orthonormalized; a rejected draw is redrawn."""
    for _ in range(_MAX_SPARSE_ATTEMPTS):
        try:
            return reorthonormalize(_sparse_matrix(n, d, density, rng))
        except np.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError(
        f"could not draw a well-conditioned sparse matrix at n={n}, d={d}, density={density}"
    )


def make_planted(
    n: int,
    d: int,
    sigma_sq: float,
    sparse: bool,
    rng: np.random.Generator,
    normalize_signal: bool = True,
) -> PlantedModel:
    """Draw a ground-truth basis and wrap it with the stream settings.

    Dense mode is ``random_orthonormal``.  Sparse mode fills entries
    independently with probability ``max(log(n)/n, 2d/n)`` (standard
    normal values), re-draws any empty column, and orthonormalizes by
    ``reorthonormalize`` (CholeskyQR2, no Householder QR), redrawing the
    whole matrix when it is rank deficient or too ill-conditioned for
    CholeskyQR2; the floor ``2d/n`` keeps the pre-orthonormalization matrix
    full rank at small ``n``.  Either way the ground truth ``ubar`` is
    column-major, as every basis the package makes.
    """
    n, d = _dims(n, d)
    sigma_sq = _at_least("sigma_sq", sigma_sq, float)
    if _typed("sparse", sparse, bool):
        density = _sparse_density(n, d)
        ubar = _sparse_orthonormal(n, d, density, rng)
        return PlantedModel(ubar=ubar, sigma_sq=sigma_sq, normalize_signal=normalize_signal, sparsity=density)
    ubar = random_orthonormal(n, d, rng)
    return PlantedModel(ubar=ubar, sigma_sq=sigma_sq, normalize_signal=normalize_signal)


def _from_normals(ubar: np.ndarray, sigma_sq: float, normalize_signal: bool, normals: np.ndarray) -> Sample:
    """The draws of the stream spanned by ``ubar`` whose standard normals are the last axis of ``normals``.

    Each draw's normals are its ``d`` coefficients, then its ``n`` noise
    entries if ``sigma_sq > 0``.  ``ubar`` is one ground truth ``(n, d)`` or
    one per row ``(b, n, d)``.
    """
    n, d = ubar.shape[-2:]
    s = normals[..., :d]
    v = np.matmul(ubar, s[..., None])[..., 0]
    if normalize_signal:
        scale = np.sqrt(np.vecdot(v, v))[..., None]
        v = v / scale
        s = s / scale
    xi = normals[..., d:] * np.sqrt(sigma_sq / n) if sigma_sq > 0 else np.zeros(v.shape)
    return Sample(x=v + xi, v=v, s=s, xi=xi)


def _normal_count(n: int, d: int, sigma_sq: float) -> int:
    """Standard normals per draw: the ``d`` coefficients, then the ``n`` noise entries if noisy."""
    return d + n if sigma_sq > 0 else d


def _draw(model: PlantedModel, rows: tuple[int, ...], rng: np.random.Generator) -> Sample:
    """One draw (``rows=()``) or a stack of draws (``rows=(b,)``).

    One ``standard_normal`` call holds each draw's normals: a stack consumes
    the generator, and gets the bits, of successive single draws.
    """
    normals = rng.standard_normal((*rows, _normal_count(model.n, model.d, model.sigma_sq)))
    return _from_normals(model.ubar, model.sigma_sq, model.normalize_signal, normals)


def _draw_each(ubars: np.ndarray, sigma_sq: float, normalize_signal: bool,
               rngs: Sequence[np.random.Generator]) -> Sample:
    """One draw from each generator, stacked in rows: row ``i`` from the ground truth ``ubars[i]``.

    Each generator makes the ``standard_normal`` call of one ``draw_sample``,
    and row ``i`` equals ``draw_sample`` of a model with ground truth
    ``ubars[i]`` (and the given noise level and scaling) on ``rngs[i]``, bit
    for bit.
    """
    count = _normal_count(*ubars.shape[-2:], sigma_sq)
    normals = np.array([rng.standard_normal(count) for rng in rngs])
    return _from_normals(ubars, sigma_sq, normalize_signal, normals)


def draw_sample(model: PlantedModel, rng: np.random.Generator) -> Sample:
    """Draw one observation from the stream.

    Coefficients ``s`` are iid standard normal; when the model normalizes
    signals, ``v`` and ``s`` are rescaled together so ``||v|| = 1``.  Noise
    entries are iid ``N(0, sigma^2 / n)``.
    """
    return _draw(model, (), rng)


def draw_batch(model: PlantedModel, size: int, rng: np.random.Generator) -> Sample:
    """Draw ``size`` observations at once: rows of ``x``, ``v``, ``xi`` are samples, rows of ``s`` coefficients.

    Row ``i`` equals the ``i``-th of ``size`` successive ``draw_sample``
    calls, bit for bit, and the generator ends in the same state.
    """
    size = _at_least("size", size, least=1)
    return _draw(model, (size,), rng)

