"""Orthonormal bases and subspace similarity metrics.

A point on the Grassmannian G(n, d) is represented throughout by an
``(n, d)`` ndarray with orthonormal columns.  Two metrics quantify how
close the span of one basis is to the span of another:

* ``determinant_similarity`` -- the product of squared principal-angle
  cosines, in ``[0, 1]``; equals 1 iff the subspaces coincide and 0 iff
  at least one direction is orthogonal.
* ``frobenius_discrepancy`` -- the sum of squared principal-angle sines,
  in ``[0, d]``; equals 0 iff the subspaces coincide.

All functions are pure and never mutate their arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MetricSample",
    "basis_with_angles",
    "basis_with_similarity",
    "check_orthonormal",
    "determinant_similarity",
    "expected_initial_similarity",
    "expected_initial_similarity_exact",
    "frobenius_discrepancy",
    "metric_sample",
    "principal_angles",
    "random_orthonormal",
    "reorthonormalize",
]

ORTHONORMALITY_TOL = 1e-10


def _cross_gram(U: np.ndarray, Ubar: np.ndarray) -> np.ndarray:
    """The (d, d) cross-Gram matrix ``Ubar^T U`` of two bases of identical shape."""
    U = np.asarray(U, dtype=float)
    Ubar = np.asarray(Ubar, dtype=float)
    if U.ndim != 2 or Ubar.ndim != 2:
        raise ValueError("bases must be 2-D arrays")
    if U.shape != Ubar.shape:
        raise ValueError(f"basis shapes must match, got {U.shape} and {Ubar.shape}")
    return Ubar.T @ U


def _squares(a):
    """``t ** 2`` of each element with libm ``pow``, as a float64 scalar squares.

    An array's ``** 2`` is ``t * t``, which differs in the last bit for a few values in a thousand.
    """
    return np.float_power(a, 2)


def _cosines(gram: np.ndarray) -> np.ndarray:
    return np.clip(np.linalg.svd(gram, compute_uv=False), 0.0, 1.0)


def _similarity(cosines: np.ndarray) -> np.ndarray:
    """Product of squared cosines over the last axis: one basis's cosines or a stack."""
    return np.prod(cosines * cosines, axis=-1)


def _discrepancy(gram: np.ndarray) -> np.ndarray:
    """``d - ||gram||_F^2`` clamped to [0, d], over the leading axes: one Gram or a stack.

    The norm is the root of a BLAS dot, squared as a float64 scalar squares.  ``d``
    minus a square never exceeds ``d``, so only the clamp at 0 needs code.
    """
    d = gram.shape[-1]
    flat = gram.reshape(*gram.shape[:-2], d * d)
    return np.maximum(d - _squares(np.sqrt(np.vecdot(flat, flat))), 0.0)


def _check_finite(**values: float) -> None:
    """Raise ``ValueError`` naming the first of ``values`` that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} is non-finite: {value}")


def check_orthonormal(U: np.ndarray, tol: float = ORTHONORMALITY_TOL) -> np.ndarray:
    """Validate that ``U`` is an (n, d) matrix with orthonormal columns, 0 < d < n.

    Returns the array as float64.  Raises ``ValueError`` if the shape is
    invalid or ``max|U^T U - I| > tol``.
    """
    U = np.asarray(U, dtype=float)
    if U.ndim != 2:
        raise ValueError("basis must be a 2-D array")
    n, d = U.shape
    if not 0 < d < n:
        raise ValueError(f"need 0 < d < n, got shape {U.shape}")
    if not np.isfinite(U).all():
        raise ValueError("basis contains non-finite entries")
    gram_err = np.max(np.abs(U.T @ U - np.eye(d)))
    if gram_err > tol:
        raise ValueError(f"columns are not orthonormal: max|U^T U - I| = {gram_err:.3e}")
    return U


def principal_angles(U: np.ndarray, Ubar: np.ndarray) -> np.ndarray:
    """Cosines of the principal angles between the spans of two bases.

    The cosines are the singular values of ``Ubar^T U``, clamped to
    ``[0, 1]`` and sorted non-increasing, so the corresponding angles
    ``arccos`` are non-decreasing.  Both bases must have orthonormal
    columns and identical shape ``(n, d)``; the result has length ``d``.
    """
    return _cosines(_cross_gram(U, Ubar))


def determinant_similarity(U: np.ndarray, Ubar: np.ndarray) -> float:
    """Product of squared principal-angle cosines, in [0, 1].

    Equals ``det(Ubar^T U U^T Ubar)`` but is evaluated as the product of
    squared singular values of ``Ubar^T U``, which does not lose accuracy
    the way an explicit LU determinant of the product matrix can.
    """
    return float(_similarity(principal_angles(U, Ubar)))


def frobenius_discrepancy(U: np.ndarray, Ubar: np.ndarray) -> float:
    """Sum of squared principal-angle sines: ``d - ||Ubar^T U||_F^2``, in [0, d]."""
    return float(_discrepancy(_cross_gram(U, Ubar)))


def random_orthonormal(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Orthonormalize an (n, d) matrix of iid standard normal entries.

    The span of the result is uniformly distributed on the Grassmannian
    G(n, d).  Requires ``0 < d < n``; the same generator state always
    yields the same matrix.
    """
    if not 0 < d < n:
        raise ValueError(f"need 0 < d < n, got n={n}, d={d}")
    gauss = rng.standard_normal((n, d))
    q, _ = np.linalg.qr(gauss)
    return q


def _rank_deficient(diag: np.ndarray, n: int) -> bool:
    """Whether an (n, d) matrix whose triangular factor has diagonal ``diag`` is numerically rank deficient.

    The test is ``min|diag| <= n * eps * max|diag|``, on ``R`` of a QR or ``L`` of a Cholesky-QR.
    """
    diag = np.abs(diag)
    return bool(np.min(diag) <= n * np.finfo(float).eps * np.max(diag))


def reorthonormalize(U: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the span of ``U`` by column-scaled CholeskyQR2.

    Used to remove accumulated floating-point drift from a basis that is
    only approximately orthonormal.  Each column is scaled by the power of
    two that brings its largest entry into [1/2, 1), which moves neither the
    span nor a mantissa bit, so the Gram matrix can neither overflow nor
    underflow.  Then, twice, ``L = cholesky(Q^T Q)`` and ``Q <- Q inv(L)^T``:
    the first pass leaves the rounding of the Gram matrix times the squared
    condition number, the second removes it.  The work is two (n, d) Grams,
    (d, d) factorizations and two (n, d) by (d, d) products; there is no
    Householder QR.

    Domain: the second pass runs only when the first result ``Q1`` has
    ``||Q1^T Q1 - I||_F <= 1/2``, which holds up to a column-scaled condition
    number of about 1e7; a drifted basis has condition number 1 up to
    rounding.  There the result has ``max|Q^T Q - I| <= 1e-14`` (measured
    for n up to 2e5) and the span of ``U`` up to rounding.  Raises
    ``numpy.linalg.LinAlgError`` outside that domain or when ``U`` is
    numerically rank deficient (``min|diag L| <= n eps max|diag L|`` on the
    first factor), and ``ValueError`` on a non-finite entry.
    """
    U = np.asarray(U, dtype=float)
    if U.ndim != 2 or not 0 < U.shape[1] < U.shape[0]:
        raise ValueError(f"need an (n, d) matrix with 0 < d < n, got shape {U.shape}")
    if not np.isfinite(U).all():
        raise ValueError("basis contains non-finite entries")
    n, d = U.shape
    _, exponents = np.frexp(np.abs(U).max(axis=0))
    q = np.ldexp(U, -exponents)
    try:
        factor = np.linalg.cholesky(q.T @ q)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError("input matrix is too ill-conditioned for CholeskyQR2") from None
    if _rank_deficient(np.diag(factor), n):
        raise np.linalg.LinAlgError("input matrix is numerically rank deficient")
    q = q @ np.linalg.inv(factor).T
    gram = q.T @ q
    if np.linalg.norm(gram - np.eye(d)) > 0.5:
        raise np.linalg.LinAlgError("input matrix is too ill-conditioned for CholeskyQR2")
    return q @ np.linalg.inv(np.linalg.cholesky(gram)).T


def basis_with_angles(ubar: np.ndarray, cosines: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Construct a basis whose principal angles to ``ubar`` have the given cosines.

    Column ``i`` of the result is ``cos(phi_i) * ubar[:, i] + sin(phi_i) * z_i``
    with the ``z_i`` an orthonormal set drawn at random from the orthogonal
    complement of ``span(ubar)``.  Useful for placing a test basis at a
    prescribed similarity to a reference subspace.
    """
    ubar = check_orthonormal(ubar)
    n, d = ubar.shape
    cosines = np.asarray(cosines, dtype=float)
    if cosines.shape != (d,):
        raise ValueError(f"need {d} cosines, got shape {cosines.shape}")
    if np.any(cosines < 0) or np.any(cosines > 1):
        raise ValueError("cosines must lie in [0, 1]")
    gauss = rng.standard_normal((n, d))
    gauss -= ubar @ (ubar.T @ gauss)
    complement, r = np.linalg.qr(gauss)
    if _rank_deficient(np.diag(r), n):
        raise np.linalg.LinAlgError("failed to draw a full-rank complement")
    sines = np.sqrt(1.0 - cosines * cosines)
    return ubar * cosines + complement * sines


def basis_with_similarity(ubar: np.ndarray, zeta: float, rng: np.random.Generator) -> np.ndarray:
    """Basis at determinant similarity ``zeta`` to ``ubar``, equal angles."""
    if not 0 < zeta <= 1:
        raise ValueError(f"zeta must lie in (0, 1], got {zeta}")
    d = ubar.shape[1]
    cosines = np.full(d, zeta ** (1.0 / (2 * d)))
    return basis_with_angles(ubar, cosines, rng)


def expected_initial_similarity(n: int, d: int, c0: float = 1.0) -> float:
    """Asymptotic expected determinant similarity of a random basis: ``c0 * (d/(n e))^d``.

    This is the exponential-order approximation; see
    ``expected_initial_similarity_exact`` for the closed form.  The
    prefactor ``c0`` absorbs the sub-exponential correction and is close
    to 1 only for large ``d``.
    """
    return c0 * (d / (n * math.e)) ** d


def expected_initial_similarity_exact(n: int, d: int) -> float:
    """Exact expected determinant similarity of a uniformly random d-subspace.

    For a basis drawn by orthonormalizing an iid Gaussian (n, d) matrix,
    the expected determinant similarity against any fixed d-dimensional
    subspace is exactly ``1 / binomial(n, d)``: writing the similarity as
    ``det(W1) / det(W1 + W2)`` for independent Wishart factors with d and
    n - d degrees of freedom, the matrix-variate beta determinant moment
    telescopes to ``prod_i (d - i + 1) / (n - i + 1)``.
    """
    if not 0 < d < n:
        raise ValueError(f"need 0 < d < n, got n={n}, d={d}")
    return math.exp(math.lgamma(d + 1) + math.lgamma(n - d + 1) - math.lgamma(n + 1))


@dataclass(frozen=True)
class MetricSample:
    """Convergence metrics of one iterate against the reference subspace.

    ``zeta`` and ``epsilon`` are the determinant similarity and Frobenius
    discrepancy at iteration ``t``; ``cos_angles`` holds the principal-angle
    cosines.  ``projection_norm_sq`` / ``residual_norm_sq`` are the squared
    norms of the projection and residual of the observation consumed by the
    step that produced this iterate (both 0.0 for the initial basis).
    """

    t: int
    zeta: float
    epsilon: float
    cos_angles: np.ndarray
    residual_norm_sq: float = 0.0
    projection_norm_sq: float = 0.0


def metric_sample(
    t: int,
    U: np.ndarray,
    Ubar: np.ndarray,
    residual_norm_sq: float = 0.0,
    projection_norm_sq: float = 0.0,
) -> MetricSample:
    """Evaluate both convergence metrics of ``U`` against ``Ubar`` at iteration ``t``.

    The cross-Gram matrix is formed once and shared by the two metrics.
    """
    gram = _cross_gram(U, Ubar)
    cosines = _cosines(gram)
    return MetricSample(
        t=t,
        zeta=float(_similarity(cosines)),
        epsilon=float(_discrepancy(gram)),
        cos_angles=cosines,
        residual_norm_sq=float(residual_norm_sq),
        projection_norm_sq=float(projection_norm_sq),
    )
