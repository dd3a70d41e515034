"""Orthonormal bases and subspace similarity metrics.

A point on the Grassmannian G(n, d) is represented throughout by an
``(n, d)`` ndarray with orthonormal columns.  Two metrics quantify how
close the span of one basis is to the span of another:

* ``determinant_similarity`` -- ``det(Ubar^T U)^2``, the product of squared
  principal-angle cosines, in ``[0, 1]``; equals 1 iff the subspaces
  coincide and 0 iff at least one direction is orthogonal.  It is one LU
  determinant of the d x d cross-Gram; the SVD runs only where a caller
  reads the cosines themselves (``principal_angles``, ``MetricSample``).
* ``frobenius_discrepancy`` -- the sum of squared principal-angle sines,
  in ``[0, d]``; equals 0 iff the subspaces coincide.

All functions are pure and never mutate their arguments.
"""

from __future__ import annotations

import contextlib
import functools
import math
import numbers
import os
import typing
from dataclasses import dataclass, fields

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
    """The (d, d) cross-Gram matrix ``Ubar^T U`` of two finite bases (``_basis``), ``Ubar`` of the shape of ``U``."""
    U = _basis("U", U)
    return _basis("Ubar", _shaped("Ubar", Ubar, U.shape)).T @ U


def _column_major(a: np.ndarray) -> np.ndarray:
    """``a`` as float64 with each of its (n, d) bases column-major, the one layout of the package's bases.

    A basis is an F-contiguous ``(n, d)`` array and a stack of them the
    ``swapaxes(-1, -2)`` view of a C-contiguous ``(b, d, n)`` array, so
    ``U^T x``, ``Ubar^T U`` and the rank-one update run over contiguous
    n-vectors.  Returns ``a`` itself when it has that layout.
    """
    a = np.asarray(a, dtype=float)
    rows = a.swapaxes(-1, -2)
    return a if rows.flags.c_contiguous else np.ascontiguousarray(rows).swapaxes(-1, -2)


def _real(name: str, a) -> np.ndarray:
    """``a`` as a float64 array, or a ``ValueError`` naming the argument ``name`` when ``a`` is complex.

    A complex array cast to float would lose its imaginary part with only a warning.
    """
    a = np.asarray(a)
    if a.dtype.kind == "c":
        raise ValueError(f"{name} must be real, got {a.dtype}")
    return a.astype(float, copy=False)


def _squares(a):
    """``t ** 2`` of each element with libm ``pow``, as a float64 scalar squares.

    An array's ``** 2`` is ``t * t``, which differs in the last bit for a few values in a thousand.
    """
    return np.float_power(a, 2)


def _cosines(gram: np.ndarray) -> np.ndarray:
    return np.clip(np.linalg.svd(gram, compute_uv=False), 0.0, 1.0)


def _similarity(gram: np.ndarray) -> np.ndarray:
    """``min(det(gram)^2, 1)`` over the leading axes: one Gram ``Ubar^T U`` or a stack; the one owner of zeta.

    ``det(Ubar^T U)^2 = det(Ubar^T U U^T Ubar)`` is the product of squared principal-angle cosines.  The
    determinant is one LU of the d x d Gram itself (an LU of the product matrix would square its condition
    number), squared as a float64 scalar squares; the clamp removes rounding above 1.  On ``basis_with_angles``
    bases with cosines from 1e-9 to 1 - 1e-12 it is within 3.5e-14 relative of the exact determinant of the
    computed Gram, while the product of the squared SVD cosines was off by up to 7e-8 with two cosines below 1e-3
    beside larger ones: the SVD leaves small singular values an absolute error of about machine epsilon.
    """
    return np.minimum(_squares(np.linalg.det(gram)), 1.0)


def _discrepancy(gram: np.ndarray) -> np.ndarray:
    """``d - ||gram||_F^2`` clamped to [0, d], over the leading axes: one Gram or a stack.

    The norm is the root of a BLAS dot, squared as a float64 scalar squares.  ``d``
    minus a square never exceeds ``d``, so only the clamp at 0 needs code.
    """
    d = gram.shape[-1]
    flat = gram.reshape(*gram.shape[:-2], d * d)
    return np.maximum(d - _squares(np.sqrt(np.vecdot(flat, flat))), 0.0)


_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a real number"),  # what a type takes
          bool: ((bool, np.bool_), "a bool"), str: ((str, os.PathLike), "a string or path")}
_field_types = functools.cache(lambda cls: [(f.name, typing.get_type_hints(cls)[f.name]) for f in fields(cls)])


def _typed(name: str, value, kind):
    """``value`` as the declared type ``kind`` of the field ``name``, or a ``ValueError`` naming the field.

    ``int`` takes any integer and ``float`` any finite real, but not a bool or a complex (``_real``'s message);
    ``bool`` takes ``np.bool_`` too, ``str`` an ``os.PathLike``, an enum a member's value and ``X | None`` ``None``;
    numpy scalars come back as Python values.
    """
    if type(value) is kind and (kind is not float or math.isfinite(value)):  # the rules below would return it
        return value
    if value is None and type(None) in typing.get_args(kind):
        return None
    if np.iscomplexobj(value):
        _real(name, value)  # raises: a complex value is never cast
    kind = (typing.get_args(kind) or (kind,))[0]  # X of X | None
    if kind not in _KINDS:  # an enum: a member or its value
        with contextlib.suppress(ValueError):
            return kind(value)
    takes, expected = _KINDS[kind] if kind in _KINDS else (kind, f"one of {[member.value for member in kind]}")
    if not isinstance(value, takes) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"{name} must be {expected}, got {value!r}")
    with contextlib.suppress(OverflowError):  # math.isfinite raises it on an int no float holds
        if kind is not float or math.isfinite(value):
            return os.fspath(value) if kind is str else kind(value)
    raise ValueError(f"{name} is non-finite: {value}")


def _dims(n, d) -> tuple[int, int]:
    """``n`` and ``d`` as ints by ``_typed``, or a ``ValueError`` unless ``0 < d < n``: the one owner of that rule."""
    n, d = _typed("n", n, int), _typed("d", d, int)
    if not 0 < d < n:
        raise ValueError(f"need 0 < d < n, got n={n}, d={d}")
    return n, d


def _shaped(name: str, a, shape: tuple) -> np.ndarray:
    """``a`` by ``_real``, or a ``ValueError`` naming ``name`` unless it has ``shape`` (a named axis: any length)."""
    a = _real(name, a)
    if a.shape != shape and (len(a.shape) != len(shape) or  # an exact match walks no axis
                             any(want != got for want, got in zip(shape, a.shape) if not isinstance(want, str))):
        expected = str(shape).replace("'", "")  # ("n", "d") reads (n, d)
        raise ValueError(f"{name} must have shape {expected}, got {a.shape}")
    return a


def _basis(name: str, U) -> np.ndarray:
    """``U`` by ``_shaped``, or a ``ValueError`` naming ``name`` unless it is (n, d), 0 < d < n (``_dims``), finite."""
    U = _shaped(name, U, ("n", "d"))
    _dims(*U.shape)
    if not np.isfinite(U).all():
        raise ValueError(f"{name} contains non-finite entries")
    return U


def _at_least(name: str, value, kind=int, least=0):
    """``value`` as ``kind`` by ``_typed``, or a ``ValueError`` naming ``name`` unless it is ``>= least``."""
    value = _typed(name, value, kind)
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def _within(name: str, value, low, high, ends: str = "()"):  # ends: the brackets; "(" and ")" exclude a bound
    """``value`` as a float by ``_typed`` (an array by ``_real``), or a ``ValueError`` naming ``name`` if outside."""
    array = np.ndim(value) > 0
    value = _real(name, value) if array else _typed(name, value, float)
    inside = (value > low if ends[0] == "(" else value >= low) & (value < high if ends[1] == ")" else value <= high)
    if not np.all(inside):  # a NaN entry is inside no interval; an array's message shows no value
        raise ValueError(f"{name} must lie in {ends[0]}{low}, {high}{ends[1]}" + ("" if array else f", got {value}"))
    return value


def _own_fields(obj) -> None:
    """Store each field of the frozen dataclass ``obj`` as its declared type (``_field_types``) by ``_typed``."""
    for name, kind in _field_types(type(obj)):
        if kind is not np.ndarray:  # an array field is the class's own check
            object.__setattr__(obj, name, _typed(name, getattr(obj, name), kind))


def check_orthonormal(U: np.ndarray) -> np.ndarray:
    """Validate that ``U`` is an (n, d) matrix with orthonormal columns, 0 < d < n.

    Returns the array as float64.  Raises ``ValueError`` if ``_basis`` rejects it (complex,
    a bad shape, a non-finite entry) or ``max|U^T U - I| > ORTHONORMALITY_TOL``.
    """
    U = _basis("basis", U)
    gram_err = np.max(np.abs(U.T @ U - np.eye(U.shape[1])))
    if gram_err > ORTHONORMALITY_TOL:
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
    """Product of squared principal-angle cosines, in [0, 1]: ``det(Ubar^T U U^T Ubar) = det(Ubar^T U)^2``.

    Evaluated by ``_similarity`` as one LU determinant of the d x d
    cross-Gram ``Ubar^T U``, squared; no SVD runs.  The LU is of ``Ubar^T U``
    itself, not of the product matrix, whose condition number is the square.
    """
    return float(_similarity(_cross_gram(U, Ubar)))


def frobenius_discrepancy(U: np.ndarray, Ubar: np.ndarray) -> float:
    """Sum of squared principal-angle sines: ``d - ||Ubar^T U||_F^2``, in [0, d]."""
    return float(_discrepancy(_cross_gram(U, Ubar)))


def random_orthonormal(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Orthonormalize an (n, d) matrix of iid standard normal entries by ``reorthonormalize``.

    The span of the result is the span of the Gaussian matrix up to
    rounding, so it is uniformly distributed on the Grassmannian G(n, d);
    no Householder QR runs.  The basis is column-major, as every basis the
    package makes.  Requires ``0 < d < n``; the same generator state always
    yields the same matrix.  A Gaussian matrix outside CholeskyQR2's domain
    (column-scaled condition number above about 1e7, vanishingly rare)
    raises ``numpy.linalg.LinAlgError``.
    """
    return reorthonormalize(rng.standard_normal(_dims(n, d)))


def reorthonormalize(U: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the span of ``U`` by column-scaled CholeskyQR2.

    Used to remove accumulated floating-point drift from a basis that is
    only approximately orthonormal, and to orthonormalize the Gaussian and
    sparse draws of new bases.  Each column is scaled by the power of two
    that brings its largest entry into [1/2, 1), which moves neither the
    span nor a mantissa bit, so the Gram matrix can neither overflow nor
    underflow.  Then, twice, ``L = cholesky(Q^T Q)`` and ``Q^T <- inv(L) Q^T``:
    the first pass leaves the rounding of the Gram matrix times the squared
    condition number, the second removes it.  The work is two (n, d) Grams,
    (d, d) factorizations and two (d, d) by (d, n) products on the columns
    as contiguous rows; there is no Householder QR.  The result is
    column-major, and its bits do not depend on the layout of ``U``.

    Domain: the second pass runs only when the first result ``Q1`` has
    ``||Q1^T Q1 - I||_F <= 1/2``, which holds up to a column-scaled condition
    number of about 1e7; a drifted basis has condition number 1 up to
    rounding.  There the result has ``max|Q^T Q - I| <= 1e-14`` (measured
    for n up to 2e5) and the span of ``U`` up to rounding.  Raises
    ``numpy.linalg.LinAlgError`` outside that domain or when ``U`` is
    numerically rank deficient (``min|diag L| <= n eps max|diag L|`` on the
    first factor), and ``ValueError`` (``_basis``) on a complex ``U``, a shape
    outside ``0 < d < n`` or a non-finite entry.
    """
    U = _basis("basis", U)
    n, d = U.shape
    _, exponents = np.frexp(np.abs(U).max(axis=0))
    rows = np.ldexp(U.T, -exponents[:, None], order="C")  # row i is column i of U, scaled
    try:
        factor = np.linalg.cholesky(rows @ rows.T)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError("input matrix is too ill-conditioned for CholeskyQR2") from None
    diag = np.abs(np.diag(factor))
    if np.min(diag) <= n * np.finfo(float).eps * np.max(diag):
        raise np.linalg.LinAlgError("input matrix is numerically rank deficient")
    rows = np.linalg.inv(factor) @ rows
    gram = rows @ rows.T
    if np.linalg.norm(gram - np.eye(d)) > 0.5:
        raise np.linalg.LinAlgError("input matrix is too ill-conditioned for CholeskyQR2")
    return (np.linalg.inv(np.linalg.cholesky(gram)) @ rows).T


def basis_with_angles(ubar: np.ndarray, cosines: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Construct a basis whose principal angles to ``ubar`` have the given cosines.

    Column ``i`` of the result is ``cos(phi_i) * ubar[:, i] + sin(phi_i) * z_i``
    with the ``z_i`` an orthonormal set drawn at random from the orthogonal
    complement of ``span(ubar)`` and orthonormalized by ``reorthonormalize``.
    Useful for placing a test basis at a prescribed similarity to a
    reference subspace.  ``cosines`` has shape (d,), each in [0, 1], and
    ``ubar`` needs ``n >= 2d`` rows, for the d directions ``z_i`` outside
    its span; both are checked before any draw.  The basis is column-major.
    """
    ubar = check_orthonormal(ubar)
    n, d = ubar.shape
    _at_least("ubar rows", n, least=2 * d)
    cosines = _within("cosines", _shaped("cosines", cosines, (d,)), 0, 1, "[]")
    gauss = rng.standard_normal((n, d))
    gauss -= ubar @ (ubar.T @ gauss)
    complement = reorthonormalize(gauss)
    sines = np.sqrt(1.0 - cosines * cosines)
    return _column_major(ubar * cosines + complement * sines)


def basis_with_similarity(ubar: np.ndarray, zeta: float, rng: np.random.Generator) -> np.ndarray:
    """Basis at determinant similarity ``zeta`` to ``ubar``, equal angles."""
    zeta = _within("zeta", zeta, 0, 1, "(]")
    d = check_orthonormal(ubar).shape[1]
    cosines = np.full(d, zeta ** (1.0 / (2 * d)))
    return basis_with_angles(ubar, cosines, rng)


def expected_initial_similarity(n: int, d: int, c0: float = 1.0) -> float:
    """Asymptotic expected determinant similarity of a random basis: ``c0 * (d/(n e))^d``.

    This is the exponential-order approximation; see
    ``expected_initial_similarity_exact`` for the closed form.  The
    prefactor ``c0`` absorbs the sub-exponential correction and is close
    to 1 only for large ``d``.  Requires ``0 < d < n`` and ``c0 > 0``.
    """
    n, d = _dims(n, d)
    c0 = _within("c0", c0, 0, math.inf)
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
    n, d = _dims(n, d)
    return math.exp(math.lgamma(d + 1) + math.lgamma(n - d + 1) - math.lgamma(n + 1))


@dataclass(frozen=True)
class MetricSample:
    """Convergence metrics of one iterate against the reference subspace.

    ``zeta`` and ``epsilon`` are the determinant similarity and Frobenius
    discrepancy at iteration ``t``; ``cos_angles`` holds the principal-angle
    cosines.  No field has a default, so a subclass may add fields without
    one (``harness.TrajectoryRow`` adds the step that reached the iterate).
    """

    t: int
    zeta: float
    epsilon: float
    cos_angles: np.ndarray


def metric_sample(t: int, U: np.ndarray, Ubar: np.ndarray) -> MetricSample:
    """Evaluate both convergence metrics of ``U`` against ``Ubar`` at iteration ``t``.

    The cross-Gram matrix is formed once and shared by the two metrics and
    the cosines, the one SVD here.  ``t`` must be an integer >= 0.
    """
    t = _at_least("t", t)
    gram = _cross_gram(U, Ubar)
    return MetricSample(t=t, zeta=float(_similarity(gram)), epsilon=float(_discrepancy(gram)),
                        cos_angles=_cosines(gram))
