import math
import re

import numpy as np
import pytest

from grouse.subspaces import (
    basis_with_angles,
    basis_with_similarity,
    check_orthonormal,
    determinant_similarity,
    expected_initial_similarity,
    expected_initial_similarity_exact,
    frobenius_discrepancy,
    metric_sample,
    principal_angles,
    random_orthonormal,
    reorthonormalize,
)

E1 = np.array([[1.0], [0.0]])
E2 = np.array([[0.0], [1.0]])
DIAG = np.array([[1.0], [1.0]]) / np.sqrt(2.0)


def gram_schmidt(m):
    """Classical Gram-Schmidt, used only as an independent orthonormalization oracle."""
    m = np.array(m, dtype=float)
    q = np.zeros_like(m)
    for j in range(m.shape[1]):
        v = m[:, j].copy()
        for k in range(j):
            v -= (q[:, k] @ m[:, j]) * q[:, k]
        q[:, j] = v / np.linalg.norm(v)
    return q


# ---------------------------------------------------------------------------
# principal angles


def test_principal_angles_identical_lines():
    assert principal_angles(E1, E1) == pytest.approx([1.0], abs=1e-14)


def test_principal_angles_orthogonal_lines():
    assert principal_angles(E2, E1) == pytest.approx([0.0], abs=1e-14)


def test_principal_angles_45_degrees():
    assert principal_angles(DIAG, E1) == pytest.approx([1.0 / np.sqrt(2.0)], abs=1e-14)


def test_principal_angles_sorted_and_clamped():
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = random_orthonormal(12, 4, rng)
        ubar = random_orthonormal(12, 4, rng)
        cosines = principal_angles(u, ubar)
        assert cosines.shape == (4,)
        assert np.all(np.diff(cosines) <= 0)
        assert np.all((cosines >= 0) & (cosines <= 1))


def test_principal_angles_dimension_mismatch():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        principal_angles(random_orthonormal(10, 3, rng), random_orthonormal(10, 4, rng))
    with pytest.raises(ValueError):
        principal_angles(random_orthonormal(10, 3, rng), random_orthonormal(11, 3, rng))


# ---------------------------------------------------------------------------
# determinant similarity


def test_similarity_identity_case():
    rng = np.random.default_rng(2)
    u = random_orthonormal(9, 3, rng)
    assert determinant_similarity(u, u) == pytest.approx(1.0, abs=1e-12)


def test_similarity_orthogonal_direction_gives_zero():
    u = np.eye(4)[:, :2]
    ubar = np.eye(4)[:, 2:]
    assert determinant_similarity(u, ubar) == pytest.approx(0.0, abs=1e-15)


def test_similarity_45_degrees():
    assert determinant_similarity(DIAG, E1) == pytest.approx(0.5, abs=1e-14)


def test_similarity_matches_explicit_determinant():
    # the explicit det of Ubar^T U U^T Ubar is the small-scale oracle for the svd route
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(5, 51))
        d = int(rng.integers(1, min(n - 1, 8) + 1))
        u = random_orthonormal(n, d, rng)
        ubar = random_orthonormal(n, d, rng)
        m = ubar.T @ u
        assert determinant_similarity(u, ubar) == pytest.approx(
            float(np.linalg.det(m @ m.T)), abs=1e-9
        )


def test_similarity_invariant_under_right_rotation():
    rng = np.random.default_rng(4)
    u = random_orthonormal(25, 5, rng)
    ubar = random_orthonormal(25, 5, rng)
    q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    base = determinant_similarity(u, ubar)
    assert abs(determinant_similarity(u @ q, ubar) - base) < 1e-10
    assert abs(determinant_similarity(u, ubar @ q) - base) < 1e-10


# ---------------------------------------------------------------------------
# frobenius discrepancy


def test_discrepancy_identity_case():
    rng = np.random.default_rng(5)
    u = random_orthonormal(9, 3, rng)
    assert frobenius_discrepancy(u, u) == pytest.approx(0.0, abs=1e-12)


def test_discrepancy_45_degrees():
    assert frobenius_discrepancy(DIAG, E1) == pytest.approx(0.5, abs=1e-14)


def test_discrepancy_matches_sine_sum():
    rng = np.random.default_rng(6)
    for _ in range(20):
        u = random_orthonormal(8, 3, rng)
        ubar = random_orthonormal(8, 3, rng)
        cosines = principal_angles(u, ubar)
        assert frobenius_discrepancy(u, ubar) == pytest.approx(
            float(np.sum(1.0 - cosines**2)), abs=1e-10
        )


def test_zeta_eps_inequalities():
    # 1 - zeta <= eps always; eps <= 2 (1 - zeta) once zeta >= 1/2
    rng = np.random.default_rng(7)
    for i in range(60):
        ubar = random_orthonormal(20, 4, rng)
        if i % 2:
            u = basis_with_similarity(ubar, float(rng.uniform(0.5, 1.0)), rng)
        else:
            u = random_orthonormal(20, 4, rng)
        z = determinant_similarity(u, ubar)
        e = frobenius_discrepancy(u, ubar)
        assert 1.0 - z <= e + 1e-9
        if z >= 0.5:
            assert e <= 2.0 * (1.0 - z) + 1e-9


# ---------------------------------------------------------------------------
# random orthonormal bases


def test_random_orthonormal_is_orthonormal():
    rng = np.random.default_rng(8)
    u = random_orthonormal(40, 6, rng)
    assert np.max(np.abs(u.T @ u - np.eye(6))) <= 1e-12


def test_random_orthonormal_deterministic():
    a = random_orthonormal(15, 4, np.random.default_rng(99))
    b = random_orthonormal(15, 4, np.random.default_rng(99))
    np.testing.assert_array_equal(a, b)


def test_random_orthonormal_rejects_bad_dims():
    rng = np.random.default_rng(9)
    with pytest.raises(ValueError):
        random_orthonormal(5, 5, rng)
    with pytest.raises(ValueError):
        random_orthonormal(5, 0, rng)


def test_random_initial_similarity_matches_exact_expectation():
    """Mean similarity of uniform random subspaces equals 1/binom(n, d).

    The closed form is the determinant moment of the matrix-variate beta
    distribution; it is the independent oracle for the uniformity of the
    QR-based draw.
    """
    rng = np.random.default_rng(10)
    n, d, draws = 20, 2, 50_000
    ubar = random_orthonormal(n, d, rng)
    gauss = rng.standard_normal((draws, n, d))
    q = np.linalg.qr(gauss)[0]
    dets = np.linalg.det(np.swapaxes(q, 1, 2) @ ubar) ** 2
    mean = dets.mean()
    se = dets.std(ddof=1) / math.sqrt(draws)
    exact = expected_initial_similarity_exact(n, d)
    assert exact == pytest.approx(1.0 / math.comb(n, d), rel=1e-12)
    assert abs(mean - exact) <= 4 * se


def test_asymptotic_initial_similarity_value():
    # (d / (n e))^d at n=20, d=2
    assert expected_initial_similarity(20, 2) == pytest.approx(1.3533528e-3, rel=1e-6)


@pytest.mark.parametrize(("args", "message"), [
    ((5, 10), "need 0 < d < n, got n=5, d=10"),
    ((0, 1), "need 0 < d < n, got n=0, d=1"),
    ((10, 2, -1.0), "c0 must lie in (0, inf), got -1.0"),
    ((10, 2, 0.0), "c0 must lie in (0, inf), got 0.0"),
])
def test_asymptotic_initial_similarity_checks_its_domain(args, message):
    """As ``expected_initial_similarity_exact`` does: no value outside ``0 < d < n``, ``c0 > 0``."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        expected_initial_similarity(*args)


# ---------------------------------------------------------------------------
# reorthonormalization


def test_reorthonormalize_idempotent_on_orthonormal_input():
    rng = np.random.default_rng(11)
    u = random_orthonormal(30, 5, rng)
    q = reorthonormalize(u)
    assert np.all(principal_angles(u, q) >= 1.0 - 1e-12)


def test_reorthonormalize_restores_orthonormality():
    rng = np.random.default_rng(12)
    u = random_orthonormal(30, 5, rng)
    drifted = u * (1.0 + 1e-8 * rng.standard_normal(5))
    q = reorthonormalize(drifted)
    assert np.max(np.abs(q.T @ q - np.eye(5))) <= 1e-14


def test_reorthonormalize_preserves_span():
    rng = np.random.default_rng(13)
    u = random_orthonormal(50, 5, rng)
    drifted = u * (1.0 + 1e-7 * rng.standard_normal(5)) + 1e-9 * rng.standard_normal((50, 5))
    q = reorthonormalize(drifted)
    span_oracle = gram_schmidt(drifted)
    assert determinant_similarity(span_oracle, q) == pytest.approx(1.0, abs=1e-10)
    assert np.all(np.arccos(principal_angles(span_oracle, q)) <= 1e-7)


def test_reorthonormalize_rejects_rank_deficiency():
    rng = np.random.default_rng(14)
    u = random_orthonormal(20, 4, rng)
    u[:, 3] = u[:, 0]
    with pytest.raises(np.linalg.LinAlgError):
        reorthonormalize(u)


def _conditioned(n, d, kappa, rng):
    """(n, d) matrix with singular values log-spaced from 1 down to 1/kappa and random singular vectors."""
    left = random_orthonormal(n, d, rng)
    right = np.linalg.qr(rng.standard_normal((d, d)))[0]
    return (left * np.logspace(0, -np.log10(kappa), d)) @ right.T


@pytest.mark.parametrize("n, d", [(200, 5), (2000, 20), (5000, 10), (12, 11)])
@pytest.mark.parametrize("kappa", [1.0, 1e2, 1e4])
def test_reorthonormalize_is_orthonormal_with_qr_span_at_any_scale(n, d, kappa):
    u = _conditioned(n, d, kappa, np.random.default_rng(n + d))
    q_qr = np.linalg.qr(u)[0]
    for scale in (1.0, 1e200, 1e-200):
        q = reorthonormalize(u * scale)
        assert np.max(np.abs(q.T @ q - np.eye(d))) <= 1e-14
        assert np.max(np.abs(q @ q.T - q_qr @ q_qr.T)) <= 1e-12


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
@pytest.mark.parametrize("column", ["zero", "duplicate"])
def test_reorthonormalize_rejects_exact_rank_deficiency_at_any_scale(scale, column):
    u = random_orthonormal(20, 4, np.random.default_rng(16))
    u[:, 2] = 0.0 if column == "zero" else u[:, 1]
    with pytest.raises(np.linalg.LinAlgError):
        reorthonormalize(u * scale)


def test_reorthonormalize_rejects_condition_beyond_its_domain():
    with pytest.raises(np.linalg.LinAlgError):
        reorthonormalize(_conditioned(200, 5, 1e10, np.random.default_rng(17)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_reorthonormalize_rejects_non_finite(bad):
    u = random_orthonormal(10, 3, np.random.default_rng(18))
    u[4, 1] = bad
    with pytest.raises(ValueError, match="basis contains non-finite entries"):
        reorthonormalize(u)


def test_check_orthonormal_rejects_drift():
    rng = np.random.default_rng(15)
    u = random_orthonormal(10, 3, rng)
    check_orthonormal(u)
    with pytest.raises(ValueError):
        check_orthonormal(u * 1.001)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_check_orthonormal_rejects_non_finite(bad):
    u = random_orthonormal(10, 3, np.random.default_rng(15))
    u[4, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        check_orthonormal(u)


# ---------------------------------------------------------------------------
# constructed bases and metric samples


def test_basis_with_angles_hits_prescribed_cosines():
    rng = np.random.default_rng(16)
    ubar = random_orthonormal(30, 4, rng)
    target = np.array([0.9, 0.8, 0.5, 0.1])
    u = basis_with_angles(ubar, target, rng)
    assert np.max(np.abs(u.T @ u - np.eye(4))) <= 1e-12
    assert principal_angles(u, ubar) == pytest.approx(np.sort(target)[::-1], abs=1e-10)


@pytest.mark.parametrize("bad", [-0.1, 1.1, np.nan])
def test_basis_with_angles_rejects_a_cosine_outside_the_unit_interval(bad):
    """A cosine below 0, above 1 or NaN raises before the draw: the generator is untouched."""
    rng = np.random.default_rng(16)
    ubar = random_orthonormal(30, 3, rng)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"^cosines must lie in \[0, 1\]$"):
        basis_with_angles(ubar, [0.5, bad, 0.3], rng)
    assert rng.bit_generator.state == state


def test_basis_with_similarity_hits_target_zeta():
    rng = np.random.default_rng(17)
    ubar = random_orthonormal(40, 5, rng)
    for zeta in (0.01, 0.1, 0.5, 0.99):
        u = basis_with_similarity(ubar, zeta, rng)
        assert determinant_similarity(u, ubar) == pytest.approx(zeta, rel=1e-9)


def test_metric_sample_internal_consistency():
    rng = np.random.default_rng(18)
    u = random_orthonormal(25, 5, rng)
    ubar = random_orthonormal(25, 5, rng)
    sample = metric_sample(3, u, ubar)
    assert sample.t == 3
    assert sample.zeta == pytest.approx(float(np.prod(sample.cos_angles**2)), abs=1e-9)
    assert sample.epsilon == pytest.approx(5.0 - float(np.sum(sample.cos_angles**2)), abs=1e-9)
    assert 1.0 - sample.zeta <= sample.epsilon + 1e-9


def test_metric_sample_takes_an_iterate_index():
    """``t`` is an integer >= 0, stored as a Python int; a float, a bool or a negative ``t`` raises."""
    rng = np.random.default_rng(19)
    u = random_orthonormal(10, 2, rng)
    for bad in (1.5, True, -1):
        with pytest.raises(ValueError, match="^t must be"):
            metric_sample(bad, u, u)
    sample = metric_sample(np.int64(3), u, u)
    assert sample.t == 3 and type(sample.t) is int


def test_metric_sample_equals_separate_metrics():
    rng = np.random.default_rng(26)
    for n, d in ((6, 1), (30, 4), (200, 10)):
        for _ in range(5):
            u = random_orthonormal(n, d, rng)
            ubar = random_orthonormal(n, d, rng)
            sample = metric_sample(0, u, ubar)
            np.testing.assert_array_equal(sample.cos_angles, principal_angles(u, ubar))
            assert sample.zeta == determinant_similarity(u, ubar)
            assert sample.epsilon == frobenius_discrepancy(u, ubar)


def test_metric_owners_on_a_stack_equal_single_grams():
    """Row ``i`` of the stacked similarity and discrepancy is the one-basis metric, bit for bit."""
    from grouse.subspaces import _discrepancy, _similarity

    rng = np.random.default_rng(27)
    for n, d in ((6, 1), (30, 4), (200, 10), (299, 25)):
        ubar = random_orthonormal(n, d, rng)
        bases = [random_orthonormal(n, d, rng) for _ in range(3)]
        grams = np.stack([ubar.T @ u for u in bases])
        assert _discrepancy(grams).tolist() == [frobenius_discrepancy(u, ubar) for u in bases]
        assert _similarity(grams).tolist() == [determinant_similarity(u, ubar) for u in bases]


def test_trace_expectation_identity():
    """Mean of x^T Q x / x^T x over isotropic vectors is tr(Q)/d."""
    rng = np.random.default_rng(19)
    d, draws = 6, 100_000
    q = rng.standard_normal((d, d))
    q = (q + q.T) / 2.0
    x = rng.standard_normal((draws, d))
    vals = np.einsum("ni,ij,nj->n", x, q, x) / np.einsum("ni,ni->n", x, x)
    se = vals.std(ddof=1) / math.sqrt(draws)
    assert abs(vals.mean() - np.trace(q) / d) <= 3 * se


def test_every_basis_the_package_makes_is_column_major():
    """Drawn, planted, placed, re-orthonormalized and stepped bases share one layout, whatever the input's."""
    from grouse.core import StepConfig, grouse_step
    from grouse.data import make_planted

    rng = np.random.default_rng(15)
    ubar = random_orthonormal(40, 3, rng)
    bases = [
        ubar,
        make_planted(40, 3, 0.0, sparse=False, rng=rng).ubar,
        make_planted(40, 3, 0.0, sparse=True, rng=rng).ubar,
        basis_with_angles(np.ascontiguousarray(ubar), np.array([0.9, 0.5, 0.1]), rng),
        reorthonormalize(np.ascontiguousarray(ubar)),
        grouse_step(np.ascontiguousarray(ubar), rng.standard_normal(40), StepConfig()).updated,
    ]
    assert all(basis.flags.f_contiguous for basis in bases)
    assert np.array_equal(reorthonormalize(np.ascontiguousarray(ubar)), reorthonormalize(ubar))
