import math

import numpy as np
import pytest

from grouse.core import (
    OracleInfo,
    StepConfig,
    StepMode,
    compute_alpha,
    compute_theta,
    grouse_step,
    project,
    rotate_update,
)
from grouse.subspaces import determinant_similarity, frobenius_discrepancy, random_orthonormal

GREEDY = StepConfig(reorth_period=None)


def noiseless_case(rng, n=40, d=4):
    ubar = random_orthonormal(n, d, rng)
    u = random_orthonormal(n, d, rng)
    s = rng.standard_normal(d)
    v = ubar @ s
    return ubar, u, v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# projection


def test_project_vector_inside_span():
    rng = np.random.default_rng(0)
    u = random_orthonormal(10, 3, rng)
    x = u[:, 0]
    w, p, r = project(u, x)
    np.testing.assert_allclose(w, [1.0, 0.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(p, x, atol=1e-14)
    np.testing.assert_allclose(r, 0.0, atol=1e-14)


def test_project_vector_orthogonal_to_span():
    u = np.eye(5)[:, :2]
    x = np.eye(5)[:, 4]
    w, p, r = project(u, x)
    np.testing.assert_allclose(w, 0.0, atol=1e-15)
    np.testing.assert_allclose(p, 0.0, atol=1e-15)
    np.testing.assert_allclose(r, x, atol=1e-15)


def test_project_coordinate_decomposition():
    u = np.array([[1.0], [0.0]])
    w, p, r = project(u, np.array([1.0, 1.0]))
    assert w == pytest.approx([1.0])
    np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(r, [0.0, 1.0], atol=1e-15)


def test_project_rejects_bad_input():
    rng = np.random.default_rng(1)
    u = random_orthonormal(10, 3, rng)
    with pytest.raises(ValueError):
        project(u, np.ones(9))
    with pytest.raises(ValueError):
        project(u, np.array([np.nan] + [0.0] * 9))


def test_projection_residual_orthogonality():
    rng = np.random.default_rng(2)
    for _ in range(30):
        u = random_orthonormal(20, 4, rng)
        x = rng.standard_normal(20)
        w, p, r = project(u, x)
        np.testing.assert_allclose(p + r, x, atol=1e-12 * np.linalg.norm(x))
        assert abs(p @ r) <= 1e-9 * np.linalg.norm(p) * np.linalg.norm(r)


# ---------------------------------------------------------------------------
# step-size schedules


def test_alpha_greedy_is_zero_even_with_noise_configured():
    cfg = StepConfig(mode=StepMode.GREEDY_NOISELESS, sigma_sq=1.0)
    assert compute_alpha(cfg, 2.0, 1.0, 100, 5) == 0.0


def test_alpha_practical_zero_noise_reduces_to_greedy():
    cfg = StepConfig(mode=StepMode.PRACTICAL_NOISY, sigma_sq=0.0)
    assert compute_alpha(cfg, 2.0, 1.0, 100, 5) == 0.0


def test_alpha_practical_formula_and_clamp():
    cfg = StepConfig(mode=StepMode.PRACTICAL_NOISY, sigma_sq=0.5, c=2.0)
    n, d = 200, 10
    expected = 2.0 * 0.5 / 1.5 * (1.0 - d / n) * 3.0 / 4.0
    assert compute_alpha(cfg, 3.0, 4.0, n, d) == pytest.approx(expected, rel=1e-12)
    assert compute_alpha(cfg, 1e6, 1.0, n, d) == 1.0


def test_alpha_oracle_forms():
    cfg = StepConfig(mode=StepMode.ORACLE_NOISY, sigma_sq=0.1)
    assert compute_alpha(cfg, 1.0, 2.0, 50, 5, OracleInfo(v_perp_norm_sq=2.0)) == 0.0
    assert compute_alpha(cfg, 1.0, 2.0, 50, 5, OracleInfo(v_perp_norm_sq=1.0)) == pytest.approx(0.5)
    # residual smaller than the clean out-of-span energy clamps at zero
    assert compute_alpha(cfg, 1.0, 2.0, 50, 5, OracleInfo(v_perp_norm_sq=3.0)) == 0.0


def test_alpha_oracle_requires_info():
    cfg = StepConfig(mode=StepMode.ORACLE_NOISY, sigma_sq=0.1)
    with pytest.raises(ValueError):
        compute_alpha(cfg, 1.0, 2.0, 50, 5)


def test_alpha_schedules_agree_in_expectation():
    """The observable and the oracle damping schedules agree on average.

    At fixed basis and clean signal, the identity is exact for the
    products alpha * ||r||^2 (the numerators), which is what the paired
    3-standard-error check asserts.  The clamped ratios themselves carry
    a small Jensen-gap bias, so they are only compared at 0.5% relative.
    """
    n, d, sigma_sq = 2000, 20, 1.0
    rng = np.random.default_rng(3)
    from grouse.subspaces import basis_with_similarity

    ubar = random_orthonormal(n, d, rng)
    u = basis_with_similarity(ubar, 0.5, rng)
    s = rng.standard_normal(d)
    v = ubar @ s
    v /= np.linalg.norm(v)
    v_perp = v - u @ (u.T @ v)
    v_perp_sq = float(v_perp @ v_perp)

    cfg = StepConfig(mode=StepMode.PRACTICAL_NOISY, sigma_sq=sigma_sq)
    draws = 10_000
    a_prac = np.empty(draws)
    a_oracle = np.empty(draws)
    numerator_diff = np.empty(draws)
    scale = sigma_sq / (1.0 + sigma_sq) * (1.0 - d / n)
    for i in range(draws):
        xi = rng.standard_normal(n) * math.sqrt(sigma_sq / n)
        x = v + xi
        r = x - u @ (u.T @ x)
        x_sq, r_sq = float(x @ x), float(r @ r)
        a_prac[i] = compute_alpha(cfg, x_sq, r_sq, n, d)
        a_oracle[i] = 1.0 - v_perp_sq / r_sq
        numerator_diff[i] = scale * x_sq - (r_sq - v_perp_sq)

    # exact-in-expectation numerator identity at 3 standard errors
    se = numerator_diff.std(ddof=1) / math.sqrt(draws)
    assert abs(numerator_diff.mean()) <= 3 * se
    # the clamped ratio forms agree closely but not to Monte Carlo resolution
    assert a_prac.mean() == pytest.approx(np.clip(a_oracle, 0.0, 1.0).mean(), rel=5e-3)


def test_theta_zero_residual():
    assert compute_theta(0.0, 0.0, 1.0) == 0.0


def test_theta_equal_norms_gives_quarter_pi():
    assert compute_theta(0.0, 2.5, 2.5) == pytest.approx(math.pi / 4)


def test_theta_full_damping():
    assert compute_theta(1.0, 123.0, 0.5) == 0.0


def test_theta_degenerate_projection():
    with pytest.raises(ValueError):
        compute_theta(0.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# full step


def test_step_hand_computed_two_dimensional_case():
    # from span(e1), observing (1, 1) rotates the basis onto the diagonal in one step
    u = np.array([[1.0], [0.0]])
    x = np.array([1.0, 1.0])
    ubar = np.array([[1.0], [1.0]]) / math.sqrt(2.0)
    zeta_before = determinant_similarity(u, ubar)
    out = grouse_step(u, x, GREEDY)
    assert not out.skipped
    assert out.theta == pytest.approx(math.pi / 4)
    np.testing.assert_allclose(out.updated[:, 0], [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-14)
    zeta_after = determinant_similarity(out.updated, ubar)
    assert zeta_before == pytest.approx(0.5, abs=1e-12)
    assert zeta_after == pytest.approx(1.0, abs=1e-12)
    # one-step gain matches 1 + ||v_perp||^2 / ||v_par||^2 = 2
    assert zeta_after / zeta_before == pytest.approx(2.0, rel=1e-12)


def test_step_skips_observation_inside_span():
    rng = np.random.default_rng(4)
    u = random_orthonormal(12, 3, rng)
    out = grouse_step(u, u @ rng.standard_normal(3), GREEDY)
    assert out.skipped
    assert out.updated is u


def test_step_skips_observation_orthogonal_to_span():
    u = np.eye(6)[:, :2]
    out = grouse_step(u, np.eye(6)[:, 5], GREEDY)
    assert out.skipped
    assert out.updated is u


def test_step_rank_one_structure():
    # the update sends w/||w|| to y/||y|| and fixes in-span directions orthogonal to w
    rng = np.random.default_rng(5)
    for _ in range(30):
        ubar, u, v = noiseless_case(rng, n=30, d=4)
        out = grouse_step(u, v, GREEDY)
        w_hat = out.w / np.linalg.norm(out.w)
        y_hat = math.cos(out.theta) * out.p / np.linalg.norm(out.p) + math.sin(
            out.theta
        ) * out.r / np.linalg.norm(out.r)
        np.testing.assert_allclose(out.updated @ w_hat, y_hat, atol=1e-10)
        z = rng.standard_normal(4)
        z -= (z @ w_hat) * w_hat
        np.testing.assert_allclose(out.updated @ z, u @ z, atol=1e-10)


def test_step_preserves_orthonormality():
    rng = np.random.default_rng(6)
    for _ in range(50):
        ubar, u, v = noiseless_case(rng)
        out = grouse_step(u, v, GREEDY)
        assert np.max(np.abs(out.updated.T @ out.updated - np.eye(4))) <= 1e-9


def test_step_outcome_invariants():
    rng = np.random.default_rng(7)
    cfg = StepConfig(mode=StepMode.PRACTICAL_NOISY, sigma_sq=0.01, reorth_period=None)
    for _ in range(20):
        ubar, u, v = noiseless_case(rng)
        x = v + rng.standard_normal(40) * 0.01
        out = grouse_step(u, x, cfg)
        np.testing.assert_allclose(out.p + out.r, x, atol=1e-12 * np.linalg.norm(x))
        assert abs(out.p @ out.r) <= 1e-9 * np.linalg.norm(out.p) * np.linalg.norm(out.r)
        assert 0.0 <= out.alpha <= 1.0
        assert 0.0 <= out.theta < math.pi / 2


def test_noiseless_monotonicity_identities_along_trajectory():
    """Greedy noiseless steps satisfy both one-step improvement identities."""
    rng = np.random.default_rng(8)
    ubar, u, _ = noiseless_case(rng, n=60, d=5)
    for _ in range(200):
        s = rng.standard_normal(5)
        v = ubar @ s
        v /= np.linalg.norm(v)
        v_par = u @ (u.T @ v)
        v_perp = v - v_par
        z0 = determinant_similarity(u, ubar)
        e0 = frobenius_discrepancy(u, ubar)
        out = grouse_step(u, v, GREEDY)
        if out.skipped:
            continue
        z1 = determinant_similarity(out.updated, ubar)
        e1 = frobenius_discrepancy(out.updated, ubar)
        ratio_predicted = 1.0 + float(v_perp @ v_perp) / float(v_par @ v_par)
        assert z1 / z0 == pytest.approx(ratio_predicted, rel=1e-8)
        proj = ubar @ (ubar.T @ v_par)
        decrease_predicted = 1.0 - float(proj @ proj) / float(v_par @ v_par)
        assert e0 - e1 == pytest.approx(decrease_predicted, abs=1e-8)
        u = out.updated


def test_greedy_angle_maximizes_similarity_gain():
    # re-evaluating the one-step ratio formula at 0.9x and 1.1x the used angle loses
    rng = np.random.default_rng(9)
    for _ in range(100):
        ubar, u, v = noiseless_case(rng, n=25, d=3)
        out = grouse_step(u, v, GREEDY)
        if out.skipped:
            continue
        q = np.linalg.norm(out.r) / np.linalg.norm(out.p)

        def gain(theta):
            return (math.cos(theta) + q * math.sin(theta)) ** 2

        assert gain(out.theta) > gain(0.9 * out.theta)
        assert gain(out.theta) > gain(1.1 * out.theta)


def test_step_equivariant_under_basis_rotation():
    rng = np.random.default_rng(10)
    for _ in range(20):
        ubar, u, v = noiseless_case(rng)
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        out_a = grouse_step(u, v, GREEDY)
        out_b = grouse_step(u @ q, v, GREEDY)
        assert determinant_similarity(out_a.updated, out_b.updated) == pytest.approx(
            1.0, abs=1e-9
        )


def test_full_damping_is_a_fixed_point():
    rng = np.random.default_rng(11)
    cfg = StepConfig(mode=StepMode.ORACLE_NOISY, sigma_sq=1.0, reorth_period=None)
    ubar, u, v = noiseless_case(rng)
    out = grouse_step(u, v, cfg, oracle=OracleInfo(v_perp_norm_sq=0.0))
    assert out.alpha == 1.0
    assert out.theta == 0.0
    np.testing.assert_array_equal(out.updated, u)


def test_periodic_reorthonormalization_trigger():
    rng = np.random.default_rng(12)
    cfg = StepConfig(reorth_period=5)
    ubar, u, v = noiseless_case(rng)
    # counts 0..3 leave the raw rank-one update; count 4 (the 5th step) re-orthonormalizes
    out_raw = grouse_step(u, v, cfg, nonskipped_steps=3)
    out_reorth = grouse_step(u, v, cfg, nonskipped_steps=4)
    assert determinant_similarity(out_raw.updated, out_reorth.updated) == pytest.approx(
        1.0, abs=1e-12
    )
    drift_raw = np.max(np.abs(out_raw.updated.T @ out_raw.updated - np.eye(4)))
    drift_reorth = np.max(np.abs(out_reorth.updated.T @ out_reorth.updated - np.eye(4)))
    assert drift_reorth <= drift_raw + 1e-15
    assert drift_reorth <= 1e-14


def test_rotate_update_rejects_degenerate_directions():
    rng = np.random.default_rng(13)
    u = random_orthonormal(10, 2, rng)
    with pytest.raises(ValueError):
        rotate_update(u, np.zeros(2), np.ones(10), np.ones(10), 0.1)


def test_step_config_validation():
    with pytest.raises(ValueError):
        StepConfig(sigma_sq=-1.0)
    with pytest.raises(ValueError):
        StepConfig(c=0.0)
    with pytest.raises(ValueError):
        StepConfig(reorth_period=0)
    with pytest.raises(ValueError):
        OracleInfo(v_perp_norm_sq=-0.5)


@pytest.mark.parametrize("field", ["sigma_sq", "c", "skip_norm_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_step_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match=field):
        StepConfig(**{field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_oracle_info_rejects_non_finite_energy(value):
    with pytest.raises(ValueError, match="v_perp_norm_sq"):
        OracleInfo(v_perp_norm_sq=value)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_project_rejects_non_finite_basis(value):
    rng = np.random.default_rng(14)
    u = random_orthonormal(10, 3, rng)
    u[4, 1] = value
    with pytest.raises(ValueError, match="basis contains non-finite"):
        project(u, rng.standard_normal(10))
