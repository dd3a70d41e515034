import dataclasses
import math
import re

import numpy as np
import pytest

from grouse import core
from grouse.core import (
    OracleInfo,
    StepConfig,
    StepMode,
    StepOutcome,
    Tracker,
    compute_alpha,
    compute_theta,
    grouse_step,
    project,
    rotate_update,
)
from grouse.data import draw_sample, make_planted
from grouse.subspaces import determinant_similarity, frobenius_discrepancy, random_orthonormal, reorthonormalize

GREEDY = StepConfig(reorth_period=None)


def noiseless_case(rng, n=40, d=4):
    ubar = random_orthonormal(n, d, rng)
    u = random_orthonormal(n, d, rng)
    s = rng.standard_normal(d)
    v = ubar @ s
    return ubar, u, v / np.linalg.norm(v)


def tracker_at(basis, cfg, nonskipped):
    """A ``Tracker`` at ``basis`` whose stream has taken ``nonskipped`` steps, none of them skipped."""
    tracker = Tracker(basis, cfg)
    tracker.steps = nonskipped
    return tracker


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
    raw = tracker_at(u, cfg, 3).update(v).updated
    reorth = tracker_at(u, cfg, 4).update(v).updated
    assert determinant_similarity(raw, reorth) == pytest.approx(
        1.0, abs=1e-12
    )
    drift_raw = np.max(np.abs(raw.T @ raw - np.eye(4)))
    drift_reorth = np.max(np.abs(reorth.T @ reorth - np.eye(4)))
    assert drift_reorth <= drift_raw + 1e-15
    assert drift_reorth <= 1e-14


@pytest.mark.parametrize("nonskipped", [None, 99])
@pytest.mark.parametrize("cfg", [
    StepConfig(),
    StepConfig(mode=StepMode.PRACTICAL_NOISY, sigma_sq=1e-2),
    StepConfig(mode=StepMode.ORACLE_NOISY, sigma_sq=1e-2),
])
def test_step_bits_do_not_depend_on_basis_layout(cfg, nonskipped):
    """A C-order basis and its column-major copy give identical bits, with and without a re-orthonormalization.

    ``None`` steps by ``grouse_step``; 99 by ``Tracker.update`` on a tracker started at the basis, as its 100th
    non-skipped step, which re-orthonormalizes.
    """
    rng = np.random.default_rng(14)
    u = random_orthonormal(70, 5, rng)
    c_order = np.ascontiguousarray(u)
    assert u.flags.f_contiguous and c_order.flags.c_contiguous
    oracle = OracleInfo(v_perp_norm_sq=0.5) if cfg.mode is StepMode.ORACLE_NOISY else None  # it alone takes one
    for _ in range(5):
        x = rng.standard_normal(70)
        if nonskipped is None:
            a, b = (grouse_step(basis, x, cfg, oracle=oracle) for basis in (c_order, u))
        else:
            a, b = (tracker_at(basis, cfg, nonskipped).update(x, oracle) for basis in (c_order, u))
        for got, want in ((a.w, b.w), (a.p, b.p), (a.r, b.r), (a.updated, b.updated)):
            assert np.array_equal(got, want)
        assert (a.alpha, a.theta, a.skipped) == (b.alpha, b.theta, b.skipped)
        assert a.updated.flags.f_contiguous and b.updated.flags.f_contiguous
        u, c_order = b.updated, np.ascontiguousarray(b.updated)


def test_tracker_without_reorth_equals_a_grouse_step_loop():
    """With ``reorth_period=None`` a ``Tracker``'s updates and basis are a ``grouse_step`` loop's, bit for bit."""
    cfg = StepConfig(mode=StepMode.PRACTICAL_NOISY, sigma_sq=1e-3, reorth_period=None)
    rng = np.random.default_rng(44)
    model = make_planted(60, 4, 1e-3, sparse=True, rng=rng)
    basis = random_orthonormal(60, 4, rng)
    tracker, skipped = Tracker(basis, cfg), 0
    for _ in range(200):
        x = draw_sample(model, rng).x
        got, want = tracker.update(x), grouse_step(basis, x, cfg)
        for field in dataclasses.fields(StepOutcome):
            assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), field.name
        basis, skipped = want.updated, skipped + want.skipped
        assert np.array_equal(tracker.basis, basis)
    assert (tracker.steps, tracker.skipped_steps) == (200, skipped)


def test_tracker_counts_only_non_skipped_steps_for_reorth():
    """With ``reorth_period=2`` the steps x1, an in-span x, x2 re-orthonormalize at x2 only, the 2nd non-skipped step.

    A tracker that counted the skipped step would leave x2's update raw.
    """
    cfg = StepConfig(reorth_period=2)
    rng = np.random.default_rng(45)
    _, start, x1 = noiseless_case(rng)
    x2 = rng.standard_normal(40)
    tracker = Tracker(start, cfg)
    first = tracker.update(x1)
    assert np.array_equal(first.updated, tracker_at(start, cfg, 0).update(x1).updated)
    assert np.array_equal(first.updated, grouse_step(start, x1, cfg).updated)
    in_span = tracker.update(first.updated @ rng.standard_normal(4))
    assert in_span.skipped and in_span.updated is first.updated
    last = tracker.update(x2)
    assert np.array_equal(last.updated, tracker_at(first.updated, cfg, 1).update(x2).updated)
    assert np.array_equal(last.updated, reorthonormalize(grouse_step(first.updated, x2, cfg).updated))
    assert not np.array_equal(last.updated, grouse_step(first.updated, x2, cfg).updated)
    assert tracker.basis is last.updated
    assert (tracker.steps, tracker.skipped_steps) == (3, 1)
    assert type(tracker.steps) is type(tracker.skipped_steps) is int  # a one-stream tracker counts in Python ints


def test_tracker_rejects_bad_input():
    """A bad start basis raises ``ValueError`` in the constructor.

    A bad ``x`` raises ``grouse_step``'s error and leaves the basis and the counts as they were.
    """
    rng = np.random.default_rng(46)
    u = random_orthonormal(20, 3, rng)
    not_finite = u.copy()
    not_finite[0, 0] = np.nan
    for bad in (2.0 * u, not_finite, u[:, 0], u.T, np.eye(3), u.astype(complex)):
        with pytest.raises(ValueError):
            Tracker(bad)
    with pytest.raises(ValueError, match="^cfg must be a StepConfig, got None$"):
        Tracker(u, None)
    tracker = Tracker(u)
    tracker.update(rng.standard_normal(20))
    basis = tracker.basis
    with pytest.raises(ValueError, match="^cfg must be a StepConfig, got None$"):
        grouse_step(basis, rng.standard_normal(20), None)
    with pytest.raises(ValueError, match="^U must be real, got complex128$"):
        grouse_step(basis.astype(complex), rng.standard_normal(20), tracker.cfg)
    with pytest.raises(ValueError, match="^oracle must be an OracleInfo or None, got 0.5$"):
        grouse_step(basis, rng.standard_normal(20), tracker.cfg, 0.5)
    for x in (np.full(20, np.nan), rng.standard_normal(21), rng.standard_normal(20) + 1j):
        with pytest.raises(ValueError) as expected:
            grouse_step(basis, x, tracker.cfg)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            tracker.update(x)
        assert (tracker.steps, tracker.skipped_steps) == (1, 0) and tracker.basis is basis


_COMPLEX_CASES = [(layer, name) for layer, names in ((compute_alpha, ("x_norm_sq", "r_norm_sq", "n", "d")),
                                                     (compute_theta, ("alpha", "r_norm", "p_norm")),
                                                     (rotate_update, ("U", "w", "p", "r", "theta")))
                  for name in names]


@pytest.mark.parametrize("layer, name", _COMPLEX_CASES, ids=[f"{f.__name__}-{name}" for f, name in _COMPLEX_CASES])
def test_step_layers_reject_complex_arguments(layer, name):
    """A complex numeric argument of a public step layer raises ``ValueError`` naming it, in greedy mode too."""
    rng = np.random.default_rng(47)
    u = random_orthonormal(20, 3, rng)
    w, p, r = project(u, rng.standard_normal(20))
    args = {
        compute_alpha: {"cfg": GREEDY, "x_norm_sq": 2.0, "r_norm_sq": 1.0, "n": 20, "d": 3},
        compute_theta: {"alpha": 0.0, "r_norm": 1.0, "p_norm": 1.0},
        rotate_update: {"U": u, "w": w, "p": p, "r": r, "theta": 0.3},
    }[layer]
    layer(**args)
    args[name] = args[name] + 1j
    with pytest.raises(ValueError, match=f"^{name} must be real, got complex128$"):
        layer(**args)


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


@pytest.mark.parametrize("field", ["sigma_sq", "c"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_step_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match=field):
        StepConfig(**{field: value})


@pytest.mark.parametrize("value", [True, 2.5, 100.0])
def test_step_config_rejects_non_integer_reorth_period(value):
    with pytest.raises(ValueError, match="^reorth_period must be an integer"):
        StepConfig(reorth_period=value)


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


# ---------------------------------------------------------------------------
# the finite-update check


def _whole_basis_rule(U, x, cfg):
    """``(updated, skipped, failed)`` of ``core._step``, checking every entry of each updated basis.

    The step's arithmetic through the pieces of ``core``, with a row failed when ``np.isfinite`` of its (n, d)
    update is not all true, in place of the check on the update's factors.
    """
    w, p, r = core._project(U, x)
    w_norm, p_norm, r_norm = (np.sqrt(np.vecdot(a, a)) for a in (w, p, r))
    tol = core._SKIP_NORM_TOL
    skipped = (w_norm <= tol) | (p_norm <= tol) | (r_norm <= tol)
    if skipped.all():
        return U, skipped, np.zeros_like(skipped)
    w_norm, p_norm, r_norm = w_norm + skipped, p_norm + skipped, r_norm + skipped
    alpha = 0.0
    if cfg.mode is not StepMode.GREEDY_NOISELESS:
        alpha = core._alpha(cfg, np.vecdot(x, x), np.float_power(r_norm, 2), *U.shape[-2:], None)
    theta = core._theta(alpha, r_norm, p_norm)
    updated = core._rotate(U, w / w_norm[..., None], p / p_norm[..., None], r / r_norm[..., None], theta)
    np.copyto(updated, U, where=skipped[..., None, None])
    return updated, skipped, ~np.isfinite(updated).all(axis=(-2, -1))


def _edge_stack(rng, n, d):
    """A basis (shared or one per row) and 1-4 observations, with rows and entries at the edges of float64."""
    rows = int(rng.integers(1, 5))
    shared = bool(rng.integers(2))
    U = np.stack([random_orthonormal(n, d, rng) for _ in range(1 if shared else rows)])
    x = rng.standard_normal((rows, n))
    for i in range(rows):
        kind = rng.choice(4, p=[0.55, 0.15, 0.15, 0.15])
        if kind == 1:  # inside the span: a skipped row
            x[i] = U[0 if shared else i] @ rng.standard_normal(d)
        elif kind == 2:
            x[i] = 0.0
        elif kind == 3:
            x[i] *= 1e155
    for _ in range(rng.choice(3, p=[0.7, 0.2, 0.1])):  # non-finite, huge or subnormal entries in x or in U
        value = rng.choice([np.nan, np.inf, -np.inf, 1e300, 1e-320])
        target = x if rng.integers(2) else U
        target[tuple(rng.integers(size) for size in target.shape)] = value
    U = np.ascontiguousarray(U.swapaxes(-1, -2)).swapaxes(-1, -2)  # column-major, as the package's bases
    if shared:
        U = U[0]
    if rows == 1 and rng.integers(2):
        x = x[0]  # one observation (n,)
    return U, x


@pytest.mark.parametrize("cfg", [GREEDY, StepConfig(mode=StepMode.PRACTICAL_NOISY, sigma_sq=1e-3, reorth_period=None)],
                         ids=["greedy", "practical"])
def test_finite_check_on_the_factors_equals_the_check_on_the_update(cfg):
    """``_step`` flags a row failed exactly when its updated basis holds a non-finite entry; the bases are the same."""
    rng = np.random.default_rng(41)
    failing = 0
    with np.errstate(all="ignore"):
        for _ in range(400):
            U, x = _edge_stack(rng, 12, 3)
            expected = _whole_basis_rule(U, x, cfg)
            got = core._step(U, x, cfg)[-3:]
            assert np.array_equal(got[0], expected[0], equal_nan=True) and np.array_equal(got[1], expected[1])
            assert np.array_equal(got[2], expected[2])
            failing += bool(expected[2].any())
    assert 100 < failing < 300, failing


def test_rotate_update_keeps_its_contract():
    """``rotate_update`` returns the step's update, and returns a non-finite one without raising."""
    rng = np.random.default_rng(43)
    ubar, u, v = noiseless_case(rng)
    out = grouse_step(u, v, GREEDY)
    assert np.array_equal(rotate_update(u, out.w, out.p, out.r, out.theta), out.updated)
    assert np.isnan(rotate_update(u, out.w, out.p, out.r, np.nan)).all()


# ---------------------------------------------------------------------------
# the ufunc buffer


def test_step_scopes_its_ufunc_buffer(monkeypatch):
    """The update runs under ``core._UFUNC_BUFSIZE``, and the caller's buffer size is back after every step.

    A caller that set its own size inside ``np.errstate`` reads it again after a stacked step with a non-finite row,
    a ``Tracker.update`` that raises, a ``grouse_step`` and each ``next()`` of a two-trial lock-step stack.
    """
    import grouse.harness
    from grouse.harness import ExperimentConfig

    seen = []
    rotate = core._rotate
    monkeypatch.setattr(core, "_rotate", lambda *args: seen.append(np.getbufsize()) or rotate(*args))
    rng = np.random.default_rng(44)
    u, x = random_orthonormal(20, 2, rng), rng.standard_normal((2, 20))
    bases = np.stack([u, u])
    bases[1, 3, 1] = np.inf
    tracker = Tracker(u.copy(), GREEDY)
    tracker.basis[3, 1] = np.inf
    stack = grouse.harness._run_stack(ExperimentConfig(n=20, d=2, trials=2, seed=4, max_iters=30), [0, 1], None)
    with np.errstate():
        np.setbufsize(4096)
        assert core._step(bases, x, GREEDY)[-1].tolist() == [False, True]
        assert np.getbufsize() == 4096
        with pytest.raises(ValueError, match="^update produced non-finite entries$"):
            tracker.update(x[0])
        assert np.getbufsize() == 4096
        grouse_step(u, x[0], GREEDY)
        assert np.getbufsize() == 4096
        ended = []
        for trial_id, _ in stack:  # each next() of the stack
            assert np.getbufsize() == 4096
            ended.append(trial_id)
        assert sorted(ended) == [0, 1] and np.getbufsize() == 4096
    assert np.getbufsize() == 8192 and len(seen) > 3 and set(seen) == {core._UFUNC_BUFSIZE}
