import math

import numpy as np
import pytest

from grouse import bounds
from grouse.bounds import (
    BoundParams,
    RateCheck,
    detect_phases,
    expected_eps_rate_bound,
    expected_zeta_rate_bound,
    k1_bound,
    k2_bound,
    k_total_bound,
    mc_eps_decrease_check,
    mc_eps_rate_check,
    mc_zeta_rate_check,
    mc_zeta_ratio_check,
    mu0,
)
from grouse.core import OracleInfo, StepConfig, StepMode, grouse_step
from grouse.data import draw_sample, make_planted
from grouse.subspaces import (
    MetricSample,
    _discrepancy,
    _similarity,
    basis_with_angles,
    basis_with_similarity,
    determinant_similarity,
    frobenius_discrepancy,
    principal_angles,
)

REFERENCE = BoundParams(n=200, d=5, rho=0.1, rho_prime=0.1, eps_star=1e-4)


def _sample(t, zeta, eps):
    return MetricSample(t=t, zeta=zeta, epsilon=eps, cos_angles=np.ones(1))


# ---------------------------------------------------------------------------
# bound formulas


def test_mu0_reference_value():
    # 1 + (log(0.9) + 5 log(e/5)) / (5 log 200)
    assert mu0(REFERENCE) == pytest.approx(0.8809980656223966, rel=1e-12)


def test_mu0_unit_dimension_closed_form():
    # at d=1 and c0=1 with vanishing failure probability: 1 + 1/log(n)
    for n in (3, 10, 1000):
        p = BoundParams(n=n, d=1, rho_prime=1e-12, eps_star=0.5)
        assert mu0(p) == pytest.approx(1.0 + 1.0 / math.log(n), rel=1e-9)


def test_mu0_increases_with_n_when_numerator_negative():
    values = [
        mu0(BoundParams(n=n, d=5, rho_prime=0.1, eps_star=1e-4))
        for n in (50, 200, 1000, 10_000)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(v < 1.0 for v in values)


def test_k1_bound_reference_value():
    assert k1_bound(REFERENCE) == pytest.approx(5858.098225482874, rel=1e-12)


def test_k1_bound_rho_prime_scaling():
    halved = BoundParams(n=200, d=5, rho=0.1, rho_prime=0.05, eps_star=1e-4)
    # the d^3 / rho' term dominates, so halving rho' slightly more than doubles the bound
    assert k1_bound(halved) > 2.0 * k1_bound(REFERENCE)
    assert k1_bound(halved) < 2.1 * k1_bound(REFERENCE)


def test_k1_bound_unit_dimension():
    p = BoundParams(n=50, d=1, rho_prime=0.9999999, rho=1e-9, eps_star=0.5)
    assert k1_bound(p) == pytest.approx(2.0 * mu0(p) * math.log(50), rel=1e-6)


def test_k2_bound_reference_value():
    assert k2_bound(REFERENCE) == pytest.approx(115.12925464970229, rel=1e-12)
    assert k_total_bound(REFERENCE) == pytest.approx(5973.227480132577, rel=1e-12)


def test_k2_bound_vanishes_at_threshold():
    p = BoundParams(n=100, d=5, rho=0.4999, eps_star=2.0, rho_prime=0.5)
    value = k2_bound(p)
    assert 0.0 < value < 1e-2


def test_k2_bound_linear_in_d():
    a = BoundParams(n=100, d=4, rho=0.1, eps_star=1e-4)
    b = BoundParams(n=100, d=8, rho=0.1, eps_star=1e-4)
    assert k2_bound(b) == pytest.approx(2.0 * k2_bound(a), rel=1e-12)


def test_k2_bound_rejects_invalid_target():
    p = BoundParams(n=100, d=5, rho=0.5, eps_star=2.5, rho_prime=0.4)
    with pytest.raises(ValueError):
        k2_bound(p)


def test_bound_params_validation():
    with pytest.raises(ValueError):
        BoundParams(n=10, d=10)
    with pytest.raises(ValueError):
        BoundParams(n=100, d=5, rho=0.6, rho_prime=0.5)
    with pytest.raises(ValueError):
        BoundParams(n=100, d=5, eps_star=5.0)
    p = BoundParams(n=100, d=7)
    assert p.tau1 == pytest.approx(math.log(7))
    assert p.tau2 == pytest.approx(math.log(7))


# ---------------------------------------------------------------------------
# expected-rate bounds


def test_zeta_rate_noiseless_form():
    p = BoundParams(n=500, d=10, sigma_sq=0.0)
    for zeta in (0.01, 0.3, 0.9):
        assert expected_zeta_rate_bound(zeta, p) == pytest.approx(
            (1.0 + (1.0 - zeta) / 10) * zeta, rel=1e-12
        )


def test_zeta_rate_fixed_point_at_one():
    assert expected_zeta_rate_bound(1.0, BoundParams(n=500, d=10, sigma_sq=0.0)) == 1.0
    assert expected_zeta_rate_bound(1.0, BoundParams(n=500, d=10, sigma_sq=0.5)) == 1.0


def test_zeta_rate_reference_value():
    # n=2000, d=20, sigma^2=1e-3, zeta=0.1
    p = BoundParams(n=2000, d=20, sigma_sq=1e-3)
    beta0 = 1.0 / (1.0 + 20 / 2000 * 1e-3)
    gap = 0.9 / 20
    expected = (1.0 + beta0 * gap * (1.0 - 1e-3 / (gap + 1e-3))) * 0.1
    assert expected_zeta_rate_bound(0.1, p) == pytest.approx(expected, rel=1e-14)
    assert expected_zeta_rate_bound(0.1, p) == pytest.approx(0.10440212989174456, rel=1e-12)


def test_zeta_rate_monotone_nonincreasing_in_noise():
    for zeta in (0.05, 0.5, 0.95):
        values = [
            expected_zeta_rate_bound(zeta, BoundParams(n=500, d=10, sigma_sq=s))
            for s in (0.0, 1e-5, 1e-3, 1e-1, 1.0, 10.0)
        ]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def test_zeta_rate_never_predicts_regression():
    for zeta in np.linspace(1e-6, 1.0, 25):
        for sigma_sq in (0.0, 1e-3, 1.0):
            p = BoundParams(n=300, d=6, sigma_sq=sigma_sq)
            assert expected_zeta_rate_bound(float(zeta), p) >= zeta


def test_eps_rate_noiseless_form():
    p = BoundParams(n=500, d=10, sigma_sq=0.0)
    for eps, cos_sq in ((0.5, 0.9), (2.0, 0.5)):
        assert expected_eps_rate_bound(eps, cos_sq, p) == pytest.approx(
            (1.0 - cos_sq / 10) * eps, rel=1e-12
        )
    # inside the local region the noiseless contraction is at least 1 - 1/(2d)
    assert expected_eps_rate_bound(1.0, 0.5, p) <= (1.0 - 1.0 / 20) * 1.0 + 1e-15


def test_eps_rate_noise_ball_threshold_algebra():
    # at eps = d^2 sigma^2 with cos^2 > 1/2 the contraction factor stays below
    # 1 - (1/2 - 1/d)/d for large n
    n, d, sigma_sq = 10**6, 10, 1e-4
    eps = d**2 * sigma_sq
    p = BoundParams(n=n, d=d, sigma_sq=sigma_sq)
    factor = expected_eps_rate_bound(eps, 0.5 + 1e-9, p) / eps
    assert factor <= 1.0 - (0.5 - 1.0 / d) / d
    assert factor == pytest.approx(1.0 - (0.5 - 1.0 / d) / d, rel=2e-2)


# ---------------------------------------------------------------------------
# phase detection


def test_detect_phases_initial_point_already_local():
    p = BoundParams(n=100, d=5, eps_star=1e-4)
    trajectory = [_sample(0, 0.6, 0.5), _sample(1, 0.7, 1e-5)]
    report = detect_phases(trajectory, p)
    assert report.k1 == 0
    assert report.k2 == 1
    assert report.target_zeta == 0.5
    assert report.target_eps == 1e-4


def test_detect_phases_immediate_convergence():
    p = BoundParams(n=100, d=5, eps_star=1e-4)
    report = detect_phases([_sample(0, 1.0, 0.0)], p)
    assert report.k1 == 0 and report.k2 == 0


def test_detect_phases_targets_never_reached():
    p = BoundParams(n=100, d=5, eps_star=1e-4)
    report = detect_phases([_sample(0, 0.1, 3.0), _sample(5, 0.2, 2.5)], p)
    assert report.k1 is None and report.k2 is None
    report = detect_phases([_sample(0, 0.9, 3.0), _sample(5, 0.9, 2.5)], p)
    assert report.k1 == 0 and report.k2 is None


def test_detect_phases_noisy_targets():
    p = BoundParams(n=5000, d=10, sigma_sq=1e-4, eps_star=1e-4,
                    tau1=math.log(10), tau2=math.log(10))
    report = detect_phases([_sample(0, 0.2, 5.0)], p)
    assert report.target_zeta == pytest.approx(0.5)  # exp(-4.6e-6) caps at 1/2
    assert report.target_eps == pytest.approx(1e-4)  # max(sigma^2, tau1 d^2 sigma^2 / n)
    # a larger noise level pulls the similarity target below 1/2
    loud = BoundParams(n=100, d=10, sigma_sq=1.0, eps_star=1e-4, tau2=math.log(10))
    report = detect_phases([_sample(0, 0.2, 5.0)], loud)
    assert report.target_zeta == pytest.approx(math.exp(-math.log(10) * 100 * 1.0 / 100))
    assert report.target_zeta < 0.5


def test_detect_phases_reads_an_iterator_once():
    """An iterator of rows gives the split its list gives: the order check does not use it up."""
    p = BoundParams(n=100, d=5, eps_star=1e-4)
    rows = [_sample(0, 0.1, 3.0), _sample(10, 0.9, 1e-5)]
    report = detect_phases(iter(rows), p)
    assert report == detect_phases(rows, p)
    assert report.k1 == 10 and report.k2 == 0
    with pytest.raises(ValueError, match="strictly increasing"):
        detect_phases(iter(rows[::-1]), p)
    with pytest.raises(ValueError, match="non-empty"):
        detect_phases(iter([]), p)


def test_detect_phases_requires_increasing_time():
    p = BoundParams(n=100, d=5)
    with pytest.raises(ValueError):
        detect_phases([_sample(0, 0.1, 3.0), _sample(0, 0.2, 2.0)], p)
    with pytest.raises(ValueError):
        detect_phases([], p)


# ---------------------------------------------------------------------------
# Monte Carlo verification of the expected-rate bounds


def test_zeta_rate_bound_holds_at_fixed_iterate():
    rng = np.random.default_rng(20)
    n, d, sigma_sq = 500, 10, 1e-3
    model = make_planted(n, d, sigma_sq, sparse=True, rng=rng)
    basis = basis_with_similarity(model.ubar, 0.1, rng)
    check = mc_zeta_rate_check(model, basis, 2000, rng)
    assert check.passed
    assert check.observed_mean >= check.bound  # holds with large slack, not just -3 se


def test_zeta_rate_bound_holds_for_uneven_spectra():
    rng = np.random.default_rng(21)
    n, d, sigma_sq = 300, 6, 1e-2
    model = make_planted(n, d, sigma_sq, sparse=False, rng=rng)
    cosines = np.array([0.99, 0.9, 0.7, 0.5, 0.3, 0.2])
    basis = basis_with_angles(model.ubar, cosines, rng)
    check = mc_zeta_rate_check(model, basis, 2000, rng)
    assert check.passed


def test_eps_rate_bound_holds_at_fixed_iterate():
    rng = np.random.default_rng(22)
    n, d, sigma_sq = 500, 10, 1e-3
    model = make_planted(n, d, sigma_sq, sparse=True, rng=rng)
    basis = basis_with_similarity(model.ubar, 0.6, rng)
    check = mc_eps_rate_check(model, basis, 2000, rng)
    assert check.passed
    assert check.observed_mean <= check.bound + 3 * check.std_err


def test_zeta_ratio_identity_lower_bound():
    rng = np.random.default_rng(23)
    n, d, sigma_sq = 400, 8, 1e-3
    model = make_planted(n, d, sigma_sq, sparse=True, rng=rng)
    basis = basis_with_similarity(model.ubar, 0.3, rng)
    check = mc_zeta_ratio_check(model, basis, 2000, rng)
    assert check.passed


def test_eps_decrease_outside_noise_ball():
    rng = np.random.default_rng(24)
    n, d, sigma_sq = 500, 10, 1e-3
    model = make_planted(n, d, sigma_sq, sparse=True, rng=rng)
    basis = basis_with_similarity(model.ubar, 0.6, rng)
    assert frobenius_discrepancy(basis, model.ubar) >= d**2 * sigma_sq
    check = mc_eps_decrease_check(model, basis, 2000, rng)
    assert check.passed
    assert check.observed_mean > 0


def test_eps_decrease_check_rejects_inside_noise_ball():
    rng = np.random.default_rng(25)
    n, d, sigma_sq = 100, 10, 1e-3
    model = make_planted(n, d, sigma_sq, sparse=False, rng=rng)
    basis = basis_with_similarity(model.ubar, 0.999, rng)
    with pytest.raises(ValueError):
        mc_eps_decrease_check(model, basis, 100, rng)


def test_zeta_checks_reject_unresolved_iterate():
    """A 90-degree principal angle leaves a similarity of pure rounding (about 1e-32)."""
    rng = np.random.default_rng(0)
    model = make_planted(50, 3, 1e-3, sparse=False, rng=rng)
    basis = basis_with_angles(model.ubar, np.array([0.9, 0.8, 0.0]), rng)
    with pytest.raises(ValueError, match="unresolved"):
        mc_zeta_ratio_check(model, basis, 50, rng)
    with pytest.raises(ValueError, match="unresolved"):
        mc_zeta_rate_check(model, basis, 50, rng)


def test_eps_rate_check_rejects_the_planted_basis_before_any_draw():
    """At the planted subspace the iterate's discrepancy is 0, where no rate exists; the caller passed no ``eps``."""
    rng = np.random.default_rng(11)
    model = make_planted(50, 3, 1e-3, sparse=False, rng=rng)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"^iterate's eps must lie in \(0, 3\), got 0\.0$"):
        mc_eps_rate_check(model, model.ubar, 10, rng)
    assert rng.bit_generator.state == state


# ---------------------------------------------------------------------------
# reference: the per-draw loop and statistics the mc_* checks must reproduce


def _reference_step_stats(model, basis, n_draws, rng):
    cfg = StepConfig(mode=StepMode.ORACLE_NOISY, sigma_sq=model.sigma_sq)
    zetas = np.empty(n_draws)
    epss = np.empty(n_draws)
    gains = np.empty(n_draws)
    for i in range(n_draws):
        sample = draw_sample(model, rng)
        v_perp = sample.v - basis @ (basis.T @ sample.v)
        oracle = OracleInfo(v_perp_norm_sq=float(v_perp @ v_perp))
        out = grouse_step(basis, sample.x, cfg, oracle=oracle)
        zetas[i] = determinant_similarity(out.updated, model.ubar)
        epss[i] = frobenius_discrepancy(out.updated, model.ubar)
        if out.skipped:
            gains[i] = 0.0
        else:
            gains[i] = (1.0 - out.alpha) ** 2 * float(out.r @ out.r) / float(out.p @ out.p)
    return zetas, epss, gains


def _reference_checks(model, basis, params, n_draws, seed):
    ubar, d = model.ubar, model.d
    zeta_now = determinant_similarity(basis, ubar)
    eps_now = frobenius_discrepancy(basis, ubar)

    zetas, _, _ = _reference_step_stats(model, basis, n_draws, np.random.default_rng(seed))
    mean = float(zetas.mean())
    se = float(zetas.std(ddof=1) / math.sqrt(n_draws))
    bound = expected_zeta_rate_bound(zeta_now, params)
    slack = (mean - bound) / se if se > 0 else math.inf
    zeta_rate = RateCheck(mean, se, bound, n_draws, float(slack), bool(mean >= bound - 3 * se))

    _, epss, _ = _reference_step_stats(model, basis, n_draws, np.random.default_rng(seed))
    cos_sq = float(np.min(principal_angles(basis, ubar)) ** 2)
    bound = expected_eps_rate_bound(eps_now, cos_sq, params)
    mean = float(epss.mean())
    se = float(epss.std(ddof=1) / math.sqrt(n_draws))
    slack = (bound - mean) / se if se > 0 else math.inf
    eps_rate = RateCheck(mean, se, bound, n_draws, float(slack), bool(mean <= bound + 3 * se))

    zetas, _, gains = _reference_step_stats(model, basis, n_draws, np.random.default_rng(seed))
    ratios = zetas / zeta_now
    mean = float(ratios.mean())
    bound = 1.0 + float(gains.mean())
    se = float(math.sqrt(ratios.var(ddof=1) / n_draws + gains.var(ddof=1) / n_draws))
    slack = (mean - bound) / se if se > 0 else math.inf
    zeta_ratio = RateCheck(mean, se, bound, n_draws, float(slack), bool(mean >= bound - 3 * se))

    assert eps_now >= d**2 * model.sigma_sq
    _, epss, _ = _reference_step_stats(model, basis, n_draws, np.random.default_rng(seed))
    decreases = eps_now - epss
    mean = float(decreases.mean())
    se = float(decreases.std(ddof=1) / math.sqrt(n_draws))
    slack = mean / se if se > 0 else math.inf
    eps_decrease = RateCheck(mean, se, 0.0, n_draws, float(slack), bool(mean >= -3 * se))
    return zeta_rate, eps_rate, zeta_ratio, eps_decrease


@pytest.mark.parametrize("seed", [1, 7])
def test_mc_checks_equal_reference_loop(seed):
    n, d, sigma_sq, n_draws = 120, 4, 1e-3, 150
    rng = np.random.default_rng(seed)
    model = make_planted(n, d, sigma_sq, sparse=True, rng=rng)
    basis = basis_with_similarity(model.ubar, 0.4, rng)
    params = BoundParams(n=n, d=d, sigma_sq=sigma_sq)
    expected = _reference_checks(model, basis, params, n_draws, seed + 100)
    got = (
        mc_zeta_rate_check(model, basis, n_draws, np.random.default_rng(seed + 100)),
        mc_eps_rate_check(model, basis, n_draws, np.random.default_rng(seed + 100)),
        mc_zeta_ratio_check(model, basis, n_draws, np.random.default_rng(seed + 100)),
        mc_eps_decrease_check(model, basis, n_draws, np.random.default_rng(seed + 100)),
    )
    assert got == expected


def _assert_kernel_equals_reference_loop(model, basis, n_draws, seed):
    rng = np.random.default_rng(seed)
    zetas, epss, gains = _reference_step_stats(model, basis, n_draws, rng)
    for gram_metric, expected in ((_similarity, zetas), (_discrepancy, epss)):
        kernel_rng = np.random.default_rng(seed)
        values, kernel_gains = bounds._oracle_steps(model, basis, n_draws, kernel_rng, gram_metric)
        assert np.array_equal(values, expected)
        assert np.array_equal(kernel_gains, gains)
        assert kernel_rng.bit_generator.state == rng.bit_generator.state


def _chunk(n, d):
    return max(bounds._MIN_CHUNK, bounds._CHUNK_ELEMENTS // (n * d))


@pytest.mark.parametrize("sigma_sq, sparse, normalize_signal", [
    (0.0, False, True),  # noise-free dense model: the draw takes d normals only
    (1e-2, True, False),
    (1e-3, True, True),
])
def test_oracle_steps_equal_reference_loop(sigma_sq, sparse, normalize_signal):
    """The stacked kernel reproduces the per-draw loop bit for bit on every chunk layout."""
    n, d = 120, 4
    rng = np.random.default_rng(3)
    model = make_planted(n, d, sigma_sq, sparse=sparse, rng=rng, normalize_signal=normalize_signal)
    basis = basis_with_similarity(model.ubar, 0.3, rng)
    chunk = _chunk(n, d)
    for n_draws in (5, chunk, 2 * chunk + 7):
        _assert_kernel_equals_reference_loop(model, basis, n_draws, seed=n_draws)


def test_oracle_steps_equal_reference_loop_at_large_size():
    n, d = 2000, 20
    rng = np.random.default_rng(4)
    model = make_planted(n, d, 1e-3, sparse=False, rng=rng)
    basis = basis_with_similarity(model.ubar, 0.2, rng)
    assert _chunk(n, d) == bounds._MIN_CHUNK
    _assert_kernel_equals_reference_loop(model, basis, 2 * bounds._MIN_CHUNK + 1, seed=5)


def test_oracle_steps_all_skipped():
    """At the true subspace without noise every residual vanishes: every step is skipped."""
    rng = np.random.default_rng(6)
    model = make_planted(60, 3, 0.0, sparse=True, rng=rng)
    _assert_kernel_equals_reference_loop(model, model.ubar, 30, seed=7)
    values, gains = bounds._oracle_steps(model, model.ubar, 30, rng, _similarity)
    assert np.all(gains == 0.0)
    assert np.all(values == determinant_similarity(model.ubar, model.ubar))


def test_oracle_steps_reject_non_finite_update():
    rng = np.random.default_rng(8)
    model = make_planted(50, 3, 1e-3, sparse=False, rng=rng)
    basis = basis_with_similarity(model.ubar, 0.3, rng) * 1e200
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            _reference_step_stats(model, basis, 10, np.random.default_rng(9))
        for gram_metric in (_similarity, _discrepancy):
            with pytest.raises(ValueError, match="non-finite"):
                bounds._oracle_steps(model, basis, 10, np.random.default_rng(9), gram_metric)


@pytest.mark.parametrize("n_draws", [0, 1])
def test_mc_checks_need_two_draws(n_draws):
    """A mean with a standard error needs two draws; fewer fail before the generator is used."""
    rng = np.random.default_rng(10)
    n, d, sigma_sq = 50, 3, 1e-3
    model = make_planted(n, d, sigma_sq, sparse=False, rng=rng)
    basis = basis_with_similarity(model.ubar, 0.3, rng)
    state = rng.bit_generator.state
    for check in (lambda: mc_zeta_rate_check(model, basis, n_draws, rng),
                  lambda: mc_eps_rate_check(model, basis, n_draws, rng),
                  lambda: mc_zeta_ratio_check(model, basis, n_draws, rng),
                  lambda: mc_eps_decrease_check(model, basis, n_draws, rng)):
        with pytest.raises(ValueError, match="n_draws"):
            check()
        assert rng.bit_generator.state == state


@pytest.mark.parametrize("field", ["sigma_sq", "c0", "tau1", "tau2"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_bound_params_reject_non_finite_values(field, value):
    with pytest.raises(ValueError, match=field):
        BoundParams(n=100, d=5, **{field: value})


@pytest.mark.parametrize(("field", "value"), [("n", 60.0), ("n", 100.5), ("d", True), ("d", 2.0), ("d", 4.5)])
def test_bound_params_reject_non_integer_dimensions(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        BoundParams(**{"n": 100, "d": 2, field: value})


@pytest.mark.parametrize("above", [True, False])
def test_rate_check_without_spread_signs_its_slack_by_the_margin(above):
    """With a zero standard error the slack is +inf at a margin >= 0 and -inf at a negative one.

    The rates properties gate on ``-slack_se``, so a mean on the wrong side of its bound must fail them.
    """
    inside, outside = (2.0, 0.0) if above else (0.0, 2.0)
    for mean, slack, passed in ((inside, math.inf, True), (1.0, math.inf, True), (outside, -math.inf, False)):
        check = bounds._rate_check(mean, 0.0, 1.0, 2, above=above)
        assert (check.slack_se, check.passed) == (slack, passed)
