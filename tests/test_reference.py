"""The step and the draw against independent one-observation references, bit for bit.

The references restate the arithmetic of a single step and a single draw
with 1-D numpy products, ``np.linalg.norm`` and Python-float step sizes,
so they share no code with the package's step and draw, which run over
the leading axes of their inputs.
"""

import numpy as np
import pytest

from grouse import core
from grouse.core import OracleInfo, StepConfig, StepMode, grouse_step
from grouse.data import draw_batch, draw_sample, make_planted
from grouse.subspaces import basis_with_similarity, random_orthonormal


def _reference_step(U, x, cfg, oracle=None, nonskipped_steps=None):
    """(w, p, r, alpha, theta, updated, skipped) of one step, in 1-D arithmetic."""
    w = U.T @ x
    p = U @ w
    r = x - p
    w_norm, p_norm, r_norm = np.linalg.norm(w), np.linalg.norm(p), np.linalg.norm(r)
    if min(w_norm, p_norm, r_norm) <= cfg.skip_norm_tol:
        return w, p, r, 0.0, 0.0, U, True
    n, d = U.shape
    x_norm_sq, r_norm_sq = float(x @ x), float(r_norm**2)
    if cfg.mode is StepMode.GREEDY_NOISELESS:
        alpha = 0.0
    else:
        if cfg.mode is StepMode.PRACTICAL_NOISY:
            raw = cfg.c * cfg.sigma_sq / (1.0 + cfg.sigma_sq) * (1.0 - d / n) * x_norm_sq / r_norm_sq
        else:
            raw = 1.0 - oracle.v_perp_norm_sq / r_norm_sq
        alpha = float(min(max(raw, 0.0), 1.0))
    theta = float(np.arctan((1.0 - alpha) * r_norm / p_norm))
    p_hat = p / p_norm
    y_hat = np.cos(theta) * p_hat + np.sin(theta) * (r / r_norm)
    updated = U + np.outer(y_hat - p_hat, w / w_norm)
    if (cfg.reorth_period is not None and nonskipped_steps is not None
            and (nonskipped_steps + 1) % cfg.reorth_period == 0):
        updated = np.linalg.qr(updated)[0]
    return w, p, r, alpha, theta, updated, False


def _reference_draw(model, rng):
    """(x, v, s, xi) of one draw, with one ``standard_normal`` call for the coefficients and one for the noise."""
    n, d = model.n, model.d
    s = rng.standard_normal(d)
    v = model.ubar @ s
    if model.normalize_signal:
        scale = np.linalg.norm(v)
        v = v / scale
        s = s / scale
    xi = rng.standard_normal(n) * np.sqrt(model.sigma_sq / n) if model.sigma_sq > 0 else np.zeros(n)
    return v + xi, v, s, xi


def _assert_step_equals_reference(got, expected):
    w, p, r, alpha, theta, updated, skipped = expected
    assert np.array_equal(got.w, w)
    assert np.array_equal(got.p, p)
    assert np.array_equal(got.r, r)
    assert got.alpha == alpha
    assert got.theta == theta
    assert np.array_equal(got.updated, updated)
    assert got.skipped == skipped


_CONFIGS = {
    "greedy": StepConfig(),
    "practical": StepConfig(mode=StepMode.PRACTICAL_NOISY, sigma_sq=1e-2, c=1.5),
    "oracle": StepConfig(mode=StepMode.ORACLE_NOISY, sigma_sq=1e-2),
}


@pytest.mark.parametrize("schedule", sorted(_CONFIGS))
@pytest.mark.parametrize("n, d", [(200, 5), (37, 3), (1000, 12)])
def test_step_equals_reference(schedule, n, d):
    cfg = _CONFIGS[schedule]
    rng = np.random.default_rng(n + d)
    model = make_planted(n, d, cfg.sigma_sq, sparse=False, rng=rng)
    basis = basis_with_similarity(model.ubar, 0.2, rng)
    for _ in range(40):
        sample = draw_sample(model, rng)
        oracle = OracleInfo.from_signal(basis, sample.v)
        got = grouse_step(basis, sample.x, cfg, oracle=oracle)
        _assert_step_equals_reference(got, _reference_step(basis, sample.x, cfg, oracle))
        basis = got.updated


@pytest.mark.parametrize("schedule", sorted(_CONFIGS))
def test_skipped_step_equals_reference(schedule):
    cfg = _CONFIGS[schedule]
    rng = np.random.default_rng(1)
    basis = random_orthonormal(30, 3, rng)
    x = basis @ rng.standard_normal(3)  # inside the span: no residual
    oracle = OracleInfo(v_perp_norm_sq=0.0)
    got = grouse_step(basis, x, cfg, oracle=oracle)
    _assert_step_equals_reference(got, _reference_step(basis, x, cfg, oracle))
    assert got.skipped and got.updated is basis


@pytest.mark.parametrize("schedule", sorted(_CONFIGS))
def test_reorth_step_equals_reference(schedule):
    cfg = StepConfig(mode=_CONFIGS[schedule].mode, sigma_sq=1e-2, reorth_period=3)
    rng = np.random.default_rng(2)
    model = make_planted(80, 4, 1e-2, sparse=True, rng=rng)
    basis = random_orthonormal(80, 4, rng)
    sample = draw_sample(model, rng)
    oracle = OracleInfo.from_signal(basis, sample.v)
    got = grouse_step(basis, sample.x, cfg, oracle=oracle, nonskipped_steps=2)
    _assert_step_equals_reference(got, _reference_step(basis, sample.x, cfg, oracle, nonskipped_steps=2))


def test_oracle_energy_equals_reference():
    rng = np.random.default_rng(3)
    basis = random_orthonormal(50, 4, rng)
    v = rng.standard_normal(50)
    v_perp = v - basis @ (basis.T @ v)
    assert OracleInfo.from_signal(basis, v).v_perp_norm_sq == float(v_perp @ v_perp)


@pytest.mark.parametrize("sigma_sq, normalize_signal", [(1e-3, True), (1e-3, False), (0.0, True), (0.0, False)])
def test_draw_equals_reference(sigma_sq, normalize_signal):
    model = make_planted(60, 4, sigma_sq, sparse=True, rng=np.random.default_rng(4),
                         normalize_signal=normalize_signal)
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(20):
        sample = draw_sample(model, rng)
        expected = _reference_draw(model, ref_rng)
        for got, want in zip((sample.x, sample.v, sample.s, sample.xi), expected):
            assert np.array_equal(got, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("sigma_sq, normalize_signal", [(1e-3, True), (0.0, False)])
def test_draw_batch_rows_equal_successive_draws(sigma_sq, normalize_signal):
    model = make_planted(60, 4, sigma_sq, sparse=False, rng=np.random.default_rng(6),
                         normalize_signal=normalize_signal)
    rng, one_rng = np.random.default_rng(7), np.random.default_rng(7)
    batch = draw_batch(model, 9, rng)
    for i in range(9):
        sample = draw_sample(model, one_rng)
        for got, want in zip((batch.x, batch.v, batch.s, batch.xi), (sample.x, sample.v, sample.s, sample.xi)):
            assert np.array_equal(got[i], want)
    assert rng.bit_generator.state == one_rng.bit_generator.state


@pytest.mark.parametrize("schedule", sorted(_CONFIGS))
def test_stacked_step_rows_equal_single_steps(schedule):
    """A stack of rows at one basis, one of them skipped, equals one step per row."""
    cfg = _CONFIGS[schedule]
    rng = np.random.default_rng(8)
    model = make_planted(120, 4, 1e-2, sparse=True, rng=rng)
    basis = basis_with_similarity(model.ubar, 0.3, rng)
    batch = draw_batch(model, 7, rng)
    x, v = batch.x.copy(), batch.v.copy()
    x[3] = v[3] = basis @ rng.standard_normal(4)  # inside the span: skipped
    w, p, r, p_sq, r_sq, alpha, theta, updated, skipped = core._step(basis, x, cfg, core._energy_outside(basis, v))
    assert skipped.tolist() == [i == 3 for i in range(7)]
    for i in range(7):
        one = grouse_step(basis, x[i], cfg, oracle=OracleInfo.from_signal(basis, v[i]))
        assert np.array_equal(w[i], one.w) and np.array_equal(p[i], one.p) and np.array_equal(r[i], one.r)
        assert p_sq[i] == float(one.p @ one.p) and r_sq[i] == float(one.r @ one.r)
        assert np.array_equal(updated[i], one.updated)
        assert bool(skipped[i]) == one.skipped
        if not one.skipped:
            assert float(np.broadcast_to(alpha, 7)[i]) == one.alpha and float(theta[i]) == one.theta


def test_stacked_step_with_exactly_zero_norms_raises_no_warning():
    """Rows inside and orthogonal to the span have zero residual or projection; they are skipped silently."""
    basis = np.eye(6)[:, :2]
    x = np.array([np.eye(6)[0], np.eye(6)[5], np.arange(1.0, 7.0)])
    cfg = _CONFIGS["practical"]
    with np.errstate(all="raise"):
        _, _, _, _, _, _, _, updated, skipped = core._step(basis, x, cfg)
    assert skipped.tolist() == [True, True, False]
    for i in range(3):
        assert np.array_equal(updated[i], grouse_step(basis, x[i], cfg).updated)
