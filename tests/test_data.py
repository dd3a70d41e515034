import math

import numpy as np
import pytest

from grouse.data import (
    PlantedModel,
    _sparse_density,
    _sparse_matrix,
    draw_batch,
    draw_sample,
    export_basis_csv,
    export_samples_csv,
    make_planted,
)
from grouse.subspaces import random_orthonormal


def test_make_planted_reference_scale_sparse_model():
    # n=2000, d=20 with a sparse ground truth is the standard large experiment scale
    rng = np.random.default_rng(0)
    model = make_planted(2000, 20, 1e-3, sparse=True, rng=rng)
    assert np.max(np.abs(model.ubar.T @ model.ubar - np.eye(20))) <= 1e-12
    assert model.sparsity == pytest.approx(max(math.log(2000) / 2000, 40 / 2000))


def test_make_planted_dense():
    rng = np.random.default_rng(1)
    model = make_planted(100, 5, 0.0, sparse=False, rng=rng)
    assert model.sparsity is None
    assert model.n == 100 and model.d == 5


def test_make_planted_rejects_bad_args():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError):
        make_planted(5, 5, 0.0, sparse=False, rng=rng)
    with pytest.raises(ValueError):
        make_planted(10, 2, -0.1, sparse=False, rng=rng)


def test_noiseless_samples_have_zero_noise():
    rng = np.random.default_rng(3)
    model = make_planted(50, 4, 0.0, sparse=True, rng=rng)
    for _ in range(10):
        sample = draw_sample(model, rng)
        np.testing.assert_array_equal(sample.xi, 0.0)
        np.testing.assert_array_equal(sample.x, sample.v)
        assert np.linalg.norm(sample.v) == pytest.approx(1.0, abs=1e-12)


def test_sample_decomposition_invariants():
    rng = np.random.default_rng(4)
    model = make_planted(80, 6, 1e-2, sparse=True, rng=rng)
    for _ in range(50):
        sample = draw_sample(model, rng)
        np.testing.assert_array_equal(sample.x, sample.v + sample.xi)
        out_of_span = sample.v - model.ubar @ (model.ubar.T @ sample.v)
        assert np.linalg.norm(out_of_span) <= 1e-10 * np.linalg.norm(sample.v)
        np.testing.assert_allclose(model.ubar @ sample.s, sample.v, atol=1e-12)


def test_sparse_density_matches_target():
    """Nonzero fraction of the pre-orthonormalization draw matches the chosen density."""
    n, d, models = 1000, 5, 100
    density = max(math.log(n) / n, 2 * d / n)
    rng = np.random.default_rng(5)
    fractions = []
    for _ in range(models):
        mask = rng.random((n, d)) < density
        m = rng.standard_normal((n, d)) * mask
        empty = ~mask.any(axis=0)
        while empty.any():
            k = int(empty.sum())
            mask_k = rng.random((n, k)) < density
            m[:, empty] = rng.standard_normal((n, k)) * mask_k
            empty[np.flatnonzero(empty)] = ~mask_k.any(axis=0)
        fractions.append(np.count_nonzero(m) / (n * d))
    se = math.sqrt(density * (1 - density) / (n * d * models))
    assert abs(np.mean(fractions) - density) <= 3 * se


def test_sparse_model_is_qr_of_sparse_draw():
    for seed, (n, d) in enumerate(((4, 3), (30, 3), (200, 5), (1000, 20))):
        model = make_planted(n, d, 0.0, sparse=True, rng=np.random.default_rng(seed))
        density = _sparse_density(n, d)
        q, _ = np.linalg.qr(_sparse_matrix(n, d, density, np.random.default_rng(seed)))
        np.testing.assert_array_equal(model.ubar, q)
        assert model.sparsity == density


def test_noise_energy_ratio_is_sigma_sq():
    """E[||xi||^2 / ||v||^2] = sigma^2 under unit-norm signals."""
    rng = np.random.default_rng(6)
    sigma_sq = 0.04
    model = make_planted(100, 5, sigma_sq, sparse=False, rng=rng)
    batch = draw_batch(model, 100_000, rng)
    ratios = np.einsum("ni,ni->n", batch.xi, batch.xi)  # ||v|| = 1
    se = ratios.std(ddof=1) / math.sqrt(len(ratios))
    assert abs(ratios.mean() - sigma_sq) <= 3 * se


def test_noise_splits_against_fixed_basis():
    """E||xi_par||^2 = (d/n) sigma^2 and E||xi_perp||^2 = (1 - d/n) sigma^2."""
    n, d, sigma_sq = 100, 5, 0.04
    rng = np.random.default_rng(7)
    model = make_planted(n, d, sigma_sq, sparse=False, rng=rng)
    basis = random_orthonormal(n, d, rng)
    batch = draw_batch(model, 100_000, rng)
    par = (batch.xi @ basis) @ basis.T
    perp = batch.xi - par
    par_sq = np.einsum("ni,ni->n", par, par)
    perp_sq = np.einsum("ni,ni->n", perp, perp)
    assert abs(par_sq.mean() - d / n * sigma_sq) <= 3 * par_sq.std(ddof=1) / math.sqrt(len(par_sq))
    assert abs(perp_sq.mean() - (1 - d / n) * sigma_sq) <= 3 * perp_sq.std(ddof=1) / math.sqrt(
        len(perp_sq)
    )


def test_unnormalized_signal_energy_is_d():
    rng = np.random.default_rng(8)
    model = make_planted(100, 5, 0.0, sparse=False, rng=rng, normalize_signal=False)
    batch = draw_batch(model, 100_000, rng)
    sq = np.einsum("ni,ni->n", batch.v, batch.v)
    se = sq.std(ddof=1) / math.sqrt(len(sq))
    assert abs(sq.mean() - 5.0) <= 3 * se


def test_stream_determinism():
    for seed in (0, 1234):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        model_a = make_planted(60, 4, 1e-3, sparse=True, rng=a)
        model_b = make_planted(60, 4, 1e-3, sparse=True, rng=b)
        np.testing.assert_array_equal(model_a.ubar, model_b.ubar)
        for _ in range(20):
            np.testing.assert_array_equal(draw_sample(model_a, a).x, draw_sample(model_b, b).x)


def test_bulk_draws_satisfy_invariants():
    """Every sample of a long stream passes its own invariants (vectorized draws)."""
    rng = np.random.default_rng(9)
    model = make_planted(100, 5, 1e-3, sparse=True, rng=rng)
    remaining = 1_000_000
    while remaining:
        size = min(100_000, remaining)
        batch = draw_batch(model, size, rng)
        np.testing.assert_array_equal(batch.x, batch.v + batch.xi)
        norms = np.linalg.norm(batch.v, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12
        out_of_span = batch.v - (batch.v @ model.ubar) @ model.ubar.T
        assert np.max(np.linalg.norm(out_of_span, axis=1)) <= 1e-10
        remaining -= size


def test_model_validation():
    rng = np.random.default_rng(10)
    ubar = random_orthonormal(20, 3, rng)
    with pytest.raises(ValueError):
        PlantedModel(ubar=ubar, sigma_sq=-1.0)
    with pytest.raises(ValueError):
        PlantedModel(ubar=ubar * 2.0, sigma_sq=0.0)
    with pytest.raises(ValueError):
        PlantedModel(ubar=ubar, sigma_sq=0.0, sparsity=1.5)


def test_csv_exports(tmp_path):
    rng = np.random.default_rng(11)
    model = make_planted(12, 3, 0.25, sparse=False, rng=rng)
    basis_path = tmp_path / "ubar.csv"
    export_basis_csv(model, str(basis_path))
    lines = basis_path.read_text().splitlines()
    assert lines[0] == "n,d,sigma_sq"
    assert lines[1] == "12,3,0.25"
    assert len(lines) == 2 + 12
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    np.testing.assert_allclose(parsed, model.ubar, atol=1e-15)

    batch = draw_batch(model, 7, rng)
    samples_path = tmp_path / "xs.csv"
    export_samples_csv(model, batch, str(samples_path))
    lines = samples_path.read_text().splitlines()
    assert lines[0] == "n,d,sigma_sq"
    assert len(lines) == 2 + 7
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    np.testing.assert_allclose(parsed, batch.x, atol=1e-15)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_model_rejects_non_finite_noise(value):
    rng = np.random.default_rng(12)
    ubar = random_orthonormal(20, 3, rng)
    with pytest.raises(ValueError, match="sigma_sq"):
        PlantedModel(ubar=ubar, sigma_sq=value)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="sigma_sq"):
        make_planted(20, 3, value, sparse=False, rng=rng)
    assert rng.bit_generator.state == state  # rejected before any draw
