"""The step, the draw and whole trials against independent one-observation references, bit for bit.

The references restate the arithmetic of a single step, a single draw and
a single iterate's metrics with 1-D numpy products, ``np.linalg.norm`` and
Python-float step sizes, so they share no code with the package's step,
draw and metrics, which run over the leading axes of their inputs.  A
reference trial composes them one observation at a time; the harness
steps a config's trials together.
"""

import dataclasses

import numpy as np
import pytest

import grouse.harness
from grouse import core
from grouse.bounds import detect_phases
from grouse.core import OracleInfo, StepConfig, StepMode, Tracker, grouse_step
from grouse.data import _draw_each, draw_batch, draw_sample, make_planted
from grouse.harness import ExperimentConfig, TrialResult, derive_trial_seed, run_single, run_sweep, run_trajectory
from grouse.subspaces import MetricSample, _column_major, basis_with_angles, basis_with_similarity, random_orthonormal


def _reference_reorth(U):
    """Column-scaled CholeskyQR2 on the columns as rows, column-major.

    Scale the columns by powers of two, then ``Q^T <- inv(cholesky(Q^T Q)) Q^T`` twice.
    """
    _, exponents = np.frexp(np.abs(U).max(axis=0))
    rows = np.ldexp(np.ascontiguousarray(U.T), -exponents[:, None])
    for _ in range(2):
        rows = np.linalg.inv(np.linalg.cholesky(rows @ rows.T)) @ rows
    return rows.T


def _reference_step(U, x, cfg, oracle=None, nonskipped_steps=None):
    """(w, p, r, alpha, theta, updated, skipped) of one step, in 1-D arithmetic on a column-major basis."""
    U = np.asfortranarray(U)
    w = U.T @ x
    p = U @ w
    r = x - p
    w_norm, p_norm, r_norm = np.linalg.norm(w), np.linalg.norm(p), np.linalg.norm(r)
    if min(w_norm, p_norm, r_norm) <= 1e-12:  # the step's skip tolerance
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
    half = np.sin(theta / 2)  # y_hat - p_hat = (cos(theta) - 1) p_hat + sin(theta) r_hat
    direction = -2.0 * half * half * (p / p_norm) + np.sin(theta) * (r / r_norm)
    updated = np.asfortranarray(U + np.outer(direction, w / w_norm))
    if (cfg.reorth_period is not None and nonskipped_steps is not None
            and (nonskipped_steps + 1) % cfg.reorth_period == 0):
        updated = _reference_reorth(updated)
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


def _oracle(cfg, basis, v):
    """The ``OracleInfo`` of the clean signal ``v`` at ``basis`` under the oracle schedule, the one that takes it."""
    return OracleInfo.from_signal(basis, v) if cfg.mode is StepMode.ORACLE_NOISY else None


@pytest.mark.parametrize("schedule", sorted(_CONFIGS))
@pytest.mark.parametrize("n, d", [(200, 5), (37, 3), (1000, 12)])
def test_step_equals_reference(schedule, n, d):
    cfg = _CONFIGS[schedule]
    rng = np.random.default_rng(n + d)
    model = make_planted(n, d, cfg.sigma_sq, sparse=False, rng=rng)
    basis = basis_with_similarity(model.ubar, 0.2, rng)
    for _ in range(40):
        sample = draw_sample(model, rng)
        oracle = _oracle(cfg, basis, sample.v)
        got = grouse_step(basis, sample.x, cfg, oracle=oracle)
        _assert_step_equals_reference(got, _reference_step(basis, sample.x, cfg, oracle))
        basis = got.updated


@pytest.mark.parametrize("schedule", sorted(_CONFIGS))
def test_skipped_step_equals_reference(schedule):
    cfg = _CONFIGS[schedule]
    rng = np.random.default_rng(1)
    basis = random_orthonormal(30, 3, rng)
    x = basis @ rng.standard_normal(3)  # inside the span: no residual
    oracle = OracleInfo(v_perp_norm_sq=0.0) if cfg.mode is StepMode.ORACLE_NOISY else None
    got = grouse_step(basis, x, cfg, oracle=oracle)
    _assert_step_equals_reference(got, _reference_step(basis, x, cfg, oracle))
    assert got.skipped and got.updated is basis


@pytest.mark.parametrize("schedule", sorted(_CONFIGS))
def test_reorth_step_equals_reference(schedule):
    """A ``Tracker``'s first three steps equal the reference given counts 0, 1 and 2: the third re-orthonormalizes."""
    cfg = StepConfig(mode=_CONFIGS[schedule].mode, sigma_sq=1e-2, reorth_period=3)
    rng = np.random.default_rng(2)
    model = make_planted(80, 4, 1e-2, sparse=True, rng=rng)
    tracker = Tracker(random_orthonormal(80, 4, rng), cfg)
    for nonskipped_steps in range(3):
        basis, sample = tracker.basis, draw_sample(model, rng)
        oracle = _oracle(cfg, basis, sample.v)
        got = tracker.update(sample.x, oracle)
        _assert_step_equals_reference(got, _reference_step(basis, sample.x, cfg, oracle, nonskipped_steps))


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


@pytest.mark.parametrize("steps", [1, 5])
@pytest.mark.parametrize("sigma_sq, normalize_signal", [(1e-3, True), (1e-3, False), (0.0, True), (0.0, False)])
def test_draw_each_block_rows_equal_successive_draws(sigma_sq, normalize_signal, steps):
    """Row ``[k, i]`` of a block is the ``k``-th of ``steps`` draws of model ``i`` on its own generator's twin."""
    models = [make_planted(60, 4, sigma_sq, sparse=False, rng=np.random.default_rng(seed),
                           normalize_signal=normalize_signal) for seed in (8, 9, 10)]
    rngs, twins = ([np.random.default_rng(seed) for seed in (11, 12, 13)] for _ in range(2))
    block = _draw_each(_column_major(np.stack([model.ubar for model in models])), sigma_sq, normalize_signal, rngs,
                       steps=steps)
    assert block.x.shape == (steps, 3, 60)
    for i, (model, twin) in enumerate(zip(models, twins)):
        for k in range(steps):
            sample = draw_sample(model, twin)
            for got, want in zip((block.x, block.v, block.s, block.xi), (sample.x, sample.v, sample.s, sample.xi)):
                assert np.array_equal(got[k, i], want)
    assert [rng.bit_generator.state for rng in rngs] == [twin.bit_generator.state for twin in twins]


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
    w, p, r, p_sq, r_sq, alpha, theta, updated, skipped, failed = core._step(
        basis, x, cfg, core._energy_outside(basis, v))
    assert skipped.tolist() == [i == 3 for i in range(7)] and not failed.any()
    for i in range(7):
        one = grouse_step(basis, x[i], cfg, oracle=_oracle(cfg, basis, v[i]))
        assert np.array_equal(w[i], one.w) and np.array_equal(p[i], one.p) and np.array_equal(r[i], one.r)
        assert p_sq[i] == float(one.p @ one.p) and r_sq[i] == float(one.r @ one.r)
        assert np.array_equal(updated[i], one.updated)
        assert bool(skipped[i]) == one.skipped
        if not one.skipped:
            assert float(np.broadcast_to(alpha, 7)[i]) == one.alpha and float(theta[i]) == one.theta


@pytest.mark.parametrize("schedule", sorted(_CONFIGS))
def test_stacked_step_with_one_basis_per_row_equals_single_steps(schedule):
    """A stack of rows, each at its own basis and one of them skipped, equals one step per row."""
    cfg = _CONFIGS[schedule]
    rng = np.random.default_rng(9)
    model = make_planted(120, 4, 1e-2, sparse=False, rng=rng)
    bases = np.stack([basis_with_similarity(model.ubar, zeta, rng) for zeta in (0.1, 0.3, 0.5, 0.7, 0.9)])
    batch = draw_batch(model, 5, rng)
    x, v = batch.x.copy(), batch.v.copy()
    x[2] = v[2] = bases[2] @ rng.standard_normal(4)  # inside its span: skipped
    _, _, _, p_sq, r_sq, alpha, theta, updated, skipped, failed = core._step(
        bases, x, cfg, core._energy_outside(bases, v))
    assert skipped.tolist() == [i == 2 for i in range(5)] and not failed.any()
    for i in range(5):
        one = grouse_step(bases[i], x[i], cfg, oracle=_oracle(cfg, bases[i], v[i]))
        assert p_sq[i] == float(one.p @ one.p) and r_sq[i] == float(one.r @ one.r)
        assert np.array_equal(updated[i], one.updated)
        if not one.skipped:
            assert float(np.broadcast_to(alpha, 5)[i]) == one.alpha and float(theta[i]) == one.theta


def test_stacked_step_with_exactly_zero_norms_raises_no_warning():
    """Rows inside and orthogonal to the span have zero residual or projection; they are skipped silently."""
    basis = np.eye(6)[:, :2]
    x = np.array([np.eye(6)[0], np.eye(6)[5], np.arange(1.0, 7.0)])
    cfg = _CONFIGS["practical"]
    with np.errstate(all="raise"):
        _, _, _, _, _, _, _, updated, skipped, failed = core._step(basis, x, cfg)
    assert skipped.tolist() == [True, True, False] and not failed.any()
    for i in range(3):
        assert np.array_equal(updated[i], grouse_step(basis, x[i], cfg).updated)


def _reference_metric(t, U, ubar):
    gram = ubar.T @ U
    cosines = np.clip(np.linalg.svd(gram, compute_uv=False), 0.0, 1.0)
    epsilon = max(U.shape[1] - float(np.linalg.norm(gram)) ** 2, 0.0)
    return MetricSample(t=t, zeta=min(float(np.linalg.det(gram)) ** 2, 1.0), epsilon=epsilon, cos_angles=cosines)


def _reference_trial(cfg, trial_id, initial_basis=None):
    """(TrialResult, [(sample, theta, alpha, p_norm_sq, r_norm_sq, skipped), ...]) of one trial.

    One reference draw and step at a time.
    """
    ss, derived_seed = derive_trial_seed(cfg.seed, trial_id)
    rng = np.random.default_rng(ss)
    model = make_planted(cfg.n, cfg.d, cfg.sigma_sq, cfg.sparse_ubar, rng)
    basis = np.asfortranarray(initial_basis if initial_basis is not None else random_orthonormal(cfg.n, cfg.d, rng))
    step_cfg, record_every, max_iters = cfg.step_config(), cfg.resolved_record_every(), cfg.resolved_max_iters()
    rows = [(_reference_metric(0, basis, model.ubar), 0.0, 0.0, 0.0, 0.0, False)]
    nonskipped = t = 0
    while rows[-1][0].epsilon > cfg.eps_star and t < max_iters:
        x, v, _, _ = _reference_draw(model, rng)
        v_perp = v - basis @ (basis.T @ v)
        oracle = OracleInfo(v_perp_norm_sq=float(v_perp @ v_perp))
        _, p, r, alpha, theta, basis, skipped = _reference_step(basis, x, step_cfg, oracle, nonskipped)
        nonskipped += not skipped
        t += 1
        if t % record_every == 0 or t == max_iters:
            rows.append((_reference_metric(t, basis, model.ubar), theta, alpha, float(p @ p), float(r @ r), skipped))
    samples = [row[0] for row in rows]
    result = TrialResult(trial_id=trial_id, derived_seed=derived_seed,
                         phase=detect_phases(samples, cfg.bound_params()),
                         final_zeta=samples[-1].zeta, final_eps=samples[-1].epsilon,
                         iters_run=t, skipped_steps=t - nonskipped)
    return result, rows


def _assert_rows_equal_reference(rows, expected):
    assert len(rows) == len(expected)
    for row, (sample, theta, alpha, p_norm_sq, r_norm_sq, skipped) in zip(rows, expected):
        assert (row.t, row.zeta, row.epsilon) == (sample.t, sample.zeta, sample.epsilon)
        assert np.array_equal(row.cos_angles, sample.cos_angles)
        assert (row.p_norm_sq, row.r_norm_sq) == (p_norm_sq, r_norm_sq)
        assert (row.theta, row.alpha, row.skipped) == (theta, alpha, skipped)


_TRIAL_CONFIGS = {
    # sparse ground truth: the trials converge, and stop, at different steps
    "greedy_sparse": ExperimentConfig(n=60, d=3, seed=19, trials=4, sparse_ubar=True),
    # 250 steps cross the reorth point at 100 and 200 non-skipped steps
    "practical_reorth": ExperimentConfig(n=80, d=4, sigma_sq=1e-3, seed=5, trials=3, max_iters=250,
                                         mode=StepMode.PRACTICAL_NOISY),
    "oracle": ExperimentConfig(n=70, d=3, sigma_sq=1e-3, seed=8, trials=3, max_iters=150,
                               mode=StepMode.ORACLE_NOISY, record_every=7),
    # the two configs of the sweep_small benchmark workload
    "sweep_small_greedy": ExperimentConfig(n=200, d=5, seed=1, trials=4, sparse_ubar=True, threads=2),
    "sweep_small_practical": ExperimentConfig(n=150, d=4, sigma_sq=1e-3, seed=1, trials=4, max_iters=500,
                                              mode=StepMode.PRACTICAL_NOISY, threads=2),
}


@pytest.mark.parametrize("name", sorted(_TRIAL_CONFIGS))
def test_trials_equal_reference(name):
    cfg = _TRIAL_CONFIGS[name]
    expected = [_reference_trial(cfg, trial_id) for trial_id in range(cfg.trials)]
    summary = run_sweep([cfg])[0]
    assert not summary.errors
    assert summary.results == [result for result, _ in expected]
    for trial_id, (result, rows) in enumerate(expected):
        got, got_rows = run_trajectory(cfg, trial_id)
        assert got == result
        _assert_rows_equal_reference(got_rows, rows)
    if name == "greedy_sparse":
        assert len({result.iters_run for result, _ in expected}) > 1
    if name == "practical_reorth":
        assert all(result.iters_run - result.skipped_steps >= 200 for result, _ in expected)


def test_trials_without_reorth_equal_reference(monkeypatch):
    """With ``reorth_period=None`` a sweep and a trajectory never re-orthonormalize, finish, and equal the reference."""
    step_config = ExperimentConfig.step_config
    monkeypatch.setattr(ExperimentConfig, "step_config",
                        lambda cfg: dataclasses.replace(step_config(cfg), reorth_period=None))
    monkeypatch.setattr(core, "reorthonormalize", lambda u: pytest.fail("re-orthonormalized"))
    cfg = _TRIAL_CONFIGS["practical_reorth"]
    expected = [_reference_trial(cfg, trial_id) for trial_id in range(cfg.trials)]
    summary = run_sweep([cfg])[0]
    assert not summary.errors
    assert summary.results == [result for result, _ in expected]
    for trial_id, (result, rows) in enumerate(expected):
        got, got_rows = run_trajectory(cfg, trial_id)
        assert got == result
        _assert_rows_equal_reference(got_rows, rows)
    assert all(result.iters_run - result.skipped_steps >= 200 for result, _ in expected)


def test_skipped_steps_equal_reference():
    """Started orthogonal to its ground truth, a noise-free trial skips every step: each observation has w = 0."""
    cfg = ExperimentConfig(n=60, d=4, seed=3, eps_star=1e-30, max_iters=20)
    rng = np.random.default_rng(derive_trial_seed(cfg.seed, 0)[0])
    ubar = make_planted(cfg.n, cfg.d, cfg.sigma_sq, cfg.sparse_ubar, rng).ubar
    start = basis_with_angles(ubar, np.zeros(cfg.d), rng)
    result, rows = _reference_trial(cfg, 0, initial_basis=start)
    got, got_rows = run_trajectory(cfg, 0, initial_basis=start)
    assert got == result
    _assert_rows_equal_reference(got_rows, rows)
    assert result.iters_run == result.skipped_steps == 20


class _NaNAfter:
    """A generator whose ``standard_normal`` draws turn NaN after the first ``draws``.

    A draw is a row of normals: a ``(count,)`` call is one draw and a ``(k, count)`` call ``k`` draws, so the
    same draw turns NaN however the draws are split into calls.
    """

    def __init__(self, rng, draws):
        self._rng, self._draws = rng, draws

    def standard_normal(self, size):
        out = self._rng.standard_normal(size)
        rows = out.reshape(-1, out.shape[-1])  # a view: one draw per row
        rows[max(self._draws, 0):] = np.nan
        self._draws -= len(rows)
        return out


def _wrap_generators(monkeypatch, wrap):
    """Each trial the harness starts steps on ``wrap(trial_id, rng)`` for its generator ``rng``."""
    original = grouse.harness._start_trial

    def wrapped_start(cfg, trial_id, *args, **kwargs):
        derived_seed, rng, model, basis = original(cfg, trial_id, *args, **kwargs)
        return derived_seed, wrap(trial_id, rng), model, basis

    monkeypatch.setattr(grouse.harness, "_start_trial", wrapped_start)


def _poison_trial(monkeypatch, poisoned=1, draws=30):
    """Trial ``poisoned``'s draws turn NaN after its first ``draws`` (by default trial 1's 31st draw is NaN)."""
    _wrap_generators(monkeypatch, lambda trial_id, rng: _NaNAfter(rng, draws) if trial_id == poisoned else rng)


class _CountedCalls:
    """A generator that counts its ``standard_normal`` calls."""

    def __init__(self, rng):
        self._rng, self.calls = rng, 0

    def standard_normal(self, size):
        self.calls += 1
        return self._rng.standard_normal(size)


def test_engine_draws_each_trial_in_blocks_of_sixteen_steps(monkeypatch):
    """A stack of four trials at n = 60 draws 16 steps per generator call: 7 calls for 100 steps, not 100.

    The trials still equal their references, which draw one observation per call.
    """
    generators = {}
    _wrap_generators(monkeypatch, lambda trial_id, rng: generators.setdefault(trial_id, _CountedCalls(rng)))
    cfg = ExperimentConfig(n=60, d=3, sigma_sq=1e-3, seed=5, trials=4, max_iters=100, eps_star=1e-12,
                           mode=StepMode.PRACTICAL_NOISY)
    summary = run_sweep([cfg])[0]
    assert [result.iters_run for result in summary.results] == [100] * 4
    assert {trial_id: generator.calls for trial_id, generator in generators.items()} == {i: 7 for i in range(4)}
    assert summary.results == [_reference_trial(cfg, trial_id)[0] for trial_id in range(4)]


_POISONED = ExperimentConfig(n=80, d=4, sigma_sq=1e-3, seed=5, trials=4, max_iters=120, mode=StepMode.PRACTICAL_NOISY)


def test_trial_failing_mid_stack_leaves_the_others_equal_to_reference(monkeypatch):
    """Trial 1's 31st draw is NaN: it ends with the error of a single step, and trials 0, 2 and 3 run on."""
    _poison_trial(monkeypatch)
    cfg = _POISONED
    summary = run_sweep([cfg])[0]
    assert summary.errors == {1: "ValueError: observation contains non-finite entries"}
    assert summary.results == [_reference_trial(cfg, trial_id)[0] for trial_id in (0, 2, 3)]
    with pytest.raises(ValueError, match="observation contains non-finite entries"):
        run_trajectory(cfg, 1)


def test_trial_failing_after_lower_rows_left_ends_alone(monkeypatch):
    """Trials end both ways in one stack: trial 5 fails at step 27, after trials 1-4 and 6 have converged.

    Alone, the trials stop at steps 29, 25, 23, 23, 23, 30 and 20, so at step 27 trial 5 sits in row 1 of the
    stack, below trial 0; it ends with the error of a single step, and trial 0 runs on to its reference.
    """
    cfg = ExperimentConfig(n=60, d=3, seed=23, trials=7, sparse_ubar=True)
    expected = [_reference_trial(cfg, trial_id)[0] for trial_id in range(cfg.trials)]
    assert [result.iters_run for result in expected] == [29, 25, 23, 23, 23, 30, 20]
    _poison_trial(monkeypatch, poisoned=5, draws=26)
    summary = run_sweep([cfg])[0]
    assert summary.errors == {5: "ValueError: observation contains non-finite entries"}
    assert summary.results == expected[:5] + expected[6:]


def test_oracle_trial_failing_mid_stack_fails_its_oracle_check(monkeypatch):
    """In oracle mode trial 1's NaN draw fails ``grouse_step``'s first input check, the oracle energy's."""
    _poison_trial(monkeypatch)
    cfg = dataclasses.replace(_POISONED, mode=StepMode.ORACLE_NOISY)
    summary = run_sweep([cfg])[0]
    assert summary.errors == {1: "ValueError: v_perp_norm_sq is non-finite: nan"}
    assert summary.results == [_reference_trial(cfg, trial_id)[0] for trial_id in (0, 2, 3)]


def test_failed_trajectory_leaves_no_csv(monkeypatch, tmp_path):
    """Trial 1 fails mid-run while its CSV streams: ``run_single`` raises and leaves neither the CSV nor its partial file."""
    _poison_trial(monkeypatch)
    cfg = dataclasses.replace(_POISONED, out_path=str(tmp_path / "traj.csv"))
    with pytest.raises(ValueError, match="observation contains non-finite entries"):
        run_single(cfg, 1)
    assert list(tmp_path.iterdir()) == []


def test_engine_steps_column_major_stacks(monkeypatch):
    """Every stack the engine steps is column-major, after trials end and after a trial fails mid-stack."""
    step = core._step
    widths = []

    def checked_step(U, x, *args):
        assert U.mT.flags.c_contiguous
        widths.append(len(U))
        return step(U, x, *args)

    monkeypatch.setattr(core, "_step", checked_step)
    results = run_sweep([ExperimentConfig(n=60, d=3, seed=23, trials=7, sparse_ubar=True)])[0].results
    assert len({result.iters_run for result in results}) > 2 and len(set(widths)) > 2
    widths.clear()
    _poison_trial(monkeypatch)
    assert run_sweep([_POISONED])[0].errors.keys() == {1}
    # step 31 fails trial 1 at width 4, which leaves the stack; trials 0, 2 and 3 step on at width 3
    assert widths[:35] == [4] * 31 + [3] * 4


def test_trial_failing_its_reorthonormalization_ends_alone(monkeypatch):
    """A trial whose re-orthonormalization raises ends with that error; the trial that re-orthonormalizes runs on.

    Every basis with a positive top-left entry fails its re-orthonormalization: trials 0-4 end with that error,
    and trial 5, whose bases have a non-positive one whenever they are due, runs to the end and equals its reference.
    """
    reorthonormalize = core.reorthonormalize

    def failing(u):
        if u[0, 0] > 0:
            raise np.linalg.LinAlgError("injected")
        return reorthonormalize(u)

    monkeypatch.setattr(core, "reorthonormalize", failing)
    cfg = dataclasses.replace(_TRIAL_CONFIGS["practical_reorth"], trials=6)
    summary = run_sweep([cfg])[0]
    assert summary.errors == {i: "LinAlgError: injected" for i in range(5)}
    assert summary.results == [_reference_trial(cfg, 5)[0]]
