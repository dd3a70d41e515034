import dataclasses
import json
import math
import threading
import tracemalloc

import numpy as np
import pytest

import grouse.core
import grouse.harness
from grouse.bounds import BoundParams, k1_bound, k2_bound
from grouse.core import StepMode
from grouse.harness import (
    ExperimentConfig,
    bounds_table,
    config_from_dict,
    derive_trial_seed,
    run_single,
    run_sweep,
    run_trajectory,
    write_trajectory_csv,
    TRAJECTORY_HEADER,
)


def csv_body(path):
    """Data lines of a CSV file, skipping the # metadata header."""
    with open(path, encoding="utf-8") as fh:
        return [line for line in fh.read().splitlines() if not line.startswith("#")]


# ---------------------------------------------------------------------------
# config plumbing


def test_config_round_trips_through_dict():
    cfg = ExperimentConfig(n=100, d=5, sigma_sq=1e-3, trials=3, seed=7,
                           mode=StepMode.PRACTICAL_NOISY, sparse_ubar=True)
    again = config_from_dict(cfg.to_dict())
    assert again == cfg


def test_config_rejects_unknown_fields():
    with pytest.raises(ValueError):
        config_from_dict({"n": 10, "d": 2, "bogus": 1})


def test_config_resolved_defaults():
    small = ExperimentConfig(n=100, d=5)
    big = ExperimentConfig(n=100_000, d=20)
    assert small.resolved_record_every() == 1
    assert big.resolved_record_every() == 10
    p = small.bound_params()
    expected = math.ceil(3 * (k1_bound(p) + k2_bound(p)))
    assert small.resolved_max_iters() == expected


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n=5, d=5)
    with pytest.raises(ValueError):
        ExperimentConfig(n=10, d=2, trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(n=10, d=2, eps_star=5.0)


@pytest.mark.parametrize("field", ["trials", "seed", "max_iters", "record_every", "threads"])
@pytest.mark.parametrize("value", [True, 2.5, 50.0])
def test_config_rejects_non_integer_counts(field, value):
    """A bool or a float count raises at once: ``max_iters=50.5`` would never be reached, ``2.5`` records off-grid."""
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        ExperimentConfig(n=60, d=3, **{field: value})
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        config_from_dict({"n": 60, "d": 3, field: value})


@pytest.mark.parametrize("field", ["n", "d", "trials", "seed", "threads"])
def test_config_rejects_none_in_a_required_count(field):
    """``None`` in a required count raises a ``ValueError`` naming it, not a ``TypeError`` from a comparison."""
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got None"):
        config_from_dict({"n": 60, "d": 3, field: None})


@pytest.mark.parametrize("field", ["max_iters", "record_every"])
def test_config_accepts_none_in_an_optional_count(field):
    assert getattr(config_from_dict({"n": 60, "d": 3, field: None}), field) is None


def test_config_rejects_a_negative_seed():
    """A negative master seed fails at construction, not in every trial's ``SeedSequence``."""
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1"):
        ExperimentConfig(n=60, d=3, seed=-1)
    assert ExperimentConfig(n=60, d=3, seed=0).seed == 0


@pytest.mark.parametrize("field", ["n", "d"])
def test_config_rejects_non_integer_dimensions(field):
    raw = {"n": 60, "d": 3}
    raw[field] = float(raw[field])
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        config_from_dict(raw)


def test_trial_seed_derivation_is_stable():
    ss_a, seed_a = derive_trial_seed(42, 7)
    ss_b, seed_b = derive_trial_seed(42, 7)
    assert seed_a == seed_b
    assert derive_trial_seed(42, 8)[1] != seed_a
    assert derive_trial_seed(43, 7)[1] != seed_a
    np.testing.assert_array_equal(
        np.random.default_rng(ss_a).standard_normal(4),
        np.random.default_rng(ss_b).standard_normal(4),
    )


# ---------------------------------------------------------------------------
# single trajectories


def test_noiseless_trajectory_converges_within_theory_bound():
    cfg = ExperimentConfig(n=200, d=5, sigma_sq=0.0, seed=11, eps_star=1e-4, sparse_ubar=True)
    p = BoundParams(n=200, d=5, rho=0.1, rho_prime=0.1, eps_star=1e-4)
    budget = k1_bound(p) + k2_bound(p)
    for trial_id in range(3):
        result, rows = run_trajectory(cfg, trial_id)
        assert result.final_eps <= 1e-4
        assert result.phase.k1 is not None and result.phase.k2 is not None
        assert result.phase.k1 + result.phase.k2 <= budget
        assert result.iters_run <= budget
        assert rows[0].t == 0
        assert rows[-1].t == result.iters_run


def test_trajectory_with_injected_converged_start():
    from grouse.data import make_planted

    cfg = ExperimentConfig(n=60, d=4, sigma_sq=0.0, seed=3)
    ss, _ = derive_trial_seed(cfg.seed, 0)
    rng = np.random.default_rng(ss)
    model = make_planted(cfg.n, cfg.d, cfg.sigma_sq, cfg.sparse_ubar, rng)
    result, rows = run_trajectory(cfg, 0, initial_basis=model.ubar)
    assert result.phase.k1 == 0
    assert result.phase.k2 == 0
    assert rows[0].epsilon == pytest.approx(0.0, abs=1e-12)
    assert result.iters_run == 0


def _converged_start(cfg):
    """The planted basis ``run_trajectory`` draws for trial 0 of ``cfg``."""
    from grouse.data import make_planted

    rng = np.random.default_rng(derive_trial_seed(cfg.seed, 0)[0])
    return make_planted(cfg.n, cfg.d, cfg.sigma_sq, cfg.sparse_ubar, rng).ubar


def _orthogonal_start(cfg):
    """A basis orthogonal to trial 0's planted basis: every noise-free draw of that trial has w = 0, and epsilon = d."""
    from grouse.subspaces import basis_with_angles

    return basis_with_angles(_converged_start(cfg), np.zeros(cfg.d), np.random.default_rng(0))


@pytest.mark.parametrize("transform, message", [
    (lambda q: 2 * q, "not orthonormal"),
    (np.zeros_like, "not orthonormal"),
    (lambda q: np.full_like(q, np.nan), "non-finite"),
    (lambda q: q[:, :-1], "initial_basis must have shape"),
    (lambda q: q.T, "initial_basis must have shape"),
])
def test_trajectory_rejects_bad_initial_basis(transform, message):
    """A scaled, zero, NaN or wrongly shaped start raises before any step."""
    cfg = ExperimentConfig(n=50, d=3, sigma_sq=0.0, seed=3)
    with pytest.raises(ValueError, match=message):
        run_trajectory(cfg, 0, initial_basis=transform(_converged_start(cfg)))


def test_noisy_trajectory_floors_eps_while_zeta_improves():
    """High noise keeps the discrepancy floored while the similarity improves."""
    cfg = ExperimentConfig(n=2000, d=20, sigma_sq=1e-1, seed=5, max_iters=3000,
                           mode=StepMode.PRACTICAL_NOISY, sparse_ubar=True,
                           eps_star=1e-4, record_every=50)
    result, rows = run_trajectory(cfg, 0)
    zetas = [r.zeta for r in rows]
    epss = [r.epsilon for r in rows]
    # similarity climbs by many orders of magnitude
    assert zetas[0] < 1e-20
    assert zetas[-1] > 0.5
    # discrepancy stalls on a noise floor far above the noiseless target
    late = epss[len(epss) // 2 :]
    assert result.final_eps > 100 * cfg.eps_star
    assert min(late) > 1e-2
    assert max(late) / min(late) < 5.0


def test_trajectory_skip_bookkeeping():
    cfg = ExperimentConfig(n=30, d=3, sigma_sq=0.0, seed=2, max_iters=50)
    result, rows = run_trajectory(cfg, 0)
    assert result.skipped_steps >= 0
    assert result.iters_run <= 50


# ---------------------------------------------------------------------------
# trajectory CSV


def test_trajectory_csv_format(tmp_path):
    out = tmp_path / "traj.csv"
    cfg = ExperimentConfig(n=100, d=5, sigma_sq=0.0, seed=9, eps_star=1e-4,
                           sparse_ubar=True, out_path=str(out))
    result = run_single(cfg)
    assert result.final_eps <= 1e-4
    body = csv_body(out)
    assert body[0] == TRAJECTORY_HEADER
    ts = []
    for line in body[1:]:
        cells = line.split(",")
        assert len(cells) == 8
        t = int(cells[0])
        zeta, eps, theta, alpha, p_sq, r_sq = map(float, cells[1:7])
        skipped = int(cells[7])
        ts.append(t)
        assert 0.0 <= zeta <= 1.0
        assert 0.0 <= eps <= 5.0
        assert 0.0 <= theta < math.pi / 2
        assert 0.0 <= alpha <= 1.0
        assert p_sq >= 0.0 and r_sq >= 0.0
        assert skipped in (0, 1)
    assert ts == sorted(ts) and len(set(ts)) == len(ts)
    # metadata header embeds the full config and master seed
    header = out.read_text().splitlines()
    config_line = next(line for line in header if line.startswith("# config="))
    assert json.loads(config_line.removeprefix("# config="))["seed"] == 9
    assert any(line.startswith("# master_seed=") for line in header)


def test_trajectory_csv_reproducible_body(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        cfg = ExperimentConfig(n=80, d=4, sigma_sq=1e-3, seed=21, max_iters=200,
                               mode=StepMode.PRACTICAL_NOISY, out_path=str(path))
        run_single(cfg)
    assert csv_body(a) == csv_body(b)


def _without_timestamp(path):
    return [line for line in path.read_text(encoding="utf-8").splitlines() if not line.startswith("# generated_at=")]


@pytest.mark.parametrize("fields", [
    {"n": 100, "d": 5, "seed": 9, "sparse_ubar": True},
    {"n": 60, "d": 3, "sigma_sq": 1e-3, "seed": 4, "max_iters": 200, "record_every": 7, "mode": StepMode.ORACLE_NOISY},
])
def test_streamed_csv_equals_written_rows(fields, tmp_path):
    """The CSV ``run_single`` streams is, bar its time stamp, the file ``write_trajectory_csv`` makes of the same rows."""
    streamed, written = tmp_path / "streamed.csv", tmp_path / "written.csv"
    cfg = ExperimentConfig(**fields, out_path=str(streamed))
    result = run_single(cfg)
    direct, rows = run_trajectory(cfg)
    write_trajectory_csv(str(written), cfg, rows)
    assert result == direct
    assert _without_timestamp(streamed) == _without_timestamp(written)
    assert streamed.read_bytes().endswith(b"\n") and sorted(p.name for p in tmp_path.iterdir()) == [
        "streamed.csv", "written.csv"]


def _traced_peak(cfg):
    """Peak bytes ``tracemalloc`` sees while ``run_single(cfg)`` runs."""
    tracemalloc.start()
    try:
        run_single(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_csv_memory_does_not_grow_with_the_horizon(tmp_path):
    """Rows go to the CSV as they are recorded: 1,800 more rows at (20, 2) add less than 64 KiB to the peak.

    Kept in memory until the end, as before, the rows cost about 1.4 kB each.
    """
    def cfg(steps):
        return ExperimentConfig(n=20, d=2, sigma_sq=1e-3, seed=5, max_iters=steps, eps_star=1e-12, record_every=1,
                                mode=StepMode.PRACTICAL_NOISY, out_path=str(tmp_path / f"t{steps}.csv"))

    _traced_peak(cfg(20))  # first calls allocate caches
    short, long = _traced_peak(cfg(200)), _traced_peak(cfg(2000))
    assert len(csv_body(tmp_path / "t2000.csv")) == 2002
    assert long - short < 64 * 1024, (short, long)


def test_run_single_without_out_path_builds_no_rows(monkeypatch):
    """Without an ``out_path`` the trial builds no row and takes no SVD: its similarity is one LU determinant.

    Its result is ``run_trajectory``'s, which builds a row, with its cosines, at every recorded step.
    """
    grams, built = [], []
    cosines, row_type = grouse.harness._cosines, grouse.harness.TrajectoryRow
    monkeypatch.setattr(grouse.harness, "_cosines", lambda gram: grams.append(len(gram)) or cosines(gram))
    monkeypatch.setattr(grouse.harness, "TrajectoryRow", lambda *args: built.append(1) or row_type(*args))
    cfg = ExperimentConfig(n=150, d=4, sigma_sq=1e-3, seed=1, max_iters=500, mode=StepMode.PRACTICAL_NOISY)
    result = run_single(cfg)
    assert result.phase.k1 is not None and result.iters_run == 500
    assert built == [] and grams == []
    assert result == run_trajectory(cfg)[0]
    assert len(built) == 501


def test_unwritable_outputs_fail_before_the_first_step(tmp_path, monkeypatch):
    """``run_single`` and ``run_sweep`` open every output before any trial.

    A missing directory, or a directory where the file should go, raises ``OSError`` with no step taken and no file
    left behind.
    """
    steps = []
    step = grouse.core._step
    monkeypatch.setattr(grouse.core, "_step", lambda *args: steps.append(1) or step(*args))
    cfg = ExperimentConfig(n=60, d=3, seed=3, max_iters=50)
    missing = tmp_path / "missing" / "out.csv"
    with pytest.raises(FileNotFoundError):
        run_single(dataclasses.replace(cfg, out_path=str(missing)))
    with pytest.raises(FileNotFoundError):
        run_sweep([cfg], out_path=str(missing))
    (tmp_path / "taken.csv.json").mkdir()
    with pytest.raises(IsADirectoryError):
        run_sweep([cfg], out_path=str(tmp_path / "taken.csv"))
    with pytest.raises(IsADirectoryError):
        run_single(dataclasses.replace(cfg, out_path=str(tmp_path / "taken.csv.json")))
    assert steps == [] and [p.name for p in tmp_path.iterdir()] == ["taken.csv.json"]


def test_failed_sweep_leaves_no_output(tmp_path, monkeypatch):
    """A sweep that raises after opening its outputs leaves neither file, and a file already there untouched."""
    out = tmp_path / "sweep.csv"
    out.write_text("before\n")

    def failing(cfg):
        raise KeyboardInterrupt

    monkeypatch.setattr(grouse.harness, "_run_config_trials", failing)
    with pytest.raises(KeyboardInterrupt):
        run_sweep([ExperimentConfig(n=60, d=3)], out_path=str(out))
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"] and out.read_text() == "before\n"


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_single_config_matches_run_trajectory():
    cfg = ExperimentConfig(n=100, d=5, sigma_sq=0.0, seed=13, trials=4, sparse_ubar=True)
    summary = run_sweep([cfg])[0]
    assert summary.n_converged == 4
    assert not summary.errors
    direct = [run_trajectory(cfg, trial_id)[0] for trial_id in range(4)]
    assert [r.phase.k1 for r in summary.results] == [r.phase.k1 for r in direct]
    assert [r.phase.k2 for r in summary.results] == [r.phase.k2 for r in direct]
    k1_den = 5**3 * math.log(100)
    np.testing.assert_allclose(
        summary.k1_ratios, [r.phase.k1 / k1_den for r in direct], rtol=1e-12
    )


def test_sweep_thread_count_invariance(tmp_path):
    results = {}
    for threads in (1, 8):
        out = tmp_path / f"sweep_{threads}.csv"
        cfgs = [
            ExperimentConfig(n=100, d=5, sigma_sq=0.0, seed=31, trials=6,
                             sparse_ubar=True, threads=threads),
            ExperimentConfig(n=120, d=4, sigma_sq=1e-3, seed=31, trials=6,
                             mode=StepMode.PRACTICAL_NOISY, threads=threads,
                             max_iters=400),
        ]
        run_sweep(cfgs, out_path=str(out))
        results[threads] = csv_body(out)
    assert results[1] == results[8]


def test_sweep_runs_trials_in_calling_thread(monkeypatch):
    """Every trial of a sweep runs in the caller's thread, whatever ``threads`` says."""
    seen = []
    original = grouse.harness._start_trial

    def recording(cfg, trial_id, *args, **kwargs):
        seen.append((trial_id, threading.get_ident()))
        return original(cfg, trial_id, *args, **kwargs)

    monkeypatch.setattr(grouse.harness, "_start_trial", recording)
    cfg = ExperimentConfig(n=60, d=3, seed=19, trials=5, sparse_ubar=True, threads=4)
    summary = run_sweep([cfg])[0]
    assert seen == [(trial_id, threading.get_ident()) for trial_id in range(5)]
    assert [r.trial_id for r in summary.results] == list(range(5))


def test_sweep_records_failed_trial_and_continues(monkeypatch):
    original = grouse.harness._start_trial

    def failing_second(cfg, trial_id, *args, **kwargs):
        if trial_id == 1:
            raise FloatingPointError("trial blew up")
        return original(cfg, trial_id, *args, **kwargs)

    monkeypatch.setattr(grouse.harness, "_start_trial", failing_second)
    summary = run_sweep([ExperimentConfig(n=60, d=3, seed=19, trials=3, sparse_ubar=True)])[0]
    assert summary.errors == {1: "FloatingPointError: trial blew up"}
    assert [r.trial_id for r in summary.results] == [0, 2]


def _sweep_outputs(cfgs, out):
    """Per-trial results, CSV body and JSON (without its time stamp) of one sweep."""
    summaries = run_sweep(cfgs, out_path=str(out))
    doc = json.loads(out.with_name(out.name + ".json").read_text())
    del doc["generated_at"]
    return [s.results for s in summaries], [s.errors for s in summaries], csv_body(out), doc


def test_sweep_is_invariant_to_stack_width(tmp_path, monkeypatch):
    """Stacks of 1, 3 and all trials give the same trials, sweep CSV and sweep JSON, skipped steps included."""
    cfgs = [
        ExperimentConfig(n=60, d=3, seed=23, trials=7, sparse_ubar=True),
        ExperimentConfig(n=60, d=3, sigma_sq=1e-3, seed=23, trials=7, max_iters=230,
                         mode=StepMode.PRACTICAL_NOISY),
        ExperimentConfig(n=60, d=3, sigma_sq=1e-3, seed=23, trials=7, max_iters=120,
                         mode=StepMode.ORACLE_NOISY, record_every=9),
    ]
    outputs = {}
    for width in (1, 3, 100):
        monkeypatch.setattr(grouse.harness, "_CHUNK_ELEMENTS", width * 60 * 3)
        outputs[width] = _sweep_outputs(cfgs, tmp_path / f"sweep_{width}.csv")
    assert outputs[1] == outputs[3] == outputs[100]
    results, errors, _, _ = outputs[1]
    assert errors == [{}, {}, {}] and all(len(r) == 7 for r in results)
    # trial 0 starts orthogonal to its own ground truth and skips every step; trials 1 and 2 step from there
    mixed = ExperimentConfig(n=60, d=3, seed=3, eps_star=1e-30, max_iters=40)
    start = _orthogonal_start(mixed)
    stacked = dict(grouse.harness._run_stack(mixed, [0, 1, 2], start))
    for trial_id in range(3):
        ((_, alone),) = grouse.harness._run_stack(mixed, [trial_id], start)
        assert stacked[trial_id] == alone == run_trajectory(mixed, trial_id, start)[0]
    assert [stacked[trial_id].skipped_steps for trial_id in range(3)] == [40, 0, 0]


def test_rows_are_kept_for_one_trial_only():
    cfg = ExperimentConfig(n=60, d=3, seed=3, max_iters=5)
    with pytest.raises(ValueError, match="rows are kept for one trial, got 2 trials"):
        next(grouse.harness._run_stack(cfg, [0, 1], None, row=[].append))


def test_sweep_takes_no_svd_and_trajectories_record_cosines(monkeypatch):
    """A sweep takes no SVD: each trial's similarity is one LU determinant of its Gram.

    A trajectory still records the cosines of every row, one SVD each.
    """
    grams = []
    cosines = grouse.harness._cosines
    monkeypatch.setattr(grouse.harness, "_cosines", lambda gram: grams.append(len(gram)) or cosines(gram))
    cfg = ExperimentConfig(n=150, d=4, sigma_sq=1e-3, seed=1, trials=4, max_iters=500,
                           mode=StepMode.PRACTICAL_NOISY)
    results = run_sweep([cfg])[0].results
    assert len(results) == 4 and all(r.phase.k1 is not None and r.iters_run == 500 for r in results)
    assert grams == []
    grams.clear()
    for trial_id in range(cfg.trials):
        _, rows = run_trajectory(cfg, trial_id)
        assert len(rows) == 501 and all(len(row.cos_angles) == cfg.d for row in rows)
    assert sum(grams) == 4 * 501


def test_no_hot_path_takes_an_svd(tmp_path, monkeypatch):
    """A sweep, ``run_single`` with and without a CSV and the ``mc_*`` similarity kernel take no SVD.

    Their similarity is one LU determinant of each Gram; only a caller that reads cosines takes the SVD.
    """
    import grouse.bounds
    import grouse.subspaces
    from grouse.data import make_planted
    from grouse.subspaces import basis_with_similarity

    calls, cosines = [], grouse.subspaces._cosines
    for module in (grouse.subspaces, grouse.harness, grouse.bounds):
        monkeypatch.setattr(module, "_cosines", lambda gram: calls.append(len(gram)) or cosines(gram))
    cfg = ExperimentConfig(n=150, d=4, sigma_sq=1e-3, seed=1, trials=3, max_iters=300,
                           mode=StepMode.PRACTICAL_NOISY)
    assert len(run_sweep([cfg])[0].results) == 3
    one = dataclasses.replace(cfg, trials=1)
    result = run_single(one)
    assert run_single(dataclasses.replace(one, out_path=str(tmp_path / "t.csv"))) == result
    assert len(csv_body(tmp_path / "t.csv")) == 302
    rng = np.random.default_rng(3)
    model = make_planted(60, 3, 1e-3, sparse=False, rng=rng)
    basis = basis_with_similarity(model.ubar, 0.3, rng)
    values, _ = grouse.bounds._oracle_steps(model, basis, 40, rng, grouse.subspaces._similarity)
    assert len(values) == 40 and calls == []


_EDGE_MODES = {
    "greedy": {"mode": StepMode.GREEDY_NOISELESS},
    "practical": {"mode": StepMode.PRACTICAL_NOISY, "sigma_sq": 1e-3},
    "oracle": {"mode": StepMode.ORACLE_NOISY, "sigma_sq": 1e-3},
}

# config fields, and the start of the trial: random, at its own ground truth, or orthogonal to it
_EDGE_CASES = {
    "short_of_k1": ({"n": 200, "d": 5, "max_iters": 5}, None),
    "converged_start": ({"n": 60, "d": 4}, _converged_start),
    "all_skipped": ({"n": 60, "d": 3, "sigma_sq": 0.0, "eps_star": 1e-30, "max_iters": 20}, _orthogonal_start),
}


@pytest.mark.parametrize("record_every", [1, 7])
@pytest.mark.parametrize("mode", sorted(_EDGE_MODES))
@pytest.mark.parametrize("case", sorted(_EDGE_CASES))
def test_sweep_phase_split_equals_trajectory_at_edges(case, mode, record_every, monkeypatch):
    """A sweep trial short of K1, one converged at its start and one that skips every step.

    The sweep's results equal ``run_trajectory``'s, whose phase split is ``detect_phases`` over its rows.
    """
    from grouse.bounds import detect_phases

    fields, start_of = _EDGE_CASES[case]
    cfg = ExperimentConfig(**{"seed": 3, "record_every": record_every, **_EDGE_MODES[mode], **fields})
    start = start_of(cfg) if start_of else None
    original = grouse.harness._start_trial
    monkeypatch.setattr(grouse.harness, "_start_trial", lambda c, trial_id, _: original(c, trial_id, start))
    summary = run_sweep([cfg])[0]
    result, rows = run_trajectory(cfg, 0, initial_basis=start)
    assert summary.errors == {} and summary.results == [result]
    assert result.phase == detect_phases(rows, cfg.bound_params())
    assert result.final_zeta == rows[-1].zeta and math.isfinite(result.final_zeta)
    split = (result.phase.k1, result.phase.k2)
    if case == "short_of_k1":
        assert split == (None, None) and result.iters_run == 5
    elif case == "converged_start":
        assert split == (0, 0) and result.iters_run == 0
    else:
        assert split == (None, None) and result.iters_run == result.skipped_steps == 20


def test_config_threads_is_accepted_and_validated():
    cfg = config_from_dict({"n": 60, "d": 3, "threads": 2})
    assert cfg.threads == 2 and cfg.to_dict()["threads"] == 2
    with pytest.raises(ValueError, match="threads"):
        ExperimentConfig(n=60, d=3, threads=0)


def test_sweep_json_detail(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = ExperimentConfig(n=60, d=3, seed=17, trials=2, sparse_ubar=True)
    run_sweep([cfg], out_path=str(out))
    doc = json.loads((tmp_path / "sweep.csv.json").read_text())
    assert len(doc["configs"]) == 1
    trials = doc["configs"][0]["trials"]
    assert [t["trial_id"] for t in trials] == [0, 1]
    assert all(t["final_eps"] <= 1e-4 for t in trials)
    assert trials[0]["derived_seed"] == derive_trial_seed(17, 0)[1]


def test_sweep_csv_header_rebuilds_every_config(tmp_path):
    """The summary CSV's ``# configs=`` line holds each config whole, so the second config comes back as well."""
    out = tmp_path / "sweep.csv"
    cfgs = [ExperimentConfig(n=60, d=3, seed=3, trials=2, sparse_ubar=True),
            ExperimentConfig(n=50, d=2, seed=9, trials=1, c=0.5, max_iters=40, record_every=4,
                             sigma_sq=1e-3, mode=StepMode.PRACTICAL_NOISY)]
    run_sweep(cfgs, out_path=str(out))
    (line,) = [line for line in out.read_text().splitlines() if line.startswith("# configs=")]
    assert [config_from_dict(raw) for raw in json.loads(line.removeprefix("# configs="))] == cfgs


def test_sweep_reads_a_generator_of_configs_once(tmp_path):
    """A generator of configs runs the sweep its list runs, and writes the same outputs."""
    cfg = ExperimentConfig(n=60, d=3, seed=17, trials=2, sparse_ubar=True)
    listed = run_sweep([cfg], out_path=str(tmp_path / "list.csv"))
    assert len(listed) == 1 and run_sweep(c for c in [cfg]) == listed
    assert run_sweep((c for c in [cfg]), out_path=str(tmp_path / "generated.csv")) == listed
    for suffix in ("", ".json"):
        listed_text, generated_text = ((tmp_path / f"{stem}.csv{suffix}").read_text() for stem in ("list", "generated"))
        assert [line for line in listed_text.splitlines() if "generated_at" not in line] == [
            line for line in generated_text.splitlines() if "generated_at" not in line]


def test_sweep_requires_configs():
    with pytest.raises(ValueError):
        run_sweep([])


@pytest.mark.parametrize("eps_star", [1.0, 1.5])
def test_sweep_rejects_eps_star_from_one_before_any_trial(eps_star, monkeypatch):
    """K2 is normalized by ``d log(1/eps_star)``, which is 0 or negative from ``eps_star = 1`` on."""
    stacks = []
    monkeypatch.setattr(grouse.harness, "_run_stack", lambda *args: stacks.append(args) or iter(()))
    configs = [ExperimentConfig(n=40, d=3, trials=2), ExperimentConfig(n=5, d=2, eps_star=eps_star, trials=4)]
    with pytest.raises(ValueError, match="eps_star < 1"):
        run_sweep(configs)
    assert stacks == []


def test_sweep_rejects_a_config_out_path_before_any_trial(tmp_path, monkeypatch):
    """A sweep writes no trajectory CSV, so a config's ``out_path`` would be accepted and then ignored."""
    stacks = []
    monkeypatch.setattr(grouse.harness, "_run_stack", lambda *args: stacks.append(args) or iter(()))
    configs = [ExperimentConfig(n=40, d=3, trials=2), ExperimentConfig(n=5, d=2, out_path=str(tmp_path / "t.csv"))]
    with pytest.raises(ValueError, match="out_path"):
        run_sweep(configs)
    assert stacks == [] and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("trial_id, message", [
    (True, "trial_id must be an integer, got True"),
    (1.5, "trial_id must be an integer, got 1.5"),
    (-1, "trial_id must be >= 0, got -1"),
])
def test_run_trajectory_rejects_a_bad_trial_id_before_any_draw(trial_id, message, monkeypatch):
    starts = []
    monkeypatch.setattr(grouse.harness, "_start_trial", lambda *args: starts.append(args))
    with pytest.raises(ValueError, match=message):
        run_trajectory(ExperimentConfig(n=40, d=3), trial_id)
    assert starts == []


def test_run_trajectory_records_a_numpy_trial_id_as_an_int():
    result, _ = run_trajectory(ExperimentConfig(n=30, d=2, max_iters=5), np.int64(2))
    assert json.loads(json.dumps(result.to_dict()))["trial_id"] == 2
    assert result == run_trajectory(ExperimentConfig(n=30, d=2, max_iters=5), 2)[0]


# ---------------------------------------------------------------------------
# bounds table


def test_bounds_table_reference_row(tmp_path):
    params = [BoundParams(n=200, d=5, rho=0.1, rho_prime=0.1, eps_star=1e-4)]
    out = tmp_path / "bounds.csv"
    rows = bounds_table(params, out_path=str(out))
    cells = rows[0].split(",")
    assert float(cells[6]) == pytest.approx(0.8809980656223966, rel=1e-12)
    assert float(cells[7]) == pytest.approx(5858.098225482874, rel=1e-12)
    assert float(cells[8]) == pytest.approx(115.12925464970229, rel=1e-12)
    assert float(cells[9]) == pytest.approx(5973.227480132577, rel=1e-12)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("n,d,sigma_sq")


def test_bounds_table_unit_dimension_row():
    p = BoundParams(n=100, d=1, rho=0.1, rho_prime=0.5, eps_star=0.5)
    rows = bounds_table([p])
    cells = rows[0].split(",")
    assert float(cells[8]) == pytest.approx(2.0 * math.log(1.0 / 0.05), rel=1e-12)


def test_bounds_table_purity():
    p = BoundParams(n=300, d=6)
    rows = bounds_table([p, p, p])
    assert rows[0] == rows[1] == rows[2]


def test_bounds_table_rejects_no_rows(tmp_path):
    out = tmp_path / "bounds.csv"
    with pytest.raises(ValueError, match="at least one parameter row"):
        bounds_table([], out_path=str(out))
    assert not out.exists()


def test_bounds_table_row_level_errors():
    good = BoundParams(n=100, d=5)
    bad = BoundParams(n=100, d=5, rho=0.5, eps_star=2.5, rho_prime=0.4)
    rows = bounds_table([good, bad, good])
    assert rows[0] == rows[2]
    assert "eps_star * rho" in rows[1]
    assert rows[1].split(",")[6] == ""  # no mu0 value on the failed row


def test_trial_calls_householder_qr_only_for_model_and_start(monkeypatch):
    """350 steps at (400, 8) cross 3 re-orthonormalization points; no part of the trial calls ``np.linalg.qr``.

    The model and the start are orthonormalized by ``reorthonormalize`` too.
    """
    qr_calls, reorth_calls = [], []
    qr, reorth = np.linalg.qr, grouse.core.reorthonormalize
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: qr_calls.append(1) or qr(*a, **k))
    monkeypatch.setattr(grouse.core, "reorthonormalize", lambda u: reorth_calls.append(1) or reorth(u))
    cfg = ExperimentConfig(n=400, d=8, sigma_sq=1e-3, mode=StepMode.PRACTICAL_NOISY, max_iters=350,
                           eps_star=1e-12, seed=4)
    result, _ = run_trajectory(cfg)
    assert result.iters_run == 350 and result.skipped_steps == 0
    assert len(reorth_calls) == 3
    assert len(qr_calls) == 0
