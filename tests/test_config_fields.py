"""Every config class stores each field as its declared type, so a config that builds also runs and serializes."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest

from grouse.bounds import BoundParams
from grouse.core import OracleInfo, StepConfig, StepMode
from grouse.data import PlantedModel, make_planted
from grouse.harness import (ExperimentConfig, _metadata_lines, bounds_table, config_from_dict, run_single, run_sweep,
                            run_trajectory)
from grouse.subspaces import random_orthonormal

_UBAR = random_orthonormal(10, 2, np.random.default_rng(0))

# each config class with the arguments of a valid instance
_CLASSES = {
    "StepConfig": (StepConfig, {}),
    "OracleInfo": (OracleInfo, {"v_perp_norm_sq": 0.5}),
    "BoundParams": (BoundParams, {"n": 40, "d": 3, "tau1": 2.0}),
    "ExperimentConfig": (ExperimentConfig, {"n": 40, "d": 3, "max_iters": 20, "out_path": "x.csv"}),
    "PlantedModel": (PlantedModel, {"ubar": _UBAR, "sigma_sq": 1e-3, "sparsity": 0.5}),
}


def _numpy_scalar(value):
    """``value`` as the numpy scalar of its kind; anything else unchanged."""
    if isinstance(value, bool):
        return np.bool_(value)
    if isinstance(value, int):
        return np.int32(value)
    if isinstance(value, float):
        return np.float64(value)
    return value


@pytest.mark.parametrize("name", _CLASSES)
def test_numpy_scalars_are_stored_as_python_values(name):
    cls, kwargs = _CLASSES[name]
    plain = cls(**kwargs)
    values = {f.name: getattr(plain, f.name) for f in fields(cls)}
    built = cls(**{key: _numpy_scalar(value) for key, value in values.items()})
    for key, value in values.items():
        if not isinstance(value, np.ndarray):
            assert type(getattr(built, key)) is type(value) and getattr(built, key) == value, key


@pytest.mark.parametrize(("name", "field", "value"), [
    ("StepConfig", "sigma_sq", "1e-3"),
    ("StepConfig", "c", True),
    ("StepConfig", "reorth_period", 5.0),
    ("StepConfig", "mode", "fast"),
    ("OracleInfo", "v_perp_norm_sq", "1e-3"),
    ("BoundParams", "rho", "0.1"),
    ("BoundParams", "tau1", "2"),
    ("BoundParams", "n", np.float64(40.0)),
    ("ExperimentConfig", "sigma_sq", "1e-3"),
    ("ExperimentConfig", "sparse_ubar", "no"),
    ("ExperimentConfig", "sparse_ubar", 1),
    ("ExperimentConfig", "out_path", 5),
    ("ExperimentConfig", "mode", 1),
    ("PlantedModel", "sigma_sq", "1e-3"),
    ("PlantedModel", "normalize_signal", "no"),
    ("PlantedModel", "normalize_signal", 0),
])
def test_a_value_of_the_wrong_type_raises_naming_the_field(name, field, value):
    cls, kwargs = _CLASSES[name]
    with pytest.raises(ValueError, match=f"^{field} must be "):
        cls(**{**kwargs, field: value})


@pytest.mark.parametrize("value", [math.nan, -math.inf, np.float32(math.inf), 10**400, -(10**400)])
def test_a_real_field_refuses_what_no_float_holds(value):
    """An integer beyond the float range is refused like an infinity, not with an ``OverflowError``."""
    with pytest.raises(ValueError, match="^c is non-finite: "):
        ExperimentConfig(n=30, d=2, c=value)


@pytest.mark.parametrize("mode", list(StepMode))
def test_a_string_mode_runs_the_schedule_of_its_member(mode):
    assert StepConfig(mode=mode.value).mode is mode
    by_value = ExperimentConfig(n=30, d=2, mode=mode.value, sigma_sq=1e-3, max_iters=60)
    by_member = ExperimentConfig(n=30, d=2, mode=mode, sigma_sq=1e-3, max_iters=60)
    assert by_value == by_member and by_value.mode is mode
    (result, rows), (expected, expected_rows) = run_trajectory(by_value), run_trajectory(by_member)
    assert result == expected
    assert [row.t for row in rows] == [row.t for row in expected_rows]
    assert all(np.array_equal(row.cos_angles, other.cos_angles) and row.alpha == other.alpha
               for row, other in zip(rows, expected_rows))


def test_numpy_and_path_values_serialize_and_round_trip(tmp_path):
    cfg = ExperimentConfig(n=np.int64(30), d=np.int32(2), sigma_sq=np.float32(0.5), seed=np.int64(3),
                           sparse_ubar=np.bool_(False), mode="practical", max_iters=np.int64(5),
                           out_path=tmp_path / "traj.csv")
    assert json.loads(_metadata_lines({"config": cfg.to_dict()})[0][len("# config="):]) == cfg.to_dict()
    assert config_from_dict(cfg.to_dict()) == cfg
    assert cfg.out_path == str(tmp_path / "traj.csv")
    run_single(cfg)
    body = [line for line in (tmp_path / "traj.csv").read_text(encoding="utf-8").splitlines() if line[0] != "#"]
    assert len(body) == 7  # the header and the rows of t = 0..5


def test_run_trajectory_stores_a_numpy_trial_id_as_an_int():
    result, _ = run_trajectory(ExperimentConfig(n=30, d=2, max_iters=5), np.int64(2))
    assert type(result.trial_id) is int and result.trial_id == 2


def test_numpy_float_rows_equal_plain_float_rows():
    def sweep_row(sigma_sq):
        cfg = ExperimentConfig(n=30, d=2, sigma_sq=sigma_sq, trials=2, mode="practical", max_iters=50)
        return run_sweep([cfg])[0].csv_row()

    assert sweep_row(np.float64(1e-3)) == sweep_row(1e-3)
    assert (bounds_table([BoundParams(n=np.int64(100), d=5, sigma_sq=np.float64(1e-3), eps_star=np.float64(1e-4))])
            == bounds_table([BoundParams(n=100, d=5, sigma_sq=1e-3, eps_star=1e-4)]))


def test_make_planted_checks_its_arguments_before_any_draw():
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="^sparse must be a bool, got 'no'"):
        make_planted(30, 2, 0.0, "no", rng)
    with pytest.raises(ValueError, match="^sigma_sq must be a real number, got '1e-3'"):
        make_planted(30, 2, "1e-3", False, rng)
    assert rng.bit_generator.state == state
    assert make_planted(30, 2, 0.0, np.bool_(True), rng).sparsity is not None
