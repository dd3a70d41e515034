import argparse
import json

import pytest

import grouse.checks
from grouse.checks import PropertyResult, VerifyReport
from grouse.cli import _trial_out_path, build_parser, main


def test_run_writes_trajectory_and_prints_summary(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main([
        "run", "--n", "100", "--d", "5", "--seed", "3", "--sparse",
        "--eps-star", "1e-4", "--out", str(out),
    ])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["final_eps"] <= 1e-4
    assert summary["k1"] is not None and summary["k2"] is not None
    lines = out.read_text().splitlines()
    assert any(line.startswith("# config=") for line in lines)
    assert "t,zeta,epsilon,theta,alpha,p_norm_sq,r_norm_sq,skipped" in lines


def test_run_without_out_path(capsys):
    code = main(["run", "--n", "60", "--d", "3", "--seed", "1", "--max-iters", "50"])
    assert code == 0
    assert "final_eps" in capsys.readouterr().out


def test_run_multiple_trials(tmp_path, capsys):
    out = tmp_path / "multi.csv"
    code = main(["run", "--n", "60", "--d", "3", "--trials", "3", "--seed", "1",
                 "--max-iters", "80", "--out", str(out)])
    assert code == 0
    summaries = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert [s["trial_id"] for s in summaries] == [0, 1, 2]
    assert len(set(s["derived_seed"] for s in summaries)) == 3
    for trial_id in range(3):
        assert (tmp_path / f"multi-trial{trial_id}.csv").exists()


@pytest.mark.parametrize("out, expected", [
    ("multi.csv", "multi-trial1.csv"),
    ("./traj", "./traj-trial1"),
    ("runs.v2/traj", "runs.v2/traj-trial1"),
    ("runs.v2/traj.csv", "runs.v2/traj-trial1.csv"),
])
def test_trial_out_path_splits_file_name_only(out, expected):
    assert _trial_out_path(out, 1, 2) == expected
    assert _trial_out_path(out, 0, 1) == out


def test_run_multiple_trials_dotted_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "runs.v2").mkdir()
    for out in ("./traj", "runs.v2/traj"):
        code = main(["run", "--n", "30", "--d", "2", "--trials", "2", "--seed", "1",
                     "--max-iters", "10", "--out", out])
        assert code == 0
        for trial_id in range(2):
            assert (tmp_path / f"{out}-trial{trial_id}").exists()


def test_run_rejects_threads_flag():
    assert main(["run", "--n", "30", "--d", "2", "--max-iters", "10", "--threads", "4"]) == 1


def test_sweep_from_config_file(tmp_path, capsys):
    grid = [
        {"n": 80, "d": 4, "sigma_sq": 0.0, "trials": 2, "seed": 5, "sparse_ubar": True},
        {"n": 100, "d": 5, "sigma_sq": 0.0, "trials": 2, "seed": 5},
    ]
    config_path = tmp_path / "grid.json"
    config_path.write_text(json.dumps(grid))
    out = tmp_path / "summary.csv"
    code = main(["sweep", "--config", str(config_path), "--out", str(out)])
    assert code == 0
    assert out.exists() and (tmp_path / "summary.csv.json").exists()
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert body[0].startswith("n,d,sigma_sq")
    assert len(body) == 3


def test_sweep_single_dict_config(tmp_path):
    config_path = tmp_path / "one.json"
    config_path.write_text(json.dumps({"n": 60, "d": 3, "trials": 1, "seed": 2}))
    assert main(["sweep", "--config", str(config_path)]) == 0


def test_sweep_rejects_threads_flag(tmp_path):
    config_path = tmp_path / "one.json"
    config_path.write_text(json.dumps({"n": 60, "d": 3, "trials": 1, "seed": 2}))
    assert main(["sweep", "--config", str(config_path), "--threads", "2"]) == 1


def test_bounds_from_flags(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    code = main([
        "bounds", "--n", "200", "--d", "5", "--rho", "0.1", "--rho-prime", "0.1",
        "--eps-star", "1e-4", "--out", str(out),
    ])
    assert code == 0
    row = capsys.readouterr().out.strip().splitlines()[-1]
    assert float(row.split(",")[7]) == pytest.approx(5858.098225482874, rel=1e-9)
    assert out.read_text().startswith("n,d,sigma_sq")


def test_bounds_from_params_file(tmp_path, capsys):
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps([{"n": 100, "d": 5}, {"n": 1000, "d": 10}]))
    assert main(["bounds", "--params", str(params_path)]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 2


def test_bounds_single_dict_params(tmp_path, capsys):
    params_path = tmp_path / "one.json"
    params_path.write_text(json.dumps({"n": 100, "d": 5}))
    assert main(["bounds", "--params", str(params_path)]) == 0
    assert capsys.readouterr().out.startswith("100,5,")


def test_bounds_rejects_flags_with_params(tmp_path, capsys):
    params_path = tmp_path / "p.json"
    params_path.write_text(json.dumps({"n": 100, "d": 5}))
    assert main(["bounds", "--params", str(params_path), "--n", "50", "--d", "2", "--rho", "0.3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("grouse: error: --params takes no parameter flags, got ['d', 'n', 'rho']")


def test_sweep_with_eps_star_one_is_a_usage_error(tmp_path, capsys):
    config_path = tmp_path / "grid.json"
    config_path.write_text(json.dumps([{"n": 5, "d": 2, "eps_star": 1.0, "trials": 4, "seed": 0}]))
    assert main(["sweep", "--config", str(config_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("grouse: error: a sweep needs eps_star < 1")


@pytest.mark.parametrize("content", ["[]", "[1]", "1", '"n"', '[{"n": 100, "d": 5}, 2]'])
@pytest.mark.parametrize("command, flag", [("sweep", "--config"), ("bounds", "--params")])
def test_json_input_must_be_an_object_or_objects(command, flag, content, tmp_path, capsys):
    path, out = tmp_path / "in.json", tmp_path / "out.csv"
    path.write_text(content)
    assert main([command, flag, str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"grouse: error: {path} must hold a JSON object or a non-empty list of objects\n"


def test_run_flags_leave_defaults_to_the_config():
    """No ``run`` flag restates an ``ExperimentConfig`` default: an absent flag sets no field."""
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = [a for a in subparsers.choices["run"]._actions if a.option_strings]
    assert len(flags) == 13 and all(a.default is argparse.SUPPRESS for a in flags)
    assert vars(parser.parse_args(["run", "--n", "40", "--d", "3"])) == {"command": "run", "n": 40, "d": 3}


def test_verify_quick_suite(capsys):
    code = main(["verify", "--suite", "metrics", "--seed", "0", "--intensity", "quick"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("PASS metrics/") == 6
    assert out.strip().splitlines()[-1].startswith("OK:")


def test_verify_property_failure_exit_code(monkeypatch, capsys):
    failing = VerifyReport(
        results=[PropertyResult(name="broken", suite="step", measured=1.0,
                                tolerated=0.0, passed=False)],
        runtime_s=0.01,
    )
    monkeypatch.setattr("grouse.cli.verify", lambda **kwargs: failing)
    code = main(["verify", "--suite", "step"])
    assert code == 2
    assert "FAIL step/broken" in capsys.readouterr().out


def test_usage_error_exit_code(capsys):
    assert main(["run", "--n", "100"]) == 1  # missing --d
    assert main(["run", "--n", "100", "--d", "5", "--mode", "bogus"]) == 1
    assert main(["bounds"]) == 1  # neither --params nor --n/--d


def test_invalid_config_values_exit_code(tmp_path):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({"n": 5, "d": 9}))
    assert main(["sweep", "--config", str(config_path)]) == 1


def test_io_error_exit_code(tmp_path):
    code = main([
        "run", "--n", "60", "--d", "3", "--max-iters", "10",
        "--out", str(tmp_path / "missing_dir" / "x.csv"),
    ])
    assert code == 3
    assert main(["sweep", "--config", str(tmp_path / "nope.json")]) == 3


def test_unwritable_out_exits_3_before_any_step(tmp_path, monkeypatch, capsys):
    """``run`` and ``sweep`` open their outputs first: an ``--out`` in a missing directory exits 3 with no step taken."""
    import grouse.harness

    steps = []
    step = grouse.harness._step
    monkeypatch.setattr(grouse.harness, "_step", lambda *args: steps.append(1) or step(*args))
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps({"n": 60, "d": 3, "trials": 2, "max_iters": 50}))
    out = str(tmp_path / "missing_dir" / "out.csv")
    assert main(["run", "--n", "60", "--d", "3", "--max-iters", "50", "--out", out]) == 3
    assert main(["sweep", "--config", str(config_path), "--out", out]) == 3
    captured = capsys.readouterr()
    assert steps == [] and captured.out == "" and captured.err.count("grouse: i/o error:") == 2


@pytest.mark.parametrize("argv, field", [
    (["run", "--n", "40", "--d", "3", "--max-iters", "5", "--sigma2", "nan"], "sigma_sq"),
    (["run", "--n", "40", "--d", "3", "--max-iters", "5", "--sigma2", "nan", "--mode", "practical"], "sigma_sq"),
    (["run", "--n", "40", "--d", "3", "--max-iters", "5", "--sigma2", "1e-3", "--c", "inf",
      "--mode", "practical"], "c"),
    (["bounds", "--n", "40", "--d", "3", "--sigma2", "nan"], "sigma_sq"),
    (["bounds", "--n", "40", "--d", "3", "--sigma2", "inf"], "sigma_sq"),
])
def test_non_finite_values_exit_with_usage_error(argv, field, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{field} is non-finite" in captured.err


def test_verify_rejects_a_negative_seed(capsys):
    assert main(["verify", "--suite", "rates", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed must be >= 0, got -1" in captured.err
