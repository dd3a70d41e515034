"""The benchmark workloads: inputs made from the master seed, and output gates.

Each workload turns the master seed into the argument list of one
``grouse`` command (writing any config file it needs into a work
directory), and checks the outputs of one pass of that command.  The
master seed is handed to grouse as its master seed: grouse derives every
trial's stream from it, and ``verify`` its property draws.  Outputs
go to files named ``out*`` in the work directory, which the runner clears
before every pass.  Importing this module imports grouse, so it is part of
the measured set-up.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import grouse.cli  # noqa: F401  (set-up cost: the command the passes call)
from grouse.harness import SWEEP_HEADER, TRAJECTORY_HEADER, config_from_dict

SWEEP_TRIALS = 16  # per config; two configs
SWEEP_THREADS = 2
STREAM_STEPS = 2000
VERIFY_MIN_PROPERTIES = 5  # the property count of the rates suite this benchmark was defined on


@dataclass
class Outcome:
    """What one pass did: operations attempted and failed, estimator steps, gate messages.

    ``digest`` hashes the parts of the outputs that depend only on the
    inputs, so every pass of one seed must produce the same digest.
    """

    ops: int
    failed: int
    steps: int
    problems: list[str] = field(default_factory=list)
    digest: str = ""


@dataclass(frozen=True)
class Workload:
    threads: int
    expected_ops: int
    prepare: Callable[[int, Path], list[str]]
    check: Callable[[int | None, str, Path], Outcome]


def _csv_body(path: Path) -> list[str] | None:
    """Lines of a grouse CSV without its ``#`` metadata header, or None if missing."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return None
    return [line for line in text.splitlines() if not line.startswith("#")]


def _digest(*parts: str) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


# ---------------------------------------------------------------------------
# sweep_small: `grouse sweep` over the two configs of the sweep-determinism
# acceptance criterion, on a two-thread pool


def prepare_sweep(seed: int, workdir: Path) -> list[str]:
    configs = [
        {"n": 200, "d": 5, "sigma_sq": 0.0, "trials": SWEEP_TRIALS, "seed": seed,
         "eps_star": 1e-4, "mode": "greedy", "sparse_ubar": True, "threads": SWEEP_THREADS},
        {"n": 150, "d": 4, "sigma_sq": 1e-3, "trials": SWEEP_TRIALS, "seed": seed,
         "mode": "practical", "max_iters": 500, "threads": SWEEP_THREADS},
    ]
    config_path = workdir / "in_sweep.json"
    config_path.write_text(json.dumps(configs, indent=1), encoding="utf-8")
    return ["sweep", "--config", str(config_path), "--out", str(workdir / "out_sweep.csv")]


def check_sweep(rc: int | None, stdout: str, workdir: Path) -> Outcome:
    configs = json.loads((workdir / "in_sweep.json").read_text(encoding="utf-8"))
    expected = sum(cfg["trials"] for cfg in configs)
    out = Outcome(ops=expected, failed=0, steps=0)
    if rc != 0:
        out.problems.append(f"sweep exited with {rc}")
    body = _csv_body(workdir / "out_sweep.csv")
    if body is None or not body or body[0] != SWEEP_HEADER or len(body) != 1 + len(configs):
        out.problems.append(f"summary CSV needs its header and {len(configs)} rows, got {body!r:.200}")
    try:
        doc = json.loads((workdir / "out_sweep.csv.json").read_text(encoding="utf-8"))
        records = doc["configs"]
    except (OSError, ValueError, KeyError) as exc:
        out.problems.append(f"sweep JSON unreadable: {exc}")
        out.failed = expected
        return out
    if len(records) != len(configs):
        out.problems.append(f"sweep JSON has {len(records)} configs, expected {len(configs)}")
    for cfg, record in zip(configs, records):
        trials, errors = record["trials"], record["errors"]
        for trial_id, message in errors.items():
            out.problems.append(f"config {cfg['n']}x{cfg['d']} trial {trial_id}: {message}")
        missing = cfg["trials"] - len(trials) - len(errors)
        if missing:
            out.problems.append(f"config {cfg['n']}x{cfg['d']}: {missing} trials have no record")
        out.failed += len(errors) + max(missing, 0)
        for trial in trials:
            out.steps += trial["iters_run"]
            if trial["k1"] is None or trial["k2"] is None or not trial["final_eps"] <= trial["target_eps"]:
                out.failed += 1
                out.problems.append(
                    f"config {cfg['n']}x{cfg['d']} trial {trial['trial_id']}: k1={trial['k1']} "
                    f"k2={trial['k2']} final_eps={trial['final_eps']} > target {trial['target_eps']}"
                )
    if out.problems and not out.failed:
        out.failed = expected  # the outputs as a whole are wrong
    out.digest = _digest(*(body or []), json.dumps(records, sort_keys=True))
    return out


# ---------------------------------------------------------------------------
# stream_large: `grouse run`, one long trajectory at large n with a
# trajectory CSV row per step; eps_star sits below the noise plateau, so
# the run always uses its whole horizon


def prepare_stream(seed: int, workdir: Path) -> list[str]:
    return ["run", "--n", "5000", "--d", "10", "--sigma2", "1e-3", "--mode", "practical",
            "--sparse", "--max-iters", str(STREAM_STEPS), "--eps-star", "1e-6",
            "--seed", str(seed), "--out", str(workdir / "out_traj.csv")]


def check_stream(rc: int | None, stdout: str, workdir: Path) -> Outcome:
    out = Outcome(ops=1, failed=0, steps=0)
    if rc != 0:
        out.problems.append(f"run exited with {rc}")
    lines = stdout.splitlines()
    try:
        (summary,) = [json.loads(line) for line in lines]
    except ValueError as exc:
        out.problems.append(f"run should print one JSON summary: {exc}; got {stdout!r:.200}")
        out.failed = 1
        return out
    out.steps = summary["iters_run"]
    if summary["k1"] is None or summary["k2"] is None:
        out.problems.append(f"phases not reached: k1={summary['k1']} k2={summary['k2']}")
    if not summary["final_eps"] <= summary["target_eps"]:
        out.problems.append(f"final_eps {summary['final_eps']} above the noisy target {summary['target_eps']}")
    if summary["iters_run"] != STREAM_STEPS:
        out.problems.append(f"iters_run {summary['iters_run']} != max_iters {STREAM_STEPS}")

    csv_path = workdir / "out_traj.csv"
    body = _csv_body(csv_path)
    if body is None or not body or body[0] != TRAJECTORY_HEADER:
        out.problems.append(f"trajectory CSV header is not {TRAJECTORY_HEADER!r}")
    else:
        meta = next(line for line in csv_path.read_text(encoding="utf-8").splitlines()
                    if line.startswith("# config="))
        cfg = config_from_dict(json.loads(meta[len("# config="):]))
        every, horizon = cfg.resolved_record_every(), cfg.resolved_max_iters()
        expected_t = [0] + [t for t in range(1, summary["iters_run"] + 1)
                            if t % every == 0 or t == horizon]
        recorded_t = [int(row.split(",", 1)[0]) for row in body[1:]]
        if recorded_t != expected_t:
            out.problems.append(f"trajectory CSV has {len(recorded_t)} rows, expected one per "
                                f"recorded step ({len(expected_t)})")
    out.failed = int(bool(out.problems))
    out.digest = _digest(stdout, *(body or []))
    return out


# ---------------------------------------------------------------------------
# verify_rates: `grouse verify` over the rates suite (the Monte Carlo rate
# checks) at quick intensity.  The other suites hold two-sided three-SE
# tests that fail by chance on about 2 % of seeds; every rates property
# clears its gate by many standard errors, so a FAIL there is a real one.


def prepare_verify(seed: int, workdir: Path) -> list[str]:
    return ["verify", "--suite", "rates", "--intensity", "quick", "--seed", str(seed)]


def check_verify(rc: int | None, stdout: str, workdir: Path) -> Outcome:
    lines = stdout.splitlines()
    results = [line for line in lines if line.startswith(("PASS ", "FAIL "))]
    fails = [line for line in results if line.startswith("FAIL ")]
    missing = max(VERIFY_MIN_PROPERTIES - len(results), 0)
    out = Outcome(ops=len(results) + missing, failed=len(fails) + missing, steps=len(results))
    if rc != 0:
        out.problems.append(f"verify exited with {rc}")
    out.problems.extend(fails)
    if missing:
        out.problems.append(f"verify reported {len(results)} properties, expected at least "
                            f"{VERIFY_MIN_PROPERTIES}")
    if not lines or f": {len(results)} properties in " not in lines[-1]:
        out.problems.append(f"summary line does not count {len(results)} properties")
    out.digest = _digest(*results)
    return out


WORKLOADS = {
    "sweep_small": Workload(
        threads=SWEEP_THREADS, expected_ops=2 * SWEEP_TRIALS,
        prepare=prepare_sweep, check=check_sweep),
    "stream_large": Workload(
        threads=1, expected_ops=1, prepare=prepare_stream, check=check_stream),
    "verify_rates": Workload(
        threads=1, expected_ops=VERIFY_MIN_PROPERTIES, prepare=prepare_verify, check=check_verify),
}
