"""Reproducible experiment harness: single trajectories, sweeps, bound tables.

Every trial derives its own random stream from ``(master seed, trial_id)``
through a counter-based ``SeedSequence`` spawn, so a trial's result depends
only on its config and id.  The trials of a config run in the calling
thread in lock-step: step t of every running trial is one update of a
stack of bases through ``core._step``, and each trial gets the bits it gets
alone, whatever the stack holds.  Trajectories are persisted as CSV with a
``#``-prefixed metadata header embedding the full configuration, each row
written as it is recorded; sweep summaries are written as CSV plus a JSON
document carrying per-trial detail.  Every output file is opened before the
first step and appears only when its run succeeds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import errno
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .bounds import _CHUNK_ELEMENTS, BoundParams, PhaseReport, _PhaseRule, k1_bound, k2_bound, mu0
from .core import OracleInfo, StepConfig, StepMode, _checked, _energy_outside, _step
from .data import PlantedModel, _draw_each, make_planted
from .subspaces import (MetricSample, _column_major, _cosines, _discrepancy, _own_fields, _similarity, _typed,
                        check_orthonormal, random_orthonormal)

__all__ = [
    "ExperimentConfig",
    "SweepConfigSummary",
    "TrajectoryRow",
    "TrialResult",
    "bounds_table",
    "config_from_dict",
    "derive_trial_seed",
    "run_single",
    "run_sweep",
    "run_trajectory",
    "write_trajectory_csv",
]

TRAJECTORY_HEADER = "t,zeta,epsilon,theta,alpha,p_norm_sq,r_norm_sq,skipped"

SWEEP_HEADER = (
    "n,d,sigma_sq,mode,trials,eps_star,seed,n_converged,n_failed,"
    "k1_mean,k1_ratio_mean,k1_ratio_var,k2_mean,k2_ratio_mean,k2_ratio_var"
)

BOUNDS_HEADER = "n,d,sigma_sq,rho,rho_prime,eps_star,mu0,k1_bound,k2_bound,k_bound,error"


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment: problem size, stream, stopping, output.

    Each field is stored as its declared type by ``subspaces._typed`` (``mode="practical"`` as its ``StepMode``,
    a path as ``str``) or raises a ``ValueError`` naming it: a config that builds runs and serializes.
    ``max_iters=None`` resolves to three times the combined theoretical
    iteration bound (at failure probabilities 0.1/0.1), so convergence
    checks against the bound can fail meaningfully instead of timing out.
    ``record_every=None`` resolves to 1 when ``n * d <= 1e5`` and 10
    otherwise.  A recorded step costs a d x d Gram matrix, which gives the
    discrepancy; a trajectory also takes its SVD (the cosines and the
    similarity) at every recorded step, a sweep only until the trial
    reaches ``K1`` and at its last step.
    ``eps_star`` has a floor on noiseless runs with unit-norm data: the
    true discrepancy stops near 1e-24, where ``||r||`` falls below the
    step's skip tolerance ``core._SKIP_NORM_TOL``, and the computed one
    reads 0.0 or 1.78e-15 once the true one is below about 1e-14, so an
    ``eps_star`` under that records a false ``K2``.
    ``threads`` must be >= 1 and has no effect: a sweep steps the trials
    of a config together in the calling thread, in stacks whose width
    depends only on ``n * d``, and each trial's results are those it gets
    when run alone.
    """

    n: int
    d: int
    sigma_sq: float = 0.0
    trials: int = 1
    seed: int = 0
    max_iters: int | None = None
    eps_star: float = 1e-4
    mode: StepMode = StepMode.GREEDY_NOISELESS
    sparse_ubar: bool = False
    c: float = 1.0
    record_every: int | None = None
    threads: int = 1
    out_path: str | None = None

    def __post_init__(self) -> None:
        _own_fields(self)
        # BoundParams checks n, d, sigma_sq and eps_star; StepConfig checks c
        self.bound_params()
        self.step_config()
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1 or None, got {self.max_iters}")
        if self.record_every is not None and self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")

    def bound_params(self) -> BoundParams:
        return BoundParams(n=self.n, d=self.d, sigma_sq=self.sigma_sq, eps_star=self.eps_star)

    def step_config(self) -> StepConfig:
        return StepConfig(mode=self.mode, sigma_sq=self.sigma_sq, c=self.c)

    def resolved_record_every(self) -> int:
        if self.record_every is not None:
            return self.record_every
        return 1 if self.n * self.d <= 10**5 else 10

    def resolved_max_iters(self) -> int:
        if self.max_iters is not None:
            return self.max_iters
        p = self.bound_params()
        return int(math.ceil(3.0 * (k1_bound(p) + k2_bound(p))))

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "mode": self.mode.value}


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from a JSON-style dict whose keys mirror the field names."""
    unknown = set(raw) - {f.name for f in dataclasses.fields(ExperimentConfig)}
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    return ExperimentConfig(**raw)


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one trajectory: phase split, final metrics, bookkeeping."""

    trial_id: int
    derived_seed: int
    phase: PhaseReport
    final_zeta: float
    final_eps: float
    iters_run: int
    skipped_steps: int

    def to_dict(self) -> dict:
        """Flat JSON-ready record: ids, phase split, final metrics and step counts."""
        out = dataclasses.asdict(self)
        out.update(out.pop("phase"))
        return out


@dataclass(frozen=True)
class TrajectoryRow(MetricSample):
    """One recorded trajectory row: an iterate's metrics plus the step that reached it.

    The fields without ``cos_angles`` are the ``TRAJECTORY_HEADER`` columns in order; ``p_norm_sq`` and
    ``r_norm_sq`` are the squared norms of the projection and residual of the observation the step consumed.
    """

    theta: float
    alpha: float
    p_norm_sq: float
    r_norm_sq: float
    skipped: bool


def derive_trial_seed(master_seed: int, trial_id: int) -> tuple[np.random.SeedSequence, int]:
    """Per-trial seed sequence and its recorded 64-bit state word."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(trial_id,))
    derived = int(ss.generate_state(1, np.uint64)[0])
    return ss, derived


def _start_trial(
    cfg: ExperimentConfig,
    trial_id: int,
    initial_basis: np.ndarray | None,
) -> tuple[int, np.random.Generator, PlantedModel, np.ndarray]:
    """Recorded seed, generator, planted model and start basis of one trial.

    The trial's stream draws the model, then the start unless ``initial_basis`` is given.
    """
    ss, derived_seed = derive_trial_seed(cfg.seed, trial_id)
    rng = np.random.default_rng(ss)
    model = make_planted(cfg.n, cfg.d, cfg.sigma_sq, cfg.sparse_ubar, rng)
    basis = initial_basis if initial_basis is not None else random_orthonormal(cfg.n, cfg.d, rng)
    return derived_seed, rng, model, basis


def _step_alone(step_cfg: StepConfig, bases, x, energy, nonskipped, i: int):
    """Trial ``i``'s ``(updated, skipped)`` by ``_step`` alone, after ``grouse_step``'s input checks, or their error."""
    one = slice(i, i + 1)
    try:
        if energy is not None:
            OracleInfo(v_perp_norm_sq=energy[i])
        _checked(bases[i], x[i])
        return _step(bases[one], x[one], step_cfg, None if energy is None else energy[one], nonskipped[one])[-2:]
    except Exception as exc:  # the trial ends; the others go on
        return exc


def _run_stack(cfg: ExperimentConfig, trial_ids: Sequence[int], initial_basis: np.ndarray | None, row=None):
    """Run trials of ``cfg`` in one lock-step stack; yield ``(trial_id, result)`` as each ends.

    A trial that raises, at set-up or in a step, yields its exception for
    the result and leaves the stack.  Each trial keeps its own generator,
    model and phase split, and gets the bits it gets alone whatever the
    stack holds.  At each recorded step every running trial's discrepancy
    decides stopping and ``K2``, and ``bounds._PhaseRule`` advances ``K1``
    and ``K2``.  The similarity's SVD is taken only short of ``K1`` or at a
    trial's last step, unless ``row`` is given: then the stack's one trial
    hands each recorded iterate to ``row`` as a ``TrajectoryRow`` when it is
    recorded, and nothing is kept; more trials raise ``ValueError``.
    """
    if row is not None and len(trial_ids) > 1:
        raise ValueError(f"rows are kept for one trial, got {len(trial_ids)} trials")
    trials = []
    for trial_id in trial_ids:
        try:
            trials.append((trial_id, *_start_trial(cfg, trial_id, initial_basis)))
        except Exception as exc:  # keep the other trials alive
            yield trial_id, exc
    if not trials:
        return
    # one row per trial in each array: the stacks of column-major bases and ground truths, and the rest
    ids, seeds, rngs, models, starts = zip(*trials)
    ids, seeds, rngs = (np.array(column, dtype=object) for column in (ids, seeds, rngs))
    bases, ubars = (_column_major(np.stack(stack)) for stack in (starts, [model.ubar for model in models]))
    normalize_signal = models[0].normalize_signal
    del trials, models, starts  # the stacks hold the bases and ground truths from here on
    nonskipped = np.zeros(len(ids), dtype=int)
    k1, k2 = np.full(len(ids), -1), np.full(len(ids), -1)  # each trial's phase split so far, -1 while unmet

    def leave(keep):  # the trials where keep is False end: drop them from every per-trial array
        nonlocal ids, seeds, rngs, bases, ubars, nonskipped, k1, k2
        ids, seeds, rngs, bases, ubars, nonskipped, k1, k2 = (
            column[keep] for column in (ids, seeds, rngs, bases, ubars, nonskipped, k1, k2))

    rule = _PhaseRule.of(cfg.bound_params(), noisy=cfg.sigma_sq > 0)
    step_cfg = cfg.step_config()
    record_every = cfg.resolved_record_every()
    max_iters = cfg.resolved_max_iters()
    # (theta, alpha, ||p||^2, ||r||^2, skipped) of the step that reached t, as _step returns them for one trial:
    # each a one-element array or a Python scalar
    step = (0.0, 0.0, 0.0, 0.0, False)
    t, record = 0, True
    while True:
        if record:
            gram = np.matmul(ubars.mT, bases)
            eps = _discrepancy(gram)
            done = eps <= cfg.eps_star
            if t == max_iters:
                done[:] = True
            # zeta decides K1 and is the final zeta: without rows, a trial past K1 needs it only at its last step
            zeta = np.full(len(ids), np.nan)
            need = done | (k1 < 0) | (row is not None)
            if need.any():
                cosines = _cosines(gram[need])
                zeta[need] = _similarity(cosines)
            if row is not None:
                row(TrajectoryRow(t, float(zeta[0]), float(eps[0]), cosines[0],
                                  *(np.asarray(value).item() for value in step)))
            k1, k2 = rule.advance(k1, k2, t, zeta, eps)
            if done.any():
                for i in np.flatnonzero(done):
                    result = TrialResult(trial_id=ids[i], derived_seed=seeds[i], phase=rule.report(k1[i], k2[i]),
                                         final_zeta=float(zeta[i]), final_eps=float(eps[i]), iters_run=t,
                                         skipped_steps=t - int(nonskipped[i]))
                    yield ids[i], result
                leave(~done)
                if not len(ids):
                    return
        sample = _draw_each(ubars, cfg.sigma_sq, normalize_signal, rngs)
        energy = _energy_outside(bases, sample.v) if cfg.mode is StepMode.ORACLE_NOISY else None
        t += 1
        record = t % record_every == 0 or t == max_iters
        try:
            _, _, _, p_sq, r_sq, alpha, theta, bases, skipped = _step(bases, sample.x, step_cfg, energy, nonskipped)
            step = theta, alpha, p_sq, r_sq, skipped
        except Exception:  # step the trials one at a time: a trial that raises ends alone
            outs = [_step_alone(step_cfg, bases, sample.x, energy, nonskipped, i) for i in range(len(ids))]
            failed = np.array([isinstance(out, Exception) for out in outs])
            for i in np.flatnonzero(failed):
                yield ids[i], outs[i]
            leave(~failed)
            if not len(ids):
                return
            bases, skipped = (np.concatenate(part) for part in zip(*(outs[i] for i in np.flatnonzero(~failed))))
        nonskipped += ~skipped


def _one_trial(cfg: ExperimentConfig, trial_id: int, initial_basis: np.ndarray | None, row) -> TrialResult:
    """Trial ``trial_id`` of ``cfg`` run alone, handing each recorded row to ``row`` unless it is ``None``.

    ``trial_id`` and ``initial_basis`` are checked before any draw; a trial that fails raises its error.
    """
    trial_id = _typed("trial_id", trial_id, int)
    if trial_id < 0:
        raise ValueError(f"trial_id must be >= 0, got {trial_id}")
    if initial_basis is not None:
        if np.shape(initial_basis) != (cfg.n, cfg.d):
            raise ValueError(f"initial_basis must have shape {(cfg.n, cfg.d)}, got {np.shape(initial_basis)}")
        initial_basis = check_orthonormal(initial_basis)
    ((_, outcome),) = _run_stack(cfg, [trial_id], initial_basis, row)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def run_trajectory(
    cfg: ExperimentConfig,
    trial_id: int = 0,
    initial_basis: np.ndarray | None = None,
) -> tuple[TrialResult, list[TrajectoryRow]]:
    """Run one trajectory to the accuracy target or the iteration horizon; return its result and every row.

    The trial's stream seeds the planted model, the starting basis, and
    all observations.  Metrics are recorded at the configured cadence (the
    initial and final iterates always included) and the recorded sequence
    is phase-split against the config's targets.  ``initial_basis``
    overrides the random start (pass the model's own basis to simulate a
    converged start); it must be an orthonormal ``(n, d)`` basis, and
    ``trial_id`` an integer >= 0, else ``ValueError`` is raised before any draw.
    """
    rows: list[TrajectoryRow] = []
    return _one_trial(cfg, trial_id, initial_basis, rows.append), rows


@contextlib.contextmanager
def _output(path: str):
    """A text file for ``path``: written as a temporary sibling, moved onto ``path`` on success, removed on error.

    Entering it raises ``OSError`` when ``path`` cannot be written, so enter
    it before the work that fills it; ``path`` is untouched until then.
    """
    if os.path.isdir(path):  # os.replace would refuse it only after the work
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    partial = f"{path}.{os.getpid()}.tmp"
    fh = open(partial, "w", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(partial)
        raise


def _metadata_lines(cfg: ExperimentConfig, extra: dict | None = None) -> list[str]:
    meta = {"config": cfg.to_dict(), "master_seed": cfg.seed}
    if extra:
        meta.update(extra)
    lines = [f"# {key}={json.dumps(value, sort_keys=True)}" for key, value in meta.items()]
    lines.append(f"# generated_at={time.strftime('%Y-%m-%dT%H:%M:%S%z')}")
    return lines


def _trajectory_head(cfg: ExperimentConfig) -> str:
    return "\n".join([*_metadata_lines(cfg), TRAJECTORY_HEADER, ""])


def _trajectory_line(row: TrajectoryRow) -> str:
    return (f"{row.t},{row.zeta!r},{row.epsilon!r},{row.theta!r},{row.alpha!r},"
            f"{row.p_norm_sq!r},{row.r_norm_sq!r},{int(row.skipped)}\n")


def write_trajectory_csv(path: str, cfg: ExperimentConfig, rows: Sequence[TrajectoryRow]) -> None:
    """Persist recorded rows with their configuration header, as ``run_single`` streams them."""
    with _output(path) as fh:
        fh.write(_trajectory_head(cfg))
        fh.writelines(map(_trajectory_line, rows))


def run_single(cfg: ExperimentConfig, trial_id: int = 0) -> TrialResult:
    """Run one trajectory and, when ``cfg.out_path`` is set, stream its CSV.

    The CSV is opened before the first step and each row is written as it
    is recorded, so memory does not grow with the horizon.  Without
    ``out_path`` no row is built, and the similarity's SVD is taken only
    until ``K1`` and at the last step, as in a sweep.
    """
    if not cfg.out_path:
        return _one_trial(cfg, trial_id, None, None)
    with _output(cfg.out_path) as fh:
        fh.write(_trajectory_head(cfg))
        return _one_trial(cfg, trial_id, None, lambda row: fh.write(_trajectory_line(row)))


@dataclass(frozen=True)
class SweepConfigSummary:
    """Per-config aggregate of a sweep: phase ratios over converged trials."""

    cfg: ExperimentConfig
    results: list[TrialResult]
    errors: dict[int, str]
    k1_ratios: list[float]
    k2_ratios: list[float]

    @property
    def n_converged(self) -> int:
        return len(self.k2_ratios)

    def _mean_var(self, values: list[float]) -> tuple[float, float]:
        if not values:
            return math.nan, math.nan
        arr = np.asarray(values)
        var = float(arr.var(ddof=1)) if len(values) > 1 else 0.0
        return float(arr.mean()), var

    def csv_row(self) -> str:
        cfg = self.cfg
        k1_ratio_mean, k1_ratio_var = self._mean_var(self.k1_ratios)
        k2_ratio_mean, k2_ratio_var = self._mean_var(self.k2_ratios)
        raw_k1 = [r.phase.k1 for r in self.results if r.phase.k1 is not None]
        raw_k2 = [r.phase.k2 for r in self.results if r.phase.k2 is not None]
        k1_mean = float(np.mean(raw_k1)) if raw_k1 else math.nan
        k2_mean = float(np.mean(raw_k2)) if raw_k2 else math.nan
        return (
            f"{cfg.n},{cfg.d},{cfg.sigma_sq!r},{cfg.mode.value},{cfg.trials},"
            f"{cfg.eps_star!r},{cfg.seed},{self.n_converged},{len(self.errors)},"
            f"{k1_mean!r},{k1_ratio_mean!r},{k1_ratio_var!r},"
            f"{k2_mean!r},{k2_ratio_mean!r},{k2_ratio_var!r}"
        )


def _run_config_trials(cfg: ExperimentConfig) -> SweepConfigSummary:
    # stacks of at most _CHUNK_ELEMENTS basis elements: one trial per stack at large sizes
    width = max(1, _CHUNK_ELEMENTS // (cfg.n * cfg.d))
    trial_ids = range(cfg.trials)
    outcomes = {trial_id: outcome for start in range(0, cfg.trials, width)
                for trial_id, outcome in _run_stack(cfg, trial_ids[start:start + width], None)}
    ordered = [outcomes[i] for i in sorted(outcomes) if isinstance(outcomes[i], TrialResult)]
    errors = {i: f"{type(outcomes[i]).__name__}: {outcomes[i]}" for i in sorted(outcomes)
              if isinstance(outcomes[i], Exception)}
    k1_den = cfg.d**3 * math.log(cfg.n)
    k2_den = cfg.d * math.log(1.0 / cfg.eps_star)
    k1_ratios = [r.phase.k1 / k1_den for r in ordered if r.phase.k1 is not None]
    k2_ratios = [r.phase.k2 / k2_den for r in ordered if r.phase.k1 is not None and r.phase.k2 is not None]
    return SweepConfigSummary(cfg=cfg, results=ordered, errors=errors,
                              k1_ratios=k1_ratios, k2_ratios=k2_ratios)


def run_sweep(
    configs: Sequence[ExperimentConfig],
    out_path: str | None = None,
) -> list[SweepConfigSummary]:
    """Run every config of a grid and aggregate the measured phase ratios.

    Per config, the measured ``K1`` is normalized by ``d^3 log(n)`` and the
    measured ``K2`` by ``d log(1/eps_star)``; the summary reports mean and
    variance over converged trials, so every config needs ``eps_star < 1``,
    and no config may set ``out_path``, since a sweep writes no trajectory
    (``ValueError`` before any trial runs).  With ``out_path`` the summary
    table is written as CSV and per-trial detail as ``<out_path>.json``:
    both are opened before the first trial and appear only if the sweep ends.
    """
    if not configs:
        raise ValueError("sweep needs at least one config")
    for cfg in configs:
        if cfg.eps_star >= 1:
            raise ValueError(f"a sweep needs eps_star < 1 (K2 is normalized by d log(1/eps_star)), got {cfg.eps_star}")
        if cfg.out_path is not None:
            raise ValueError(f"a sweep writes no trajectory CSV, so a config takes no out_path, got {cfg.out_path!r}")
    with contextlib.ExitStack() as outputs:
        files = [outputs.enter_context(_output(path)) for path in (out_path, out_path + ".json")] if out_path else []
        summaries = [_run_config_trials(cfg) for cfg in configs]
        for fh, write in zip(files, (write_sweep_csv, write_sweep_json)):
            write(fh, summaries)
    return summaries


def write_sweep_csv(fh: TextIO, summaries: Sequence[SweepConfigSummary]) -> None:
    """Write the summary table, with its metadata header, to the open text file ``fh``."""
    lines = _metadata_lines(summaries[0].cfg, extra={"configs": len(summaries)})
    lines.append(SWEEP_HEADER)
    lines.extend(summary.csv_row() for summary in summaries)
    fh.write("\n".join(lines) + "\n")


def write_sweep_json(fh: TextIO, summaries: Sequence[SweepConfigSummary]) -> None:
    """Write the per-trial detail document to the open text file ``fh``."""
    doc = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "configs": [
            {
                "config": summary.cfg.to_dict(),
                "n_converged": summary.n_converged,
                "errors": summary.errors,
                "trials": [r.to_dict() for r in summary.results],
            }
            for summary in summaries
        ],
    }
    json.dump(doc, fh, indent=2, sort_keys=True)
    fh.write("\n")


def bounds_table(params_list: Sequence[BoundParams], out_path: str | None = None) -> list[str]:
    """Evaluate the iteration-bound formulas per parameter row.

    Returns CSV rows (without header); rows whose parameters violate a
    formula precondition carry the error message instead of values.
    Written to ``out_path`` with the header when given.  An empty
    ``params_list`` raises ``ValueError``.
    """
    if not params_list:
        raise ValueError("bounds table needs at least one parameter row")
    rows = []
    for p in params_list:
        given = f"{p.n},{p.d},{p.sigma_sq!r},{p.rho!r},{p.rho_prime!r},{p.eps_star!r},"
        try:
            mu0_value, k1, k2 = mu0(p), k1_bound(p), k2_bound(p)
            rows.append(given + f"{mu0_value!r},{k1!r},{k2!r},{k1 + k2!r},")
        except ValueError as exc:
            rows.append(given + f",,,,\"{exc}\"")
    if out_path:
        with _output(out_path) as fh:
            fh.write("\n".join([BOUNDS_HEADER, *rows, ""]))
    return rows
