"""Reproducible experiment harness: single trajectories, sweeps, bound tables.

Every trial derives its own random stream from ``(master seed, trial_id)``
through a counter-based ``SeedSequence`` spawn, so a trial's result depends
only on its config and id.  The trials of a config run in the calling
thread in lock-step: step t of every running trial is one update of a
stacked ``core.Tracker``, and each trial gets the bits it gets alone,
whatever the stack holds.  Trajectories are persisted as CSV with a
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
from typing import Iterable, Sequence, TextIO

import numpy as np

from .bounds import _CHUNK_ELEMENTS, BoundParams, PhaseReport, _Phases, k1_bound, k2_bound, k_total_bound, mu0
from .core import StepConfig, StepMode, Tracker, _energy_outside
from .data import PlantedModel, _draw_each, make_planted
from .subspaces import (MetricSample, _at_least, _column_major, _cosines, _discrepancy, _own_fields, _shaped,
                        _similarity, check_orthonormal, random_orthonormal)

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
    discrepancy and, by one LU determinant, the similarity; only the rows of
    ``run_trajectory`` also take its SVD, for the cosines.
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
        for name, least in ("trials", 1), ("seed", 0), ("max_iters", 1), ("record_every", 1), ("threads", 1):
            if getattr(self, name) is not None:  # max_iters and record_every may be None
                _at_least(name, getattr(self, name), least=least)

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
        return int(math.ceil(3.0 * k_total_bound(p)))

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "mode": self.mode.value}


def config_from_dict(raw: dict, cls: type = ExperimentConfig) -> ExperimentConfig | BoundParams:
    """Build a config (an ``ExperimentConfig``, or a ``BoundParams``) from a JSON-style dict whose keys are its fields.

    An unknown key or a missing field without a default raises a ``ValueError`` that names it.
    """
    names = {f.name for f in dataclasses.fields(cls)}
    required = {f.name for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING}
    for problem, keys in ("unknown", set(raw) - names), ("missing", required - set(raw)):
        if keys:
            raise ValueError(f"{problem} config fields: {sorted(keys)}")
    return cls(**raw)


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


def _run_stack(cfg: ExperimentConfig, trial_ids: Sequence[int], initial_basis: np.ndarray | None, row=None):
    """Run trials of ``cfg`` in one lock-step stack; yield ``(trial_id, result)`` as each ends.

    A trial that raises, at set-up or in a step, yields its exception for
    the result and leaves the stack; a step's exception is the one
    ``grouse_step`` raises for the trial alone.  Each trial keeps its own
    generator, model and phase split, and gets the bits it gets alone
    whatever the stack holds.  At each recorded step one stacked Gram
    ``Ubar^T U`` gives every running trial's discrepancy, which decides
    stopping and ``K2``, and its similarity (one LU determinant, no SVD),
    which decides ``K1``; a ``bounds._Phases`` keeps both.  With ``row`` the stack's one trial
    hands each recorded iterate to it when it is recorded, as
    ``row(gram, t, zeta, epsilon, theta, alpha, p_norm_sq, r_norm_sq, skipped)``
    with the (1, d, d) Gram and Python scalars in ``TRAJECTORY_HEADER``
    order, and nothing is kept; more trials raise ``ValueError``.
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
    # one row per trial in each array: the tracker's stack of bases and its counts, the column-major ground truths
    ids, seeds, rngs, models, starts = zip(*trials)
    ids, seeds, rngs = (np.array(column, dtype=object) for column in (ids, seeds, rngs))
    tracker = Tracker(np.stack(starts), cfg.step_config())
    ubars = _column_major(np.stack([model.ubar for model in models]))
    normalize_signal = models[0].normalize_signal
    del trials, models, starts  # the tracker and the stack hold the bases and ground truths from here on
    phases = _Phases(cfg.bound_params(), len(ids))

    def end(outcomes):  # {row: outcome} of the trials that end: yield each, then drop their rows everywhere
        nonlocal ids, seeds, rngs, ubars
        for i, outcome in outcomes.items():
            yield ids[i], outcome
        keep = ~np.isin(np.arange(len(ids)), list(outcomes))
        ids, seeds, rngs, ubars = (column[keep] for column in (ids, seeds, rngs, ubars))
        tracker._keep(keep)
        phases.keep(keep)

    record_every = cfg.resolved_record_every()
    max_iters = cfg.resolved_max_iters()
    # (theta, alpha, ||p||^2, ||r||^2, skipped) of the step that reached t, as _step returns them for one trial:
    # each a one-element array or a Python scalar
    step, record = (0.0, 0.0, 0.0, 0.0, False), True
    while len(ids):  # a step's failures can leave the stack empty
        if record:
            t = tracker.steps  # the iteration index: the count of steps the stack has taken
            gram = np.matmul(ubars.mT, tracker.basis)
            eps, zeta = _discrepancy(gram), _similarity(gram)
            done = eps <= cfg.eps_star
            if t == max_iters:
                done[:] = True
            if row is not None:
                row(gram, t, float(zeta[0]), float(eps[0]), *(np.asarray(value).item() for value in step))
            phases.advance(t, zeta, eps)
            if done.any():
                yield from end({i: TrialResult(trial_id=ids[i], derived_seed=seeds[i], phase=phases.report(i),
                                               final_zeta=float(zeta[i]), final_eps=float(eps[i]), iters_run=t,
                                               skipped_steps=int(tracker.skipped_steps[i]))
                                for i in np.flatnonzero(done)})
                if not len(ids):
                    return
        sample = _draw_each(ubars, cfg.sigma_sq, normalize_signal, rngs)
        energy = _energy_outside(tracker.basis, sample.v) if cfg.mode is StepMode.ORACLE_NOISY else None
        _, _, _, p_sq, r_sq, alpha, theta, _, skipped, errors = tracker._update_rows(sample.x, energy)
        step = theta, alpha, p_sq, r_sq, skipped
        record = tracker.steps % record_every == 0 or tracker.steps == max_iters
        if errors:  # dropping no row would still copy every array
            yield from end(errors)


def _one_trial(cfg: ExperimentConfig, trial_id: int, initial_basis: np.ndarray | None, row) -> TrialResult:
    """Trial ``trial_id`` of ``cfg`` run alone, handing each recorded row to ``row`` unless it is ``None``.

    ``trial_id`` and ``initial_basis`` are checked before any draw; a trial that fails raises its error.
    """
    trial_id = _at_least("trial_id", trial_id)
    if initial_basis is not None:
        initial_basis = check_orthonormal(_shaped("initial_basis", initial_basis, (cfg.n, cfg.d)))
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

    def keep(gram, t, zeta, epsilon, *step):  # the cosines are the one SVD of a row
        rows.append(TrajectoryRow(t, zeta, epsilon, _cosines(gram)[0], *step))

    return _one_trial(cfg, trial_id, initial_basis, keep), rows


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


def _metadata_lines(meta: dict) -> list[str]:
    lines = [f"# {key}={json.dumps(value, sort_keys=True)}" for key, value in meta.items()]
    lines.append(f"# generated_at={time.strftime('%Y-%m-%dT%H:%M:%S%z')}")
    return lines


def _trajectory_head(cfg: ExperimentConfig) -> str:
    return "\n".join([*_metadata_lines({"config": cfg.to_dict(), "master_seed": cfg.seed}), TRAJECTORY_HEADER, ""])


def _trajectory_line(t, zeta, epsilon, theta, alpha, p_norm_sq, r_norm_sq, skipped) -> str:
    return f"{t},{zeta!r},{epsilon!r},{theta!r},{alpha!r},{p_norm_sq!r},{r_norm_sq!r},{int(skipped)}\n"


def write_trajectory_csv(path: str, cfg: ExperimentConfig, rows: Sequence[TrajectoryRow]) -> None:
    """Persist recorded rows with their configuration header, as ``run_single`` streams them."""
    columns = TRAJECTORY_HEADER.split(",")
    with _output(path) as fh:
        fh.write(_trajectory_head(cfg))
        fh.writelines(_trajectory_line(*(getattr(row, column) for column in columns)) for row in rows)


def run_single(cfg: ExperimentConfig, trial_id: int = 0) -> TrialResult:
    """Run one trajectory and, when ``cfg.out_path`` is set, stream its CSV.

    The CSV is opened before the first step and each row is written as it
    is recorded, so memory does not grow with the horizon.  No row object
    is built and no SVD is taken: the CSV has no cosines, and the
    similarity is one LU determinant per recorded step, as in a sweep.
    """
    if not cfg.out_path:
        return _one_trial(cfg, trial_id, None, None)
    with _output(cfg.out_path) as fh:
        fh.write(_trajectory_head(cfg))
        return _one_trial(cfg, trial_id, None, lambda gram, *values: fh.write(_trajectory_line(*values)))


@dataclass(frozen=True)
class SweepConfigSummary:
    """Per-config aggregate of a sweep: phase ratios over converged trials, derived from ``results`` and ``cfg``."""

    cfg: ExperimentConfig
    results: list[TrialResult]
    errors: dict[int, str]

    @property
    def k1_ratios(self) -> list[float]:
        """Each measured ``K1`` over ``d^3 log(n)``, in trial order."""
        k1_den = self.cfg.d**3 * math.log(self.cfg.n)
        return [r.phase.k1 / k1_den for r in self.results if r.phase.k1 is not None]

    @property
    def k2_ratios(self) -> list[float]:
        """Each measured ``K2`` of a trial that met both targets over ``d log(1/eps_star)``, in trial order."""
        k2_den = self.cfg.d * math.log(1.0 / self.cfg.eps_star)
        return [r.phase.k2 / k2_den for r in self.results if r.phase.k1 is not None and r.phase.k2 is not None]

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
    return SweepConfigSummary(cfg=cfg, results=ordered, errors=errors)


def run_sweep(
    configs: Iterable[ExperimentConfig],
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
    ``configs`` is read once, so a generator runs the sweep its list runs.
    """
    configs = list(configs)
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
    lines = _metadata_lines({"configs": [summary.cfg.to_dict() for summary in summaries]})
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
