"""Reproducible experiment harness: single trajectories, sweeps, bound tables.

Every trial derives its own random stream from ``(master seed, trial_id)``
through a counter-based ``SeedSequence`` spawn, so a trial's result depends
only on its config and id.  The trials of a config run in the calling
thread in lock-step: step t of every running trial is one update of a
stack of bases through ``core._step``, and each trial gets the bits it gets
alone, whatever the stack holds.  Trajectories are persisted as CSV with a
``#``-prefixed metadata header embedding the full configuration; sweep
summaries are written as CSV plus a JSON document carrying per-trial detail.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import _CHUNK_ELEMENTS, BoundParams, PhaseReport, _PhaseRule, k1_bound, k2_bound, mu0
from .core import OracleInfo, StepConfig, StepMode, _checked, _energy_outside, _step
from .data import PlantedModel, _draw_each, make_planted
from .subspaces import (MetricSample, _cosines, _discrepancy, _similarity, check_orthonormal,
                        random_orthonormal, reorthonormalize)

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

    ``max_iters=None`` resolves to three times the combined theoretical
    iteration bound (at failure probabilities 0.1/0.1), so convergence
    checks against the bound can fail meaningfully instead of timing out.
    ``record_every=None`` resolves to 1 when ``n * d <= 1e5`` and 10
    otherwise.  A recorded step costs a d x d Gram matrix, which gives the
    discrepancy; a trajectory also takes its SVD (the cosines and the
    similarity) at every recorded step, a sweep only until the trial
    reaches ``K1`` and at its last step.
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
        # BoundParams checks d < n, sigma_sq and eps_star; StepConfig checks c
        self.bound_params()
        self.step_config()
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
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
        out = dataclasses.asdict(self)
        out["mode"] = self.mode.value
        return out


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from a JSON-style dict whose keys mirror the field names."""
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    data = dict(raw)
    if "mode" in data and not isinstance(data["mode"], StepMode):
        data["mode"] = StepMode(data["mode"])
    return ExperimentConfig(**data)


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
class TrajectoryRow:
    """One recorded trajectory row: iterate metrics plus the step that produced it."""

    sample: MetricSample
    theta: float = 0.0
    alpha: float = 0.0
    skipped: bool = False


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


# A recorded row holds zeta, epsilon, the step's theta, alpha, ||p||^2, ||r||^2 and skipped flag,
# then the principal-angle cosines.  A stack keeps its trials' rows in blocks of _HISTORY_CHUNK steps.
_COSINES = 7
_HISTORY_CHUNK = 64


def _lockstep(step_cfg: StepConfig, bases, x, energy, nonskipped, record: bool):
    """One step of a stack of trials: row ``i`` updates ``bases[i]`` with ``x[i]``.

    A row whose non-skipped step count reaches a multiple of the config's
    ``reorth_period`` is re-orthonormalized, as ``grouse_step`` does.  Returns
    the updated bases, the skipped flags and, when ``record``, one recorded
    row per trial with the step's columns (theta to skipped) filled in.
    """
    _, _, _, p_sq, r_sq, alpha, theta, updated, skipped = _step(bases, x, step_cfg, energy)
    due = ~skipped & (nonskipped % step_cfg.reorth_period == step_cfg.reorth_period - 1)
    for i in due.nonzero()[0]:
        updated[i] = reorthonormalize(updated[i])
    if not record:
        return updated, skipped, None
    if skipped.any():  # a skipped step records alpha = theta = 0, as a single skipped step returns
        alpha, theta = np.where(skipped, 0.0, alpha), np.where(skipped, 0.0, theta)
    block = np.empty((len(updated), _COSINES + updated.shape[-1]))
    for column, value in enumerate((theta, alpha, p_sq, r_sq, skipped), start=2):
        block[:, column] = value
    return updated, skipped, block


def _lockstep_row(step_cfg: StepConfig, bases, x, energy, nonskipped, record: bool, i: int):
    """``_lockstep`` on row ``i`` alone, after the input checks of ``grouse_step``, or the exception it raised."""
    row = slice(i, i + 1)
    try:
        if energy is not None:
            OracleInfo(v_perp_norm_sq=float(energy[i]))
        _checked(bases[i], x[i])
        return _lockstep(step_cfg, bases[row], x[row], None if energy is None else energy[row],
                         nonskipped[row], record)
    except Exception as exc:  # the row's trial ends; the others go on
        return exc


def _trial_rows(times: list[int], history: list[np.ndarray], slot: int) -> list[TrajectoryRow]:
    """Rows of the trial in column ``slot`` of the history, one per entry of ``times``.

    The rows' cosines are views into the history.
    """
    columns = np.concatenate([chunk[:, slot, :_COSINES] for chunk in history])[:len(times)].T.tolist()
    cosines = (row for chunk in history for row in chunk[:, slot, _COSINES:])
    return [
        TrajectoryRow(
            sample=MetricSample(t=t, zeta=zeta, epsilon=eps, cos_angles=cos,
                                residual_norm_sq=r_sq, projection_norm_sq=p_sq),
            theta=theta, alpha=alpha, skipped=bool(skipped),
        )
        for t, zeta, eps, theta, alpha, p_sq, r_sq, skipped, cos
        in zip(times, *columns, cosines)
    ]


def _run_stack(cfg: ExperimentConfig, trial_ids: Sequence[int], initial_basis: np.ndarray | None, rows: bool):
    """``_run_trials`` on trials that fit one stack."""
    trials = []
    for trial_id in trial_ids:
        try:
            trials.append((trial_id, *_start_trial(cfg, trial_id, initial_basis)))
        except Exception as exc:  # keep the other trials alive
            yield trial_id, exc, None
    if not trials:
        return
    # one row per trial in each array; a trial that ends leaves every array
    ids, seeds, rngs, models, starts = zip(*trials)
    ids, seeds, rngs = (np.array(column, dtype=object) for column in (ids, seeds, rngs))
    bases = np.stack(starts)
    ubars = np.stack([model.ubar for model in models])
    normalize_signal = models[0].normalize_signal
    del trials, models, starts  # the stacks hold the bases and ground truths from here on
    started = len(ids)
    nonskipped = np.zeros(started, dtype=int)
    k1, k2 = np.full(started, -1), np.full(started, -1)  # each trial's phase split so far, -1 while unmet
    slots = np.arange(started)  # each trial's column in the history, which keeps a column per started trial
    rule = _PhaseRule.of(cfg.bound_params(), noisy=cfg.sigma_sq > 0)
    step_cfg = cfg.step_config()
    record_every = cfg.resolved_record_every()
    max_iters = cfg.resolved_max_iters()
    history: list[np.ndarray] = []  # blocks of _HISTORY_CHUNK recorded steps
    times: list[int] = []
    t, record = 0, True
    block = np.zeros((started, _COSINES + cfg.d))  # the start's step columns hold 0
    while True:
        if record:
            gram = np.matmul(ubars.swapaxes(-1, -2), bases)
            eps = _discrepancy(gram)
            done = eps <= cfg.eps_star
            if t == max_iters:
                done[:] = True
            if rows:
                cosines = _cosines(gram)
                zeta = _similarity(cosines)
                block[:, 0], block[:, 1], block[:, _COSINES:] = zeta, eps, cosines
                if len(times) % _HISTORY_CHUNK == 0:
                    history.append(np.empty((_HISTORY_CHUNK, started, _COSINES + cfg.d)))
                history[-1][len(times) % _HISTORY_CHUNK, slots] = block
                times.append(t)
            else:  # zeta decides K1 and is the final zeta: a trial past K1 needs it only at its last step
                zeta = np.full(len(ids), np.nan)
                need = done | (k1 < 0)
                if need.any():
                    zeta[need] = _similarity(_cosines(gram[need]))
            k1, k2 = rule.advance(k1, k2, t, zeta, eps)
            if done.any():
                for i in np.flatnonzero(done):
                    result = TrialResult(trial_id=ids[i], derived_seed=seeds[i], phase=rule.report(k1[i], k2[i]),
                                         final_zeta=float(zeta[i]), final_eps=float(eps[i]), iters_run=t,
                                         skipped_steps=t - int(nonskipped[i]))
                    yield ids[i], result, _trial_rows(times, history, slots[i]) if rows else None
                keep = ~done
                ids, seeds, rngs, bases, ubars, nonskipped, k1, k2, slots = (
                    column[keep] for column in (ids, seeds, rngs, bases, ubars, nonskipped, k1, k2, slots))
                if not len(ids):
                    return
        sample = _draw_each(ubars, cfg.sigma_sq, normalize_signal, rngs)
        energy = _energy_outside(bases, sample.v) if cfg.mode is StepMode.ORACLE_NOISY else None
        t += 1
        record = t % record_every == 0 or t == max_iters
        try:
            bases, skipped, block = _lockstep(step_cfg, bases, sample.x, energy, nonskipped, record and rows)
        except Exception:  # step the rows one at a time: a row that raises ends its trial alone
            outs = [_lockstep_row(step_cfg, bases, sample.x, energy, nonskipped, record and rows, i)
                    for i in range(len(ids))]
            keep = np.array([not isinstance(out, Exception) for out in outs])
            for i in np.flatnonzero(~keep):
                yield ids[i], outs[i], None
            ids, seeds, rngs, ubars, nonskipped, k1, k2, slots = (
                column[keep] for column in (ids, seeds, rngs, ubars, nonskipped, k1, k2, slots))
            if not len(ids):
                return
            bases, skipped, block = (None if part[0] is None else np.concatenate(part)
                                     for part in zip(*(out for out, k in zip(outs, keep) if k)))
        nonskipped += ~skipped


def _run_trials(cfg: ExperimentConfig, trial_ids: Sequence[int], initial_basis: np.ndarray | None = None,
                rows: bool = True):
    """Run trials of ``cfg``; yield ``(trial_id, result, rows)`` as each ends, or ``(trial_id, exception, None)``.

    The trials step in lock-step stacks of at most ``_CHUNK_ELEMENTS`` basis
    elements (one trial per stack at large sizes).  Each trial keeps its own
    generator, model and phase split, draws from its generator as it would
    alone, and gets the bits it gets alone whatever the stack holds.  At
    each recorded step the engine evaluates every running trial's
    discrepancy, which decides stopping and ``K2``, and advances ``K1`` and
    ``K2`` by ``bounds._PhaseRule``.  With ``rows`` it also keeps every
    recorded row and yields them with the result; without, it yields
    ``None`` for them, keeps no history and takes the SVD behind the
    similarity only for trials short of ``K1`` or at their last step.  A
    trial that raises, at set-up or in a step, ends with its exception and
    leaves the stack; the other trials go on.
    """
    width = max(1, _CHUNK_ELEMENTS // (cfg.n * cfg.d))
    for start in range(0, len(trial_ids), width):
        yield from _run_stack(cfg, trial_ids[start:start + width], initial_basis, rows)


def run_trajectory(
    cfg: ExperimentConfig,
    trial_id: int = 0,
    initial_basis: np.ndarray | None = None,
) -> tuple[TrialResult, list[TrajectoryRow]]:
    """Run one trajectory to the accuracy target or the iteration horizon.

    The trial's stream seeds the planted model, the starting basis, and
    all observations.  Metrics are recorded at the configured cadence (the
    initial and final iterates always included) and the recorded sequence
    is phase-split against the config's targets.  ``initial_basis``
    overrides the random start (pass the model's own basis to simulate a
    converged start); it must be an orthonormal ``(n, d)`` basis, else
    ``ValueError`` is raised before any draw.
    """
    if initial_basis is not None:
        if np.shape(initial_basis) != (cfg.n, cfg.d):
            raise ValueError(f"initial_basis must have shape {(cfg.n, cfg.d)}, got {np.shape(initial_basis)}")
        initial_basis = check_orthonormal(initial_basis)
    ((_, outcome, rows),) = _run_trials(cfg, [trial_id], initial_basis)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome, rows


def _metadata_lines(cfg: ExperimentConfig, extra: dict | None = None) -> list[str]:
    meta = {"config": cfg.to_dict(), "master_seed": cfg.seed}
    if extra:
        meta.update(extra)
    lines = [f"# {key}={json.dumps(value, sort_keys=True)}" for key, value in meta.items()]
    lines.append(f"# generated_at={time.strftime('%Y-%m-%dT%H:%M:%S%z')}")
    return lines


def write_trajectory_csv(path: str, cfg: ExperimentConfig, rows: Sequence[TrajectoryRow]) -> None:
    """Persist a recorded trajectory with its configuration header."""
    lines = _metadata_lines(cfg)
    lines.append(TRAJECTORY_HEADER)
    for row in rows:
        s = row.sample
        lines.append(
            f"{s.t},{s.zeta!r},{s.epsilon!r},{row.theta!r},{row.alpha!r},"
            f"{s.projection_norm_sq!r},{s.residual_norm_sq!r},{int(row.skipped)}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def run_single(cfg: ExperimentConfig, trial_id: int = 0) -> TrialResult:
    """Run one trajectory and, when configured, persist its CSV."""
    result, rows = run_trajectory(cfg, trial_id)
    if cfg.out_path:
        write_trajectory_csv(cfg.out_path, cfg, rows)
    return result


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
    outcomes = {}
    for trial_id, outcome, _ in _run_trials(cfg, range(cfg.trials), rows=False):
        outcomes[trial_id] = outcome
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
    variance over converged trials.  With ``out_path`` the summary table is
    written as CSV and per-trial detail as ``<out_path>.json``.
    """
    if not configs:
        raise ValueError("sweep needs at least one config")
    summaries = [_run_config_trials(cfg) for cfg in configs]
    if out_path:
        write_sweep_csv(out_path, summaries)
        write_sweep_json(out_path + ".json", summaries)
    return summaries


def write_sweep_csv(path: str, summaries: Sequence[SweepConfigSummary]) -> None:
    lines = _metadata_lines(summaries[0].cfg, extra={"configs": len(summaries)})
    lines.append(SWEEP_HEADER)
    lines.extend(summary.csv_row() for summary in summaries)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_sweep_json(path: str, summaries: Sequence[SweepConfigSummary]) -> None:
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def bounds_table(params_list: Sequence[BoundParams], out_path: str | None = None) -> list[str]:
    """Evaluate the iteration-bound formulas per parameter row.

    Returns CSV rows (without header); rows whose parameters violate a
    formula precondition carry the error message instead of values.
    Written to ``out_path`` with the header when given.
    """
    rows = []
    for p in params_list:
        try:
            mu0_value = mu0(p)
            k1 = k1_bound(p)
            k2 = k2_bound(p)
            rows.append(
                f"{p.n},{p.d},{p.sigma_sq!r},{p.rho!r},{p.rho_prime!r},{p.eps_star!r},"
                f"{mu0_value!r},{k1!r},{k2!r},{k1 + k2!r},"
            )
        except ValueError as exc:
            rows.append(
                f"{p.n},{p.d},{p.sigma_sq!r},{p.rho!r},{p.rho_prime!r},{p.eps_star!r},"
                f",,,,\"{exc}\""
            )
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(BOUNDS_HEADER + "\n")
            fh.write("\n".join(rows) + "\n")
    return rows
