"""Reproducible experiment harness: single trajectories, sweeps, bound tables.

Every trial derives its own random stream from ``(master seed, trial_id)``
through a counter-based ``SeedSequence`` spawn, so a trial's result depends
only on its config and id.  A sweep runs the trials of a config one after
another in the calling thread.  Trajectories are persisted as CSV with a
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

from .bounds import BoundParams, PhaseReport, detect_phases, k1_bound, k2_bound, mu0
from .core import OracleInfo, StepConfig, StepMode, grouse_step
from .data import make_planted, draw_sample
from .subspaces import MetricSample, check_orthonormal, metric_sample, random_orthonormal

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
    otherwise; metrics cost one small SVD per recorded step.
    ``threads`` must be >= 1 and has no effect: a sweep always runs the
    trials of a config one after another in the calling thread.
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
    ss, derived_seed = derive_trial_seed(cfg.seed, trial_id)
    rng = np.random.default_rng(ss)
    model = make_planted(cfg.n, cfg.d, cfg.sigma_sq, cfg.sparse_ubar, rng)
    basis = initial_basis if initial_basis is not None else random_orthonormal(cfg.n, cfg.d, rng)

    step_cfg = cfg.step_config()
    record_every = cfg.resolved_record_every()
    max_iters = cfg.resolved_max_iters()
    noisy = cfg.sigma_sq > 0

    rows = [TrajectoryRow(sample=metric_sample(0, basis, model.ubar))]
    nonskipped = 0
    t = 0
    if rows[0].sample.epsilon > cfg.eps_star:
        while t < max_iters:
            sample = draw_sample(model, rng)
            oracle = None
            if cfg.mode is StepMode.ORACLE_NOISY:
                oracle = OracleInfo.from_signal(basis, sample.v)
            out = grouse_step(basis, sample.x, step_cfg, oracle=oracle, nonskipped_steps=nonskipped)
            basis = out.updated
            nonskipped += not out.skipped
            t += 1
            if t % record_every == 0 or t == max_iters:
                row = TrajectoryRow(
                    sample=metric_sample(
                        t,
                        basis,
                        model.ubar,
                        residual_norm_sq=float(out.r @ out.r),
                        projection_norm_sq=float(out.p @ out.p),
                    ),
                    theta=out.theta,
                    alpha=out.alpha,
                    skipped=out.skipped,
                )
                rows.append(row)
                if row.sample.epsilon <= cfg.eps_star:
                    break

    samples = [row.sample for row in rows]
    phase = detect_phases(samples, cfg.bound_params(), noisy=noisy)
    result = TrialResult(
        trial_id=trial_id,
        derived_seed=derived_seed,
        phase=phase,
        final_zeta=samples[-1].zeta,
        final_eps=samples[-1].epsilon,
        iters_run=t,
        skipped_steps=t - nonskipped,
    )
    return result, rows


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
    ordered: list[TrialResult] = []
    errors: dict[int, str] = {}
    for trial_id in range(cfg.trials):
        try:
            ordered.append(run_trajectory(cfg, trial_id)[0])
        except Exception as exc:  # keep the sweep alive on per-trial failures
            errors[trial_id] = f"{type(exc).__name__}: {exc}"
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
