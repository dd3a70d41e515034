"""Command-line front end: run, sweep, bounds, verify.

Exit codes: 0 success, 1 usage error, 2 property failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .bounds import BoundParams
from .checks import SUITES, verify
from .core import StepMode
from .harness import ExperimentConfig, bounds_table, config_from_dict, run_single, run_sweep

USAGE_ERROR = 1
PROPERTY_FAILURE = 2
IO_ERROR = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True, help="ambient dimension")
    parser.add_argument("--d", type=int, required=True, help="subspace dimension")
    parser.add_argument("--sigma2", type=float, default=0.0, help="noise-to-signal energy bound")
    parser.add_argument("--trials", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--max-iters", type=int, default=None)
    parser.add_argument("--eps-star", type=float, default=1e-4, help="target discrepancy")
    parser.add_argument("--mode", choices=[m.value for m in StepMode], default="greedy")
    parser.add_argument("--sparse", action="store_true", help="sparse ground-truth basis")
    parser.add_argument("--c", type=float, default=1.0, help="practical step-size constant")
    parser.add_argument("--record-every", type=int, default=None)
    parser.add_argument("--out", default=None, help="output path")


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        n=args.n,
        d=args.d,
        sigma_sq=args.sigma2,
        trials=args.trials,
        seed=args.seed,
        max_iters=args.max_iters,
        eps_star=args.eps_star,
        mode=StepMode(args.mode),
        sparse_ubar=args.sparse,
        c=args.c,
        record_every=args.record_every,
        out_path=args.out,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="grouse", description="Streaming subspace-estimation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one trajectory, write its CSV, print a JSON summary")
    _add_experiment_flags(run_p)

    sweep_p = sub.add_parser("sweep", help="run a config grid and write the summary table")
    sweep_p.add_argument("--config", required=True, help="JSON file: config dict or list of dicts")
    sweep_p.add_argument("--out", default=None, help="summary CSV path (JSON written alongside)")

    bounds_p = sub.add_parser("bounds", help="evaluate the iteration-bound formulas")
    bounds_p.add_argument("--params", default=None, help="JSON file: params dict or list of dicts")
    bounds_p.add_argument("--n", type=int, default=None)
    bounds_p.add_argument("--d", type=int, default=None)
    bounds_p.add_argument("--sigma2", type=float, default=0.0)
    bounds_p.add_argument("--eps-star", type=float, default=1e-4)
    bounds_p.add_argument("--rho", type=float, default=0.1)
    bounds_p.add_argument("--rho-prime", type=float, default=0.1)
    bounds_p.add_argument("--out", default=None)

    verify_p = sub.add_parser("verify", help="run the property suites")
    verify_p.add_argument("--suite", choices=SUITES + ("all",), default="all")
    verify_p.add_argument("--seed", type=int, default=0)
    verify_p.add_argument("--intensity", choices=("quick", "full"), default="quick")
    return parser


def _trial_out_path(out_path: str | None, trial_id: int, trials: int) -> str | None:
    if out_path is None or trials == 1:
        return out_path
    stem, ext = os.path.splitext(out_path)  # the extension of the file name only
    return f"{stem}-trial{trial_id}{ext}"


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    for trial_id in range(cfg.trials):
        trial_cfg = dataclasses.replace(
            cfg, out_path=_trial_out_path(cfg.out_path, trial_id, cfg.trials)
        )
        result = run_single(trial_cfg, trial_id)
        print(json.dumps(result.to_dict(), sort_keys=True))
    return 0


def _load_dicts(path: str) -> list[dict]:
    """Entries of a JSON file holding one dict or a list of dicts."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    return [raw] if isinstance(raw, dict) else raw


def _cmd_sweep(args: argparse.Namespace) -> int:
    configs = [config_from_dict(entry) for entry in _load_dicts(args.config)]
    summaries = run_sweep(configs, out_path=args.out)
    for summary in summaries:
        print(summary.csv_row())
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    if args.params:
        params = [BoundParams(**entry) for entry in _load_dicts(args.params)]
    else:
        if args.n is None or args.d is None:
            raise ValueError("bounds needs either --params or both --n and --d")
        params = [
            BoundParams(n=args.n, d=args.d, sigma_sq=args.sigma2, rho=args.rho,
                        rho_prime=args.rho_prime, eps_star=args.eps_star)
        ]
    for row in bounds_table(params, out_path=args.out):
        print(row)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify(suite=args.suite, seed=args.seed, intensity=args.intensity)
    for result in report.results:
        print(result.line())
    print(f"{'OK' if report.passed else 'FAILED'}: {len(report.results)} properties "
          f"in {report.runtime_s:.1f}s")
    return 0 if report.passed else PROPERTY_FAILURE


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "bounds": _cmd_bounds,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except OSError as exc:
        print(f"grouse: i/o error: {exc}", file=sys.stderr)
        return IO_ERROR
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"grouse: error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
