"""Command-line front end: run, sweep, bounds, verify.

Exit codes: 0 success, 1 usage error (a ``ValueError``), 2 property failure, 3 I/O error.
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
from .harness import bounds_table, config_from_dict, run_single, run_sweep

USAGE_ERROR = 1
PROPERTY_FAILURE = 2
IO_ERROR = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    """Flags whose ``dest`` names are the ``ExperimentConfig`` fields they set."""
    parser.add_argument("--n", type=int, required=True, help="ambient dimension")
    parser.add_argument("--d", type=int, required=True, help="subspace dimension")
    parser.add_argument("--sigma2", dest="sigma_sq", metavar="SIGMA2", type=float, help="noise-to-signal energy bound")
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--max-iters", type=int)
    parser.add_argument("--eps-star", type=float, help="target discrepancy")
    parser.add_argument("--mode", choices=[m.value for m in StepMode])
    parser.add_argument("--sparse", dest="sparse_ubar", action="store_true", help="sparse ground-truth basis")
    parser.add_argument("--c", type=float, help="practical step-size constant")
    parser.add_argument("--record-every", type=int)
    parser.add_argument("--out", dest="out_path", metavar="OUT", help="output path")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="grouse", description="Streaming subspace-estimation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one trajectory, write its CSV, print a JSON summary",
                           argument_default=argparse.SUPPRESS)  # an absent flag leaves the field's default
    _add_experiment_flags(run_p)

    sweep_p = sub.add_parser("sweep", help="run a config grid and write the summary table")
    sweep_p.add_argument("--config", required=True, help="JSON file: config dict or list of dicts")
    sweep_p.add_argument("--out", default=None, help="summary CSV path (JSON written alongside)")

    bounds_p = sub.add_parser("bounds", help="evaluate the iteration-bound formulas")
    bounds_p.add_argument("--params", default=None, help="JSON file: params dict or list of dicts")
    # dest names are the BoundParams fields they set; an absent flag leaves the field's default
    bounds_p.add_argument("--n", type=int)
    bounds_p.add_argument("--d", type=int)
    bounds_p.add_argument("--sigma2", dest="sigma_sq", metavar="SIGMA2", type=float)
    bounds_p.add_argument("--eps-star", type=float)
    bounds_p.add_argument("--rho", type=float)
    bounds_p.add_argument("--rho-prime", type=float)
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
    cfg = config_from_dict({key: value for key, value in vars(args).items() if key != "command"})
    for trial_id in range(cfg.trials):
        trial_cfg = dataclasses.replace(
            cfg, out_path=_trial_out_path(cfg.out_path, trial_id, cfg.trials)
        )
        result = run_single(trial_cfg, trial_id)
        print(json.dumps(result.to_dict(), sort_keys=True))
    return 0


def _load_dicts(path: str) -> list[dict]:
    """Entries of a JSON file holding one object or a non-empty list of objects; else ``ValueError``."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    entries = [raw] if isinstance(raw, dict) else raw
    if not isinstance(entries, list) or not entries or not all(isinstance(entry, dict) for entry in entries):
        raise ValueError(f"{path} must hold a JSON object or a non-empty list of objects")
    return entries


def _cmd_sweep(args: argparse.Namespace) -> int:
    configs = [config_from_dict(entry) for entry in _load_dicts(args.config)]
    summaries = run_sweep(configs, out_path=args.out)
    for summary in summaries:
        print(summary.csv_row())
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    given = {key: value for key, value in vars(args).items()
             if key not in ("command", "params", "out") and value is not None}
    if args.params:
        if given:
            raise ValueError(f"--params takes no parameter flags, got {sorted(given)}")
        params = [config_from_dict(entry, BoundParams) for entry in _load_dicts(args.params)]
    else:
        params = [config_from_dict(given, BoundParams)]
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
    except ValueError as exc:  # json.JSONDecodeError is one
        print(f"grouse: error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
