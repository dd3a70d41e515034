"""Byte identity of the CLI's outputs: one SHA-256 per output, compared with ``tests/golden.json``.

Each case runs ``grouse.cli.main`` in this process, at seeds 1 and 7.  Before it is hashed, an output loses what
changes from one run to the next while no number moves: the ``generated_at`` stamp, the output directory and
``verify``'s elapsed time.  The digests hold for the environment recorded beside them (the numpy version, its BLAS
and the machine); on another environment the test skips and names both.  A change that moves bits on purpose
regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and names each digest it moved; a change that claims to move none leaves the file as it is.
"""

import contextlib
import hashlib
import io
import json
import platform
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

from grouse.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
SEEDS = (1, 7)
SWEEP = [  # the two configs of the benchmark's sweep_small workload, less its "threads", which has no effect
    {"n": 200, "d": 5, "sigma_sq": 0.0, "trials": 16, "eps_star": 1e-4, "mode": "greedy", "sparse_ubar": True},
    {"n": 150, "d": 4, "sigma_sq": 1e-3, "trials": 16, "mode": "practical", "max_iters": 500},
]


def _fingerprint() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}", "machine": platform.machine()}


def _cases(workdir: Path):
    """``(name, argv, files)`` of each case: the CLI arguments and the output files they write in ``workdir``."""
    bounds = ["bounds", "--n", "200", "--d", "5", "--rho", "0.1", "--rho-prime", "0.1", "--eps-star", "1e-4"]
    yield "bounds", [*bounds, "--out", str(workdir / "bounds.csv")], ["bounds.csv"]
    for seed in SEEDS:
        run = ["run", "--n", "200", "--d", "5", "--seed", str(seed)]
        yield f"run-greedy-{seed}", [*run, "--out", str(workdir / "greedy.csv")], ["greedy.csv"]
        noisy = ["--sigma2", "1e-3", "--mode", "practical", "--max-iters", "2000"]
        yield f"run-practical-{seed}", [*run, *noisy, "--out", str(workdir / "noisy.csv")], ["noisy.csv"]
        config = workdir / f"sweep-{seed}.json"
        config.write_text(json.dumps([{**cfg, "seed": seed} for cfg in SWEEP]), encoding="utf-8")
        yield (f"sweep-{seed}", ["sweep", "--config", str(config), "--out", str(workdir / "sweep.csv")],
               ["sweep.csv", "sweep.csv.json"])
        yield f"verify-{seed}", ["verify", "--suite", "all", "--intensity", "quick", "--seed", str(seed)], []


def _stable(text: str, workdir: Path) -> str:
    """``text`` less its time stamp, output directory and elapsed time."""
    text = re.sub(r"(generated_at\W+)[\dT:+-]+", r"\1", text.replace(str(workdir), "<out>"))
    return re.sub(r" in \d+\.\ds$", "", text, flags=re.MULTILINE)


def _digests(workdir: Path) -> dict:
    """The SHA-256 of every output of every case: its exit code and stdout, and each file it writes."""
    texts = {}
    for name, argv, files in _cases(workdir):
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = main(argv)
        texts[f"{name}.stdout"] = f"exit={code}\n{stdout.getvalue()}"
        texts.update({f"{name}/{file}": (workdir / file).read_text(encoding="utf-8") for file in files})
    return {name: hashlib.sha256(_stable(text, workdir).encode()).hexdigest() for name, text in texts.items()}


def test_cli_outputs_match_their_recorded_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if golden["environment"] != _fingerprint():
        pytest.skip(f"digests recorded on {golden['environment']}, this environment is {_fingerprint()}")
    digests = _digests(tmp_path)
    assert sorted(name for name in golden["digests"] if digests.get(name) != golden["digests"][name]) == []
    assert digests.keys() == golden["digests"].keys()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        record = {"environment": _fingerprint(), "digests": _digests(Path(workdir))}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
