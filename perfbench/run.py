#!/usr/bin/env python3
"""Benchmark of the grouse package, one workload per invocation.

    python3 perfbench/run.py --workload sweep_small --seed 1 --seconds 20 --trace 0

Run from the root of a grouse source tree; the package is imported from
``src/``.  The workload's inputs are made from ``--seed``; every pass of a
run repeats the same inputs.  One pass is one ``grouse.cli.main`` call,
timed from outside, followed (untimed) by the workload's output gates.

With ``--trace 0`` the run prints every end-to-end metric of
``BENCHMARK.json``: ``setup_s`` is the median CPU time fresh interpreters
spend importing grouse and making the inputs (timed inside each, one after
every timed pass); ``cpu_s`` and ``steps_per_cpu_s`` are medians over the
passes after the first (warm-up) pass of the CPU time of this process, all
its threads; ``peak_rss_mb`` is the peak resident set of this process.
Wall times are printed and kept in the detail file but are not metrics:
on a shared virtual machine the time other tenants take from its CPUs
shows in the wall time of a pass and not in its CPU time.  With
``--trace 1`` untraced passes alternate with passes under the tracer of
``tracer.py``, and the run prints the per-layer metrics (medians over the
traced passes).  Human-readable lines come first;
the last line of standard output is the JSON result.  Detail (environment
fingerprint, per-pass times, every layer statistic, the spans of the last
traced pass) is written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 7
MIN_TIMED_PASSES = 3

# times, inside a fresh interpreter, the import of grouse and the making of the inputs
# (wall and CPU time)
SETUP_SNIPPET = (
    "import time; start, start_cpu = time.perf_counter(), time.process_time(); "
    "import sys; from pathlib import Path; "
    "sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.WORKLOADS[sys.argv[3]].prepare(int(sys.argv[4]), Path(sys.argv[5])); "
    "print(time.perf_counter() - start, time.process_time() - start_cpu)"
)


def git_commit() -> str:
    """Commit of the source tree, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def fingerprint() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                       "unknown")
    except OSError:
        cpu = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "grouse_commit": git_commit(),
    }


def measure_setup(workload: str, seed: int, workdir: Path) -> tuple[float, float]:
    """Wall and CPU time a fresh interpreter takes to import grouse and make the inputs."""
    workdir.mkdir()
    child = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(BENCH_DIR),
                            workload, str(seed), str(workdir)],
                           check=True, timeout=120, capture_output=True, text=True)
    wall, cpu = child.stdout.split()
    return float(wall), float(cpu)


def run_pass(workload, argv: list[str], workdir: Path):
    """One timed call of the grouse command, then its output gates (untimed)."""
    import grouse.cli
    from workloads import Outcome

    for path in workdir.glob("out*"):
        path.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    crash = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start, start_cpu = time.perf_counter(), time.process_time()
        try:
            rc = grouse.cli.main(argv)
        except Exception:  # a crash fails the pass; the run goes on and reports it
            rc, crash = None, traceback.format_exc()
        wall, cpu = time.perf_counter() - start, time.process_time() - start_cpu
    if crash is None:
        try:
            outcome = workload.check(rc, stdout.getvalue(), workdir)
        except (KeyError, TypeError, ValueError, StopIteration) as exc:
            crash = f"outputs could not be checked: {exc!r}"
    if crash is not None:
        outcome = Outcome(ops=workload.expected_ops, failed=workload.expected_ops, steps=0,
                          problems=[crash])
    if stderr.getvalue():
        outcome.problems.append("stderr: " + stderr.getvalue().strip())
    return wall, cpu, outcome


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="master seed of the inputs")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "grouse" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: run from a grouse source tree ({SRC / 'grouse'} and {spec_path} "
              "are needed)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; pick from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    env = fingerprint()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "results").mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail: dict = {"workload": args.workload, "seed": args.seed, "env": env}
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp_name:
        tmp = Path(tmp_name)
        setups = []
        workdir = tmp / "run"
        workdir.mkdir()
        pass_argv = workload.prepare(args.seed, workdir)

        deadline = time.perf_counter() + args.seconds
        traced, layers = [], []
        if not args.trace:
            # the first pass warms caches and lazy imports and is not timed; a set-up
            # in a fresh interpreter follows every timed pass, so both face the same drift
            passes = [run_pass(workload, pass_argv, workdir)]
            while (len(passes) <= MIN_TIMED_PASSES or len(setups) < SETUP_REPEATS
                   or time.perf_counter() < deadline):
                passes.append(run_pass(workload, pass_argv, workdir))
                setups.append(measure_setup(args.workload, args.seed, tmp / f"setup{len(setups)}"))
        else:
            # untraced and traced passes alternate, so drift of the machine cancels in the overhead
            passes = [run_pass(workload, pass_argv, workdir)]
            spans_tracer = tracer.Tracer()
            while len(traced) < MIN_TIMED_PASSES or time.perf_counter() < deadline:
                passes.append(run_pass(workload, pass_argv, workdir))
                spans_tracer.spans.clear()
                spans_tracer.install()
                try:
                    wall, _, outcome = run_pass(workload, pass_argv, workdir)
                finally:
                    spans_tracer.uninstall()
                traced.append((wall, outcome))
                layers.append(tracer.layer_metrics(spans_tracer.spans, wall, workload.threads))

    outcomes = [o for *_, o in passes] + [o for _, o in traced]
    attempted = sum(o.ops for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = list(dict.fromkeys(p for o in outcomes for p in o.problems))
    if len({o.digest for o in outcomes}) != 1:
        problems.append("passes of one seed produced different outputs")
    walls = [w for w, _, _ in passes[1:]]
    detail.update(walls_s=[w for w, _, _ in passes], cpus_s=[c for _, c, _ in passes],
                  setups_wall_cpu_s=setups, steps_per_pass=[o.steps for o in outcomes], problems=problems)
    if args.trace:
        values = {key: statistics.median(p[key] for p in layers) for key in layers[0]}
        values["trace.overhead_s"] = statistics.median(w for w, _ in traced) - statistics.median(walls)
        for p in layers:
            gap = p["trace.wall_s"] - p["trace.self_sum_s"] - p["trace.uncovered_s"]
            if abs(gap) > 1e-6 * p["trace.wall_s"]:
                problems.append(f"self times and uncovered time miss the traced wall by {gap:.3e} s")
        wanted = spec["per_layer"]
        with open(OUT_DIR / "results" / f"{args.workload}-seed{args.seed}-spans.csv", "w",
                  encoding="utf-8") as fh:
            fh.write("name,id,parent,start_s,end_s\n")
            fh.writelines(f"{n},{i},{p},{s!r},{e!r}\n" for n, i, p, s, e, _ in spans_tracer.spans)
        detail.update(traced_walls_s=[w for w, _ in traced], layers=values)
    else:
        values = {
            "setup_s": statistics.median(c for _, c in setups),
            "cpu_s": statistics.median(c for _, c, _ in passes[1:]),
            "steps_per_cpu_s": statistics.median(o.steps / c for _, c, o in passes[1:]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
        q1, q2, q3 = statistics.quantiles(walls, n=4)
        print(f"passes {len(walls)} timed after 1 warm-up; wall time of a pass: median {q2:.4f} s, "
              f"quartiles {q1:.4f} .. {q3:.4f} s; wall time of a set-up: median "
              f"{statistics.median(w for w, _ in setups):.4f} s")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: no measurement for {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    for name, metric in metrics.items():
        print(f"{name:44s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'fail_ratio':44s} {failed / attempted:.6g} ({failed} of {attempted} ops_attempted)")
    for problem in problems[:20]:
        print("gate: " + problem)
    correct = not problems and failed == 0
    detail.update(correct=correct, attempted=attempted, failed=failed, metrics=metrics)
    with open(OUT_DIR / "results" / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
