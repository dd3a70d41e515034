import ast
import importlib
import importlib.util
import inspect
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import grouse

SUBMODULES = ("bounds", "checks", "core", "data", "harness", "subspaces")


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_are_package_attributes(name):
    module = importlib.import_module(f"grouse.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(grouse, attr)]
    assert missing == []


def test_public_names_have_one_owner():
    """Each public name of ``grouse`` is listed in exactly one submodule's ``__all__``, and only there.

    ``grouse/__init__.py`` re-exports with ``from .<module> import *`` and imports nothing by name.  Submodules (``cli``
    too, once imported) are attributes of the package, not names it re-exports.
    """
    modules = {name: importlib.import_module(f"grouse.{name}") for name in SUBMODULES}
    public = [name for name, value in vars(grouse).items() if not name.startswith("_") and not inspect.ismodule(value)]
    owners = {name: [m for m, module in modules.items() if name in module.__all__] for name in public}
    assert public and all(len(found) == 1 for found in owners.values()), owners
    assert all(getattr(grouse, name) is getattr(modules[found[0]], name) for name, found in owners.items())
    tree = ast.parse(Path(grouse.__file__).read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports and all(isinstance(node, ast.ImportFrom) and [a.name for a in node.names] == ["*"]
                           for node in imports), [ast.unparse(node) for node in imports]


def test_output_files_have_one_owner():
    """Every file the package writes is opened by ``harness._output``; its one other ``open`` reads a config file."""
    from grouse.harness import _output

    package = Path(grouse.__file__).parent
    hits = [(path.name, line.strip()) for path in sorted(package.glob("*.py"))
            for line in path.read_text(encoding="utf-8").splitlines() if re.search(r"\bopen\(", line)]
    assert [name for name, _ in hits] == ["cli.py", "harness.py"], hits
    assert '"w"' not in hits[0][1] and hits[1][1] in inspect.getsource(_output)


def test_standard_error_has_one_owner():
    """The sample standard error is computed in one place, ``bounds._mean_se``."""
    from grouse.bounds import _mean_se

    package = Path(grouse.__file__).parent
    hits = [(path.name, line) for path in sorted(package.glob("*.py"))
            for line in path.read_text(encoding="utf-8").splitlines() if "std(ddof=1)" in line]
    assert len(hits) == 1, hits
    assert hits[0][1].strip() in inspect.getsource(_mean_se)


def test_similarity_formula_has_one_owner():
    """The squared determinant of the Gram is written once, in ``subspaces._similarity``.

    The package's one other determinant is the unsquared ``det(M M^T)`` that ``zeta_determinant_agreement`` checks
    ``_similarity`` against.
    """
    from grouse.subspaces import _similarity

    package = Path(grouse.__file__).parent
    hits = [(path.name, line) for path in sorted(package.glob("*.py"))
            for line in path.read_text(encoding="utf-8").splitlines() if "_squares(np.linalg.det(" in line]
    assert len(hits) == 1, hits
    assert hits[0][1].strip() in inspect.getsource(_similarity)
    dets = [(path.name, line.strip()) for path in sorted(package.glob("*.py"))
            for line in path.read_text(encoding="utf-8").splitlines() if "linalg.det(" in line]
    reference = ("checks.py", "z_det = float(np.linalg.det(m @ m.T))")
    assert dets == [reference, ("subspaces.py", hits[0][1].strip())], dets


def test_every_property_has_one_row_and_no_module_spawns():
    """Each property function of ``grouse.checks`` has one row of ``_PROPERTIES``; no module calls ``.spawn(``.

    A property's generator is its row's stream, so no property needs a generator spawned from another.
    """
    from grouse import checks

    properties = sorted(name for name, value in vars(checks).items() if inspect.isfunction(value)
                        and not name.startswith("_") and value.__annotations__.get("return") == "PropertyResult")
    rows = [name for _, _, name in checks._PROPERTIES]
    assert sorted(rows) == properties, (rows, properties)
    package = Path(grouse.__file__).parent
    spawns = [(path.name, line.strip()) for path in sorted(package.glob("*.py"))
              for line in path.read_text(encoding="utf-8").splitlines() if ".spawn(" in line]
    assert spawns == []


def test_every_property_takes_its_row_sizes_only():
    """A property function takes ``rng`` and one parameter per size key of its ``_PROPERTIES`` row, none defaulted.

    Every other size of a property is a literal or a constant of ``grouse.checks``, so nothing outside the table can
    run a property at sizes its row does not give.
    """
    from grouse import checks

    for _, keys, name in checks._PROPERTIES:
        params = list(inspect.signature(getattr(checks, name)).parameters.values())
        assert [p.name for p in params[:1]] == ["rng"] and len(params) == 1 + len(keys), (name, params)
        assert all(p.default is p.empty for p in params), (name, params)


def test_no_case_rule_has_one_owner():
    """The case loop and its rule that no evaluated case measures ``None`` are written once, in ``checks._worst``.

    ``default=None`` appears in ``grouse.checks`` only in ``_worst``, and no property spells the rule itself: none
    measures ``... if ... else None`` (as in ``worst if pairs > 0 else None``) or keeps an ``evaluated`` counter.
    """
    from grouse import checks

    owner = inspect.getsource(checks._worst)
    assert inspect.getsource(checks).count("default=None") == owner.count("default=None") == 1
    for _, _, name in checks._PROPERTIES:
        tree = ast.parse(inspect.getsource(getattr(checks, name)))
        by_hand = [ast.unparse(node) for node in ast.walk(tree)
                   if isinstance(node, ast.IfExp) and ast.unparse(node.orelse) == "None"
                   or isinstance(node, ast.Name) and node.id == "evaluated"]
        assert by_hand == [], (name, by_hand)


def test_ufunc_buffer_has_one_owner():
    """The ufunc buffer size is set once, in ``core._step``, inside the ``np.errstate`` block that restores it.

    ``np.setbufsize`` appears once in the package, so no other code changes a size that a caller would see.
    """
    from grouse import core

    package = Path(grouse.__file__).parent
    hits = [(path.name, line.strip()) for path in sorted(package.glob("*.py"))
            for line in path.read_text(encoding="utf-8").splitlines() if "setbufsize" in line]
    assert hits == [("core.py", "np.setbufsize(_UFUNC_BUFSIZE)")], hits
    scopes = [node for node in ast.walk(ast.parse(inspect.getsource(core._step))) if isinstance(node, ast.With)
              and any(ast.unparse(item.context_expr).startswith("np.errstate(") for item in node.items)]
    assert len(scopes) == 1 and "np.setbufsize(" in ast.unparse(scopes[0])


def test_phase_rule_has_one_owner():
    """The phase targets, each trajectory's K1 and K2 and their update are written once, in ``bounds._Phases``.

    ``detect_phases`` and the harness's trial engine each advance one and hold no K1/K2 of their own: the engine
    names no ``k1`` or ``k2``, builds no ``-1`` array, and ends every trial by one path, the one call that drops
    rows from its ``Tracker``.  The harness binds no ``detect_phases``.
    """
    import grouse.harness
    from grouse.bounds import _Phases, detect_phases

    package = Path(grouse.__file__).parent
    hits = [(path.name, line) for path in sorted(package.glob("*.py"))
            for line in path.read_text(encoding="utf-8").splitlines()
            if not line.lstrip().startswith("def ")
            and ("_target(" in line or ">= self.target_zeta" in line or "<= self.target_eps" in line)]
    source = inspect.getsource(_Phases)
    assert len(hits) == 4 and all(line.strip() in source for _, line in hits), hits
    for function in detect_phases, grouse.harness._run_stack:
        tree = ast.parse(inspect.getsource(function))
        names = ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
                 | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})
        assert not [name for name in names if re.search("k[12]", name, re.IGNORECASE)], function.__name__
        assert not [node for node in ast.walk(tree) if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
                    and isinstance(node.operand, ast.Constant)], function.__name__
    assert Path(grouse.harness.__file__).read_text(encoding="utf-8").count("._keep(") == 1
    assert "detect_phases" not in vars(grouse.harness)


def test_each_fact_has_one_source():
    """No public function takes a value that another of its arguments fixes.

    A rate check reads the problem from its model, a phase split the noise from its params and a sweep summary its
    ratios from its trials.  The four ``mc_*`` checks share the signature ``(model, basis, n_draws, rng)``.  No public
    function or class takes both ``model`` and ``params``, or a ``noisy`` flag, and ``SweepConfigSummary`` stores
    ``cfg``, ``results`` and ``errors`` only.
    """
    import dataclasses

    public = {name: getattr(grouse, name) for module in SUBMODULES
              for name in importlib.import_module(f"grouse.{module}").__all__}
    signatures = {name: list(inspect.signature(value).parameters) for name, value in public.items() if callable(value)}
    checks = {name: params for name, params in signatures.items() if name.startswith("mc_")}
    assert len(checks) == 4 and all(names == ["model", "basis", "n_draws", "rng"] for names in checks.values()), checks
    twice = [name for name, params in signatures.items() if {"model", "params"} <= set(params) or "noisy" in params]
    assert twice == [], twice
    assert [f.name for f in dataclasses.fields(grouse.SweepConfigSummary)] == ["cfg", "results", "errors"]


def test_trial_loop_has_one_owner():
    """The harness steps and draws only in its lock-step engine, and only the tracker writes the tracker's state.

    The harness binds neither ``grouse_step`` nor ``draw_sample`` nor ``core._step``, and keeps no step wrapper,
    private row layout or one-trial fallback: its one step is the stacked ``Tracker``'s, taken in ``_run_stack``.
    No package module assigns a ``basis``, ``steps`` or ``skipped_steps`` attribute outside ``Tracker``, and there
    only ``__init__``, the step (``_update_rows``) and the row drop (``_keep``) do.
    """
    import grouse.harness

    assert {"grouse_step", "draw_sample", "_step"}.isdisjoint(vars(grouse.harness))
    assert {"_lockstep", "_lockstep_row", "_COSINES", "_HISTORY_CHUNK", "_step_alone"}.isdisjoint(vars(grouse.harness))
    source = inspect.getsource(grouse.harness)
    calls = re.compile(r"\b_update_rows\(")
    assert len(calls.findall(source)) == 1 and calls.search(inspect.getsource(grouse.harness._run_stack))
    assert not re.search(r"\b_step\(", source)

    def writers(tree):  # the name of the function around each assignment to a state attribute
        for function in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
            for node in ast.walk(function):
                targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and any(
                        isinstance(part, ast.Attribute) and part.attr in {"basis", "steps", "skipped_steps"}
                        for target in targets for part in ast.walk(target)):
                    yield function.name

    package = Path(grouse.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    (tracker,) = (node for node in ast.walk(trees["core.py"]) if getattr(node, "name", None) == "Tracker")
    assert sorted(set(writers(tracker))) == ["__init__", "_keep", "_update_rows"]
    assert sum(1 for tree in trees.values() for _ in writers(tree)) == sum(1 for _ in writers(tracker))


def test_field_types_have_one_owner():
    """Each config field's type is enforced once, by ``subspaces._typed`` and its table, from the field's annotation.

    No other code tests ``numbers.Integral`` or ``math.isfinite`` or calls
    ``StepMode(``, no config lists its field names for a type check, and
    ``config_from_dict`` only rejects unknown keys: it has no ``mode`` branch.
    """
    import grouse.subspaces
    from grouse.harness import config_from_dict

    package = Path(grouse.__file__).parent
    typed = re.compile(r"numbers\.Integral|math\.isfinite|(?<!class )StepMode\(")
    hits = [(path.name, line) for path in sorted(package.glob("*.py"))
            for line in path.read_text(encoding="utf-8").splitlines() if typed.search(line)]
    source = inspect.getsource(grouse.subspaces)
    helper = source[source.index("_KINDS = "):source.index("def _own_fields(")]
    assert hits and all(line.strip() in helper for _, line in hits), hits
    assert "mode" not in inspect.getsource(config_from_dict)
    assert {"_check_int", "_check_optional_int", "_check_finite"}.isdisjoint(vars(grouse.subspaces))


def test_argument_rules_have_one_owner():
    """Each argument rule is written once: a dimension, a shape, a lower bound, a range and the step's inputs.

    ``0 < d < n`` is compared only in ``subspaces._dims``; ``must have shape`` is raised only in ``_shaped``,
    ``must be >= `` only in ``_at_least`` and ``must lie in`` only in ``_within``; ``isinstance(..., StepConfig)``
    and ``isinstance(..., OracleInfo)`` are tested only in ``core._step_inputs``.  A comparison counts as the
    dimension rule when one operand is ``d``-like (``d``, ``x.d``, ``x.shape[1]``) and one ``n``-like (``n``,
    ``x.n``, ``x.shape[0]``), whatever its form; an ``if`` that raises counts as a shape rule when its test reads a
    ``.shape`` or ``.ndim``.  The basis checks of ``check_orthonormal``, ``reorthonormalize``, ``project``, the
    metrics' cross-Gram and ``OracleInfo.from_signal`` go through ``_basis``, and the step path's dimensions (of
    ``grouse_step``'s ``_checked`` and of ``rotate_update``) through ``_dims``.  A non-finite update has one error,
    raised in ``core._finite``.
    """
    from grouse.core import OracleInfo, _checked, grouse_step, project, rotate_update
    from grouse.subspaces import _cross_gram, check_orthonormal, reorthonormalize

    dim, ambient = re.compile(r"^([\w.]+\.)?(d|shape\[1\])$"), re.compile(r"^([\w.]+\.)?(n|shape\[0\])$")
    shape = re.compile(r"\.(shape|ndim)\b|\bnp\.(shape|ndim)\(")
    compared, shape_rules, instance_checks = [], [], []
    raised = {"must have shape ": [], "must be >= ": [], "must lie in ": [], "update produced non-finite entries": []}
    for path in sorted(Path(grouse.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}  # each node's innermost function: an inner def's walk comes after its outer one's
        for func in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
            owner.update(dict.fromkeys(ast.walk(func), f"{path.stem}.{func.name}"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                operands = [ast.unparse(a) for a in (node.left, *node.comparators)]
                if any(map(dim.match, operands)) and any(map(ambient.match, operands)):
                    compared.append(owner.get(node))
            elif isinstance(node, ast.If) and shape.search(ast.unparse(node.test)):
                if any(isinstance(inner, ast.Raise) for statement in node.body for inner in ast.walk(statement)):
                    shape_rules.append(owner.get(node))
            elif isinstance(node, ast.Raise):
                for message, owners in raised.items():
                    if message in ast.unparse(node):
                        owners.append(owner.get(node))
            elif (isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance"
                  and re.search(r"\b(StepConfig|OracleInfo)\b", ast.unparse(node.args[1]))):
                instance_checks.append((owner.get(node), ast.unparse(node.args[1])))
    assert compared == ["subspaces._dims"], compared
    assert shape_rules == ["subspaces._shaped"], shape_rules
    assert raised == {"must have shape ": ["subspaces._shaped"], "must be >= ": ["subspaces._at_least"],
                      "must lie in ": ["subspaces._within"],
                      "update produced non-finite entries": ["core._finite"]}, raised
    assert instance_checks == [("core._step_inputs", kind) for kind in ("StepConfig", "OracleInfo")], instance_checks
    assert all("_basis(" in inspect.getsource(f)
               for f in (check_orthonormal, reorthonormalize, project, _cross_gram, OracleInfo.from_signal))
    assert all("_dims(" in inspect.getsource(f) for f in (_checked, rotate_update))
    assert "_checked(" in inspect.getsource(grouse_step)


def test_reorth_rule_has_one_owner():
    """Whether a step re-orthonormalizes is decided once, in ``Tracker``; what a skipped row reports, in ``core._step``.

    ``_step`` takes no count.  The harness binds no ``reorthonormalize`` and zeroes no skipped row's angles.  In
    ``grouse.core`` only ``grouse_step`` and the tracker's one step method, ``_update_rows``, call ``_step``;
    ``Tracker.update`` calls that method, and ``Tracker`` calls no ``grouse_step``.  No ``nonskipped`` count,
    ``_outcome`` helper or ``_step_alone`` is left in the package.
    """
    import grouse.core
    import grouse.harness
    from grouse.core import Tracker, _step, grouse_step

    package = Path(grouse.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    hits = [(name, line) for name, text in sources.items()
            for line in text.splitlines() if re.search(r"%\s*[\w.]*reorth_period", line)]
    assert len(hits) == 1, hits
    assert hits[0][1].strip() in inspect.getsource(Tracker)
    assert list(inspect.signature(_step).parameters) == ["U", "x", "cfg", "v_perp_norm_sq"]
    assert "reorthonormalize" not in vars(grouse.harness)
    assert "np.where(skipped" not in inspect.getsource(grouse.harness)
    calls = re.compile(r"(?<!def )\b_step\(")
    assert len(calls.findall(inspect.getsource(grouse.core))) == 2
    assert all(calls.search(inspect.getsource(caller)) for caller in (grouse_step, Tracker._update_rows))
    assert "grouse_step(" not in inspect.getsource(Tracker)
    assert re.search(r"\bself\._update_rows\(", inspect.getsource(Tracker.update))
    assert [name for name, text in sources.items() if re.search(r"nonskipped|\b_outcome\b|_step_alone", text)] == []


def test_no_caller_counts_steps():
    """The count of non-skipped steps that re-orthonormalization needs is kept by ``Tracker``, never by a caller.

    ``grouse_step`` takes no count, and ``nonskipped_steps`` appears nowhere in the package, the README or the demos.
    """
    root = Path(__file__).resolve().parents[1]
    paths = [*sorted((root / "src").rglob("*.py")), root / "README.md", *sorted((root / "demos").glob("*.py"))]
    assert [path.name for path in paths if "nonskipped_steps" in path.read_text(encoding="utf-8")] == []
    assert list(inspect.signature(grouse.grouse_step).parameters) == ["U", "x", "cfg", "oracle"]


def test_basis_layout_has_one_owner():
    """The harness passes its stacks of bases on as ``subspaces._column_major`` lays them out.

    It swaps no axes of its own and keeps no multi-trial row history (no ``slots``).
    """
    source = (Path(grouse.__file__).parent / "harness.py").read_text(encoding="utf-8")
    assert "swapaxes" not in source and "slots" not in source


def test_trajectory_row_has_one_owner():
    """A trajectory row is one ``MetricSample`` subclass whose fields are the CSV columns plus the cosines.

    ``MetricSample`` holds an iterate's metrics and nothing of the step that reached it.
    """
    import dataclasses

    from grouse.harness import TRAJECTORY_HEADER, TrajectoryRow
    from grouse.subspaces import MetricSample

    assert [f.name for f in dataclasses.fields(MetricSample)] == ["t", "zeta", "epsilon", "cos_angles"]
    assert issubclass(TrajectoryRow, MetricSample)
    row_fields = [f.name for f in dataclasses.fields(TrajectoryRow) if f.name != "cos_angles"]
    assert row_fields == TRAJECTORY_HEADER.split(",")


def test_package_runs_no_threads():
    """Trials run one after another: no module of the package imports a thread or process pool."""
    package = Path(grouse.__file__).parent
    hits = [(path.name, line) for path in sorted(package.glob("*.py"))
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.lstrip().startswith(("import ", "from ")) and ("concurrent" in line or "threading" in line)]
    assert hits == []


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_THREAD_TIMEOUT")
# 0.3 s after ``code``: the number of tasks (threads) and the CPU time, in clock ticks, of all but the main one
POOL = ("import os, time; time.sleep(0.3); tasks = os.listdir('/proc/self/task'); "
        "print(len(tasks), sum(sum(map(int, open(f'/proc/self/task/{t}/stat').read().rsplit(')', 1)[1].split()[11:13])) "
        "for t in tasks if t != str(os.getpid())))")


def _fresh(code: str, **env: str) -> list[str]:
    """What a fresh interpreter prints after ``code``: grouse from ``src``, no BLAS thread variable but ``env``."""
    inherited = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    src = str(Path(grouse.__file__).resolve().parents[1])
    child = subprocess.run([sys.executable, "-c", code + POOL], env={**inherited, "PYTHONPATH": src, **env},
                           check=True, capture_output=True, text=True, timeout=60)
    return child.stdout.split()


BLAS = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {}).get("name", "")
# where there is one core, or numpy's BLAS is not OpenBLAS, there is no worker to spin
needs_openblas_pool = pytest.mark.skipif(
    not os.access("/proc/self/task", os.R_OK) or (os.cpu_count() or 1) < 2 or "openblas" not in BLAS,
    reason="needs /proc/self/task, two cores and an OpenBLAS numpy")


@needs_openblas_pool
def test_import_keeps_the_pool_and_its_workers_sleep():
    """``import grouse`` starts numpy's whole pool, whose idle workers sleep at once, and leaves os.environ as it was."""
    same_env, tasks, ticks = _fresh("import os; before = dict(os.environ); import grouse; "
                                    "print(dict(os.environ) == before); ")
    plain_tasks, plain_ticks = _fresh("import numpy; ")
    assert (same_env, tasks) == ("True", plain_tasks) and int(tasks) >= 2
    assert int(ticks) <= 1 < 3 <= int(plain_ticks), (ticks, plain_ticks)


@pytest.mark.parametrize("code, env", [("import grouse; ", {"OPENBLAS_THREAD_TIMEOUT": "28"}),
                                       ("import numpy, grouse; ", {})], ids=["users-timeout", "numpy-first"])
@needs_openblas_pool
def test_a_timeout_numpy_read_first_wins(code, env):
    """The user's timeout, or the default that a numpy imported first read, keeps the workers spinning after start-up."""
    timeout, _, ticks = _fresh(code + "import os; print(os.environ.get('OPENBLAS_THREAD_TIMEOUT')); ", **env)
    assert timeout == env.get("OPENBLAS_THREAD_TIMEOUT", "None") and int(ticks) >= 3, (timeout, ticks)


def test_traced_layers_resolve_to_package_functions():
    """Every ``<layer>.<function>`` the benchmark tracer wraps exists in ``grouse.<layer>``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{layer}.{name}" for layer, names in tracer.LAYERS.items()
               for name in names if not callable(getattr(importlib.import_module(f"grouse.{layer}"), name, None))]
    assert tracer.LAYERS and missing == []


@pytest.mark.parametrize("path", sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py")),
                         ids=lambda path: path.name)
def test_demo_runs(path, capsys):
    """Each script in ``demos/`` runs to completion; what it prints is not checked."""
    runpy.run_path(str(path), run_name="__main__")
    capsys.readouterr()


def test_readme_api_quick_start_runs():
    """The README's ``python`` quick-start block runs as written, so the documented loop tracks the package."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    (block,) = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.DOTALL)
    exec(compile(block, str(readme), "exec"), {"__name__": "readme_quick_start"})


def test_committed_benchmark_records_parse_and_name_every_workload():
    """Every ``BENCH_*.json`` at the repository root is JSON and reports each workload of ``BENCHMARK.json``."""
    import json

    root = Path(__file__).resolve().parents[1]
    workloads = {w["name"] for w in json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]}
    records = sorted(root.glob("BENCH_*.json"))
    assert records, "no committed BENCH_*.json"
    for path in records:
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert set(doc["workloads"]) >= workloads, path.name
        assert {"nproc", "numpy", "blas"} <= set(doc["environment"]), path.name
