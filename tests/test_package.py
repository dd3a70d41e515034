import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import grouse

SUBMODULES = ("bounds", "checks", "core", "data", "harness", "subspaces")


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_are_package_attributes(name):
    module = importlib.import_module(f"grouse.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(grouse, attr)]
    assert missing == []


def test_standard_error_has_one_owner():
    """The sample standard error is computed in one place, ``bounds._mean_se``."""
    from grouse.bounds import _mean_se

    package = Path(grouse.__file__).parent
    hits = [(path.name, line) for path in sorted(package.glob("*.py"))
            for line in path.read_text(encoding="utf-8").splitlines() if "std(ddof=1)" in line]
    assert len(hits) == 1, hits
    assert hits[0][1].strip() in inspect.getsource(_mean_se)


def test_similarity_formula_has_one_owner():
    """The product of squared cosines is written once, in ``subspaces._similarity``."""
    from grouse.subspaces import _similarity

    package = Path(grouse.__file__).parent
    hits = [(path.name, line) for path in sorted(package.glob("*.py"))
            for line in path.read_text(encoding="utf-8").splitlines() if "np.prod(cosines * cosines" in line]
    assert len(hits) == 1, hits
    assert hits[0][1].strip() in inspect.getsource(_similarity)


def test_phase_rule_has_one_owner():
    """The phase targets and the K1/K2 update are written once, in ``bounds._PhaseRule``.

    ``detect_phases`` and the harness's trial engine both apply it; the harness binds no ``detect_phases``.
    """
    import grouse.harness
    from grouse.bounds import _PhaseRule

    package = Path(grouse.__file__).parent
    hits = [(path.name, line) for path in sorted(package.glob("*.py"))
            for line in path.read_text(encoding="utf-8").splitlines()
            if not line.lstrip().startswith("def ")
            and ("_target(" in line or ">= self.target_zeta" in line or "<= self.target_eps" in line)]
    source = inspect.getsource(_PhaseRule)
    assert len(hits) == 3 and all(line.strip() in source for _, line in hits), hits
    assert grouse.harness._PhaseRule is _PhaseRule and "detect_phases" not in vars(grouse.harness)


def test_trial_loop_has_one_owner():
    """The harness steps and draws only in its lock-step engine.

    It binds neither ``grouse_step`` nor ``draw_sample``.
    """
    import grouse.harness

    assert {"grouse_step", "draw_sample"}.isdisjoint(vars(grouse.harness))


def test_package_runs_no_threads():
    """Trials run one after another: no module of the package imports a thread or process pool."""
    package = Path(grouse.__file__).parent
    hits = [(path.name, line) for path in sorted(package.glob("*.py"))
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.lstrip().startswith(("import ", "from ")) and ("concurrent" in line or "threading" in line)]
    assert hits == []


def test_traced_layers_resolve_to_package_functions():
    """Every ``<layer>.<function>`` the benchmark tracer wraps exists in ``grouse.<layer>``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{layer}.{name}" for layer, names in tracer.LAYERS.items()
               for name in names if not callable(getattr(importlib.import_module(f"grouse.{layer}"), name, None))]
    assert tracer.LAYERS and missing == []
