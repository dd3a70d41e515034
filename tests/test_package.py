import importlib
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
