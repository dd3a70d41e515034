import importlib

import pytest

import grouse

SUBMODULES = ("bounds", "checks", "core", "data", "harness", "subspaces")


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_are_package_attributes(name):
    module = importlib.import_module(f"grouse.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(grouse, attr)]
    assert missing == []
