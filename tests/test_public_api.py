import importlib
import pkgutil

import pytest

import qdp

MODULES = ["qdp"] + [f"qdp.{info.name}" for info in pkgutil.iter_modules(qdp.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_mechanism_spec_has_one_definition():
    assert qdp.MechanismSpec is qdp.accountant.MechanismSpec is qdp.pmf.MechanismSpec
