import importlib
import inspect
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


@pytest.mark.parametrize(
    "function",
    [qdp.flsim.make_task_data, qdp.flsim.train, qdp.lira.fit_attack, qdp.lira.audit_run],
)
def test_run_entry_points_take_only_the_config(function):
    # the config alone reproduces a run, so no entry point takes more
    assert list(inspect.signature(function).parameters) == ["config"]
