"""The benchmark's workloads, run in process at smoke sizes.

``bench/workloads.py`` drives qdp through the public names and outputs the
benchmark relies on; every op must succeed and match its reference, so a
change to that surface fails here before it fails the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("seed", [3, 7])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_tiny_op_succeeds_and_matches_its_reference(name, seed, tmp_path):
    wl = workloads.WORKLOADS[name](seed, True, tmp_path)
    wl.prepare()
    assert wl.ops
    for op in wl.ops:
        found = wl.inspect(op, op.call())
        assert found.error is None, op.label
        assert wl.verify(op, found.values) is None, op.label
