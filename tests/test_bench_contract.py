"""The benchmark's workloads, run in process at smoke sizes.

``bench/workloads.py`` drives qdp through the public names and outputs the
benchmark relies on; every op must succeed and match its reference, so a
change to that surface fails here before it fails the benchmark.
``bench/tracing.py`` times qdp's functions by name, so a rename that leaves
a traced name behind fails here too.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = load_bench_module("workloads")


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


def test_only_the_known_dead_shims_trace_missing_names():
    # a traced name that qdp lacks is timed as absent, not as zero; these four
    # were deleted before the shims caught up, and no other may join them
    tracing = load_bench_module("tracing")
    missing = {
        f"{module}.{name}"
        for group in (tracing.TRACED, tracing.WRITERS)
        for module, names in group.items()
        for name in names
        if not hasattr(importlib.import_module(f"qdp.{module}"), name)
    }
    assert missing == {
        "pmf.partial_first_moment",
        "quantizer.stochastic_round",
        "flsim.local_update",
        "flsim.fit_centralized",
    }
