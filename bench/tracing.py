"""Timing shims installed on qdp's module attributes while the benchmark runs.

A shim records a span (name, start, end, parent) around each call of a
traced function and keeps it in memory; nothing inside ``src/`` changes. A
function that no longer exists is reported as absent, and tracing goes on.
Self time is a span's duration minus the durations of its child spans
(calls are nested on one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

TRACED = {
    "pmf": ("quantized_gaussian_pmf", "partial_first_moment"),
    "accountant": ("epsilon_one", "epsilon_infinity", "renyi_divergence", "calibrate_sigma"),
    "quantizer": ("clip_vector", "quantize", "stochastic_round"),
    "flsim": ("make_task_data", "local_update", "privatize_delta", "aggregate", "evaluate",
              "fit_centralized", "train"),
    "lira": ("audit_run", "fit_out_distribution", "score", "attack_accuracy"),
    "cli": ("parse_config",),
}
# The artifact writers; their time together is the cli layer's write time.
WRITERS = {"flsim": ("write_run_artifact",), "lira": ("write_report",)}
WRITE_SPAN = "cli.write"
# Digesting each shadow training set is the tracer's own work; its span is a
# child of the caller, so it is excluded from every reported self time.
HOOK_SPAN = "trace.hook"


def _qdp_modules():
    return [m for name, m in sys.modules.items() if name == "qdp" or name.startswith("qdp.")]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index or -1]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.fit_digests: list[bytes] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _begin(self, name_id: int) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name_id, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _end(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def _shim(self, span_name: str, fn, hook=None):
        name_id = self._name_id(span_name)
        hook_id = self._name_id(HOOK_SPAN)

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if hook is not None:
                h = self._begin(hook_id)
                hook(*args, **kwargs)
                self._end(h)
            index = self._begin(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(index)

        return shim

    def _record_fit(self, x, y, *args, **kwargs):
        self.fit_digests.append(hashlib.blake2b(x.tobytes() + y.tobytes(), digest_size=16).digest())

    def install(self) -> None:
        """Replace every binding of each traced function in the qdp modules."""
        targets = []
        for group, span_of in ((TRACED, None), (WRITERS, WRITE_SPAN)):
            for module, functions in group.items():
                mod = sys.modules.get(f"qdp.{module}")
                for fn_name in functions:
                    qualified = f"{module}.{fn_name}"
                    original = getattr(mod, fn_name, None)
                    if original is None:
                        self.absent.append(qualified)
                        continue
                    hook = self._record_fit if qualified == "flsim.fit_centralized" else None
                    targets.append((original, self._shim(span_of or qualified, original, hook)))
        for mod in _qdp_modules():
            for attr, value in list(vars(mod).items()):
                for original, shim in targets:
                    if value is original:
                        self._patched.append((mod, attr, value))
                        setattr(mod, attr, shim)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def mark(self) -> tuple[int, int]:
        """Positions in the span and digest logs, to cut them into passes."""
        return len(self.spans), len(self.fit_digests)

    def pass_summary(self, start: tuple[int, int], end: tuple[int, int]) -> dict:
        """Calls, self time and total time per span name within one pass."""
        spans = self.spans[start[0]:end[0]]
        child_time = defaultdict(float)
        for name_id, t0, t1, parent in spans:
            if parent >= start[0]:
                child_time[parent] += t1 - t0
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        for offset, (name_id, t0, t1, parent) in enumerate(spans):
            name = self.names[name_id]
            calls[name] += 1
            total_s[name] += t1 - t0
            self_s[name] += (t1 - t0) - child_time[start[0] + offset]
        digests = self.fit_digests[start[1]:end[1]]
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "total_s": dict(total_s),
            "fit_calls": len(digests),
            "distinct_fit_sets": len(set(digests)),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["name", "start_s", "end_s", "parent"],
            "names": self.names,
            "spans": self.spans,
            "absent": self.absent,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)


def traced_names() -> list[str]:
    return [f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns]
