"""The benchmark's workloads: inputs from a seed, the ops, and their checks.

An op is one request a user of qdp makes and waits for: one budget query
(epsilon_one and epsilon_infinity of one mechanism) or one calibrate_sigma
call on budget_grid, one ``qdp fl-train`` on fl_paper, one ``qdp mia`` on
mia_sweep.
Every op calls qdp through a module attribute at call time, so the timing
shims of ``tracing`` see the same calls the untraced run makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_DIR = Path(__file__).resolve().parent / "references"
WORK_ROOT = ROOT / ".bench_work"

sys.path.insert(0, str(SRC))
import numpy as np  # noqa: E402

import qdp  # noqa: E402
from qdp import accountant, cli  # noqa: E402
from qdp.pmf import NoiseSpec  # noqa: E402
from qdp.quantizer import QuantizerSpec  # noqa: E402

if not Path(qdp.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"qdp was imported from {qdp.__file__}, not from {SRC}")

# --- budget_grid ---------------------------------------------------------
C_Q = 1.0
K_VALUES = (2, 3, 4, 8, 16, 32, 64, 128, 256, 1024)
SIGMAS = tuple(float(s) for s in np.logspace(-2, 1, 25))
CALIBRATION_TARGET = (5.0, 1e-5)
CALIBRATION_ROUNDS = (1, 10, 100, 1000)
TINY_K_VALUES = (2, 16)
TINY_SIGMAS = SIGMAS[::12]
TINY_CALIBRATION_ROUNDS = (1, 10)
# An accountant is only useful if it is accurate; 1e-6 is far above the
# rounding a double-precision evaluation of the closed forms should leave.
EPSILON_REL_TOL = 1e-6
# calibrate_sigma bisects to rel_tol = 1e-4 and returns the upper end.
CALIBRATION_REL_TOL = 2e-4

# --- fl_paper and mia_sweep ---------------------------------------------
# The benchmark seed selects one of these task seeds; references exist for each.
REFERENCE_SEEDS = 32
# Loss may drift by rounding (ulp-level shifts amplified over training);
# accuracies may move by at most one sample.
LOSS_REL_TOL = 1e-9
FL_PAPER = {
    "n_clients_total": 100,
    "n_sampled": 100,
    "rounds": 50,
    "local_steps": 10,
    "learning_rate": 0.5,
    "batch_size": 4,
    "c_q": 1.0,
    "sigma": 0.05,
    "k": 16,
    "dimension": 100,
    "samples_per_client": 8,
    "margin": 1.5,
    "test_samples": 2000,
}
FL_TINY = {**FL_PAPER, "n_clients_total": 4, "n_sampled": 4, "rounds": 3, "local_steps": 2,
           "dimension": 5, "test_samples": 200}
MIA_TASK = {
    "n_clients_total": 16,
    "n_sampled": 16,
    "rounds": 50,
    "local_steps": 10,
    "learning_rate": 0.5,
    "batch_size": 16,
    "c_q": 1.0,
    "dimension": 50,
    "samples_per_client": 64,
    "margin": 1.5,
    "test_samples": 2000,
    "m_shadows": 64,
    "audit_size": 512,
}
MIA_TINY = {**MIA_TASK, "n_clients_total": 2, "n_sampled": 2, "rounds": 3, "local_steps": 2,
            "dimension": 5, "samples_per_client": 16, "test_samples": 200, "m_shadows": 4,
            "audit_size": 16}
MIA_MECHANISMS = (("none", 0.0), (64, 0.02), (16, 0.02), (4, 0.02))  # (k, sigma)


@dataclass
class Op:
    label: str
    call: Callable[[], object]


@dataclass
class Inspection:
    """What an op produced: measured values, a fingerprint for repeat checks,
    the bytes it wrote, and an error if it failed outright."""

    values: dict | None
    fingerprint: str
    bytes_written: int = 0
    error: str | None = None


def epsilon_label(fn: str, k: int, sigma: float) -> str:
    return f"{fn} k={k} sigma={sigma!r}"


def calibration_label(rounds: int) -> str:
    eps, delta = CALIBRATION_TARGET
    return f"calibrate_sigma target=({eps!r}, {delta!r}) rounds={rounds}"


def _load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


def _rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def _call(fn, *args):
    """Run one accountant call, keeping its exception as its outcome."""
    try:
        return fn(*args)
    except Exception as exc:  # a raising call is a failed op, not a crash
        return exc


class BudgetGrid:
    """Budget queries over k x sigma, plus noise calibration; shuffled by seed.

    A query asks for both budgets of one mechanism, as a sweep row does.
    Timing the two calls as separate ops would put the median op exactly
    between two latency clusters (250 fast epsilon_infinity calls against
    254 slower ones), where it jumps between runs.
    """

    name = "budget_grid"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        ks = TINY_K_VALUES if tiny else K_VALUES
        sigmas = TINY_SIGMAS if tiny else SIGMAS
        rounds = TINY_CALIBRATION_ROUNDS if tiny else CALIBRATION_ROUNDS
        self.ops = []
        self.calls = {}  # op label -> labels of the calls it makes, in order
        for k in ks:
            for sigma in sigmas:
                mech = accountant.MechanismSpec(
                    noise=NoiseSpec(sigma=sigma), quant=QuantizerSpec(k=k, c_q=C_Q)
                )
                label = f"budget k={k} sigma={sigma!r}"
                self.calls[label] = [epsilon_label(fn, k, sigma)
                                     for fn in ("epsilon_one", "epsilon_infinity")]
                self.ops.append(Op(label, lambda m=mech: (
                    _call(accountant.epsilon_one, m), _call(accountant.epsilon_infinity, m))))
        target = accountant.DpPoint(*CALIBRATION_TARGET)
        for r in rounds:
            label = calibration_label(r)
            self.calls[label] = [label]
            self.ops.append(Op(label, lambda r=r: (
                _call(accountant.calibrate_sigma, target, r, C_Q),)))
        random.Random(seed).shuffle(self.ops)
        self.references = _load_reference(self.name)["values"]

    def prepare(self) -> None:
        pass

    def inspect(self, op: Op, outcome) -> Inspection:
        values, errors = {}, []
        for label, result in zip(self.calls[op.label], outcome):
            if isinstance(result, Exception):
                errors.append(f"{label}: {result!r}")
            elif not math.isfinite(result):
                errors.append(f"{label}: non-finite result {result!r}")
            else:
                values[label] = float(result)
        fingerprint = repr([r if not isinstance(r, Exception) else type(r).__name__
                            for r in outcome])
        return Inspection(values, fingerprint, error="; ".join(errors) or None)

    def verify(self, op: Op, values: dict) -> str | None:
        off = []
        for label, value in values.items():
            ref = self.references[label]
            tol = CALIBRATION_REL_TOL if label.startswith("calibrate") else EPSILON_REL_TOL
            if _rel_err(value, ref) > tol:
                off.append(f"{label}: {value!r} is off the reference {ref!r} by more than "
                           f"{tol:g} relative")
        return "; ".join(off) or None


def _write_config(path: Path, settings: dict) -> None:
    path.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main in-process, with its console output kept out of the benchmark's."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejecting the arguments
            code = exc.code
    return code, err.getvalue()


def _read_artifacts(out_dir: Path, names: tuple[str, ...]) -> tuple[dict[str, bytes], int]:
    blobs = {name: (out_dir / name).read_bytes() for name in names}
    written = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
    return blobs, written


def _digest(blobs: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(blobs):
        h.update(name.encode() + b"\0" + blobs[name])
    return h.hexdigest()


class _CliWorkload:
    """Shared plumbing of the workloads that drive qdp through cli.main."""

    name = ""
    artifacts: tuple[str, ...] = ()

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.tiny = tiny
        self.task_seed = seed % REFERENCE_SEEDS
        self.workdir = workdir / self.name
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.ops = []
        self.out_dirs = {}
        for label, settings in self.configs():
            config = self.workdir / f"{label}.conf"
            _write_config(config, settings)
            out_dir = self.workdir / f"{label}.out"
            argv = [self.command, "--config", str(config), "--seed", str(self.task_seed),
                    "--out", str(out_dir)]
            self.ops.append(Op(label, lambda argv=argv: _run_cli(argv)))
            self.out_dirs[label] = out_dir
        refs = _load_reference(self.name) if (REFERENCE_DIR / f"{self.name}.json").exists() else {}
        self.references = refs.get("tiny" if tiny else "full", {}).get(str(self.task_seed), {})

    def prepare(self) -> None:
        """Remove the previous pass's artifacts, so every pass writes afresh."""
        for out_dir in self.out_dirs.values():
            shutil.rmtree(out_dir, ignore_errors=True)

    def inspect(self, op: Op, outcome) -> Inspection:
        if isinstance(outcome, Exception):
            return Inspection(None, type(outcome).__name__, error=repr(outcome))
        code, stderr = outcome
        if code != 0:
            return Inspection(None, f"exit {code}", error=f"exit code {code}: {stderr.strip()}")
        try:
            blobs, written = _read_artifacts(self.out_dirs[op.label], self.artifacts)
            values = self.values(blobs)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return Inspection(None, type(exc).__name__, error=f"unreadable artifacts: {exc!r}")
        return Inspection(values, _digest(blobs), bytes_written=written)


class FlPaper(_CliWorkload):
    """One paper-scale ``qdp fl-train`` per pass."""

    name = "fl_paper"
    command = "fl-train"
    artifacts = ("model.json", "metrics.csv")

    def configs(self):
        return [("fl_paper", FL_TINY if self.tiny else FL_PAPER)]

    @staticmethod
    def values(blobs: dict[str, bytes]) -> dict:
        last = blobs["metrics.csv"].decode().strip().splitlines()[-1].split(",")
        return {"test_accuracy": float(last[1]), "test_loss": float(last[2])}

    def verify(self, op: Op, values: dict) -> str | None:
        ref = self.references.get(op.label)
        if ref is None:
            return f"no reference for task seed {self.task_seed}"
        test_samples = (FL_TINY if self.tiny else FL_PAPER)["test_samples"]
        if _rel_err(values["test_loss"], ref["test_loss"]) > LOSS_REL_TOL:
            return f"test_loss {values['test_loss']!r} vs reference {ref['test_loss']!r}"
        if abs(values["test_accuracy"] - ref["test_accuracy"]) > 1.5 / test_samples:
            return f"test_accuracy {values['test_accuracy']!r} vs reference {ref['test_accuracy']!r}"
        return None


class MiaSweep(_CliWorkload):
    """Four ``qdp mia`` audits per pass, one task, one seed, four mechanisms."""

    name = "mia_sweep"
    command = "mia"
    artifacts = ("report.json",)

    def configs(self):
        task = MIA_TINY if self.tiny else MIA_TASK
        self.audit_size = task["audit_size"]
        return [(f"mia_k{k}", {**task, "k": k, "sigma": sigma}) for k, sigma in MIA_MECHANISMS]

    @staticmethod
    def values(blobs: dict[str, bytes]) -> dict:
        return {"attack_accuracy": json.loads(blobs["report.json"])["accuracy"]}

    def verify(self, op: Op, values: dict) -> str | None:
        acc = values["attack_accuracy"]
        if not 0.5 <= acc <= 1.0:
            return f"attack accuracy {acc!r} outside [0.5, 1]"
        ref = self.references.get(op.label)
        if ref is None:
            return f"no reference for task seed {self.task_seed}"
        # One audit sample changing sides moves balanced accuracy by 1/audit_size.
        if abs(acc - ref["attack_accuracy"]) > 1.5 / self.audit_size:
            return f"attack accuracy {acc!r} vs reference {ref['attack_accuracy']!r}"
        return None


WORKLOADS = {wl.name: wl for wl in (BudgetGrid, FlPaper, MiaSweep)}

