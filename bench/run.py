"""Run one workload of the qdp benchmark and print its metrics.

    python3 bench/run.py --workload budget_grid --seed 1 --seconds 30 --trace 0

The load is closed-loop: one caller in one process, each op starting when
the previous one returns, passes repeated until --seconds have elapsed. Every
pass runs the same seed-derived inputs, so each pass after the first is a
seed repeat whose outputs must match the first byte for byte. With --trace 0
the last stdout line carries the end-to-end metrics; with --trace 1 it
carries the per-layer metrics of a run that alternates traced and untraced
passes. --tiny runs every workload at smoke-test sizes.
"""

from __future__ import annotations

import os

# One worker thread everywhere, set before numpy loads its BLAS.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
# Fixed so runs of different lengths report the same statistic. budget_grid
# makes tens of thousands of ops per run, so >= 10 lie beyond it there; the
# CLI workloads make a few dozen, where it is in effect the maximum.
TAIL_PERCENTILE = 99.9


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
    }


def run_pass(wl) -> tuple[float, list[float], list]:
    """One closed-loop pass over the workload's ops; only the ops are timed."""
    wl.prepare()
    latencies, outcomes = [], []
    clock = time.perf_counter
    start = clock()
    for op in wl.ops:
        t0 = clock()
        try:
            outcome = op.call()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            outcome = exc
        latencies.append(clock() - t0)
        outcomes.append(outcome)
    return clock() - start, latencies, outcomes


class Checker:
    """Per-op checks, plus the seed-repeat check across passes."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failures: dict[str, str] = {}
        self.failed = 0
        self.first_fingerprint: dict[str, str] = {}
        self.repeat_mismatches: list[str] = []

    def check(self, outcomes: list) -> int:
        """Check one pass; returns the bytes the pass wrote."""
        written = 0
        for op, outcome in zip(self.wl.ops, outcomes):
            self.attempted += 1
            found = self.wl.inspect(op, outcome)
            written += found.bytes_written
            reason = found.error if found.error is not None else self.wl.verify(op, found.values)
            if reason is not None:
                self.failed += 1
                self.failures[op.label] = reason
            first = self.first_fingerprint.setdefault(op.label, found.fingerprint)
            if first != found.fingerprint:
                self.repeat_mismatches.append(op.label)
        return written


def set_up(name: str, seed: int, tiny: bool, workdir) -> object:
    """Inputs, references and a warm-up pass at smoke sizes."""
    wl = workloads.WORKLOADS[name](seed, tiny, workdir)
    warm = workloads.WORKLOADS[name](seed, True, workdir / "warmup")
    _, _, outcomes = run_pass(warm)
    Checker(warm).check(outcomes)
    return wl


def measure_setup(args) -> list[float]:
    """Process start to ready-for-first-op, in fresh interpreters one after another."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--probe"] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(float(done.stdout.split()[-1]) - start)
    return samples


def e2e_metrics(passes, checker: Checker, setup_samples: list[float]) -> tuple[dict, str]:
    latencies = np.concatenate([lats for _, lats in passes])
    tail = float(np.percentile(latencies, TAIL_PERCENTILE))
    metrics = {
        "pass_s": (statistics.median(p for p, _ in passes), "s"),
        "op_p50_ms": (float(np.median(latencies)) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "ok_frac": ((checker.attempted - checker.failed) / checker.attempted, "fraction"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    note = (f"{len(passes)} passes, {latencies.size} ops; op_tail_ms is p{TAIL_PERCENTILE:g} "
            f"with {int((latencies > tail).sum())} ops beyond it; "
            f"fail_frac {checker.failed}/{checker.attempted} = {checker.failed / checker.attempted:.4f}")
    return metrics, note


def layer_metrics(tracer: tracing.Tracer, traced, untraced) -> tuple[dict, str]:
    """Per-layer medians over the traced passes; overhead against the untraced ones."""
    summaries = [summary for _, summary, _ in traced]

    def median_of(key, name):
        return statistics.median(s[key].get(name, 0) for s in summaries)

    metrics = {}
    for name in tracing.traced_names():
        metrics[f"{name}.calls"] = (median_of("calls", name), "count")
        metrics[f"{name}.self_s"] = (median_of("self_s", name), "s")
    metrics["cli.write_s"] = (median_of("total_s", tracing.WRITE_SPAN), "s")
    metrics["cli.bytes_written"] = (statistics.median(w for _, _, w in traced), "bytes")
    ratios = [s["distinct_fit_sets"] / s["fit_calls"] if s["fit_calls"] else 0.0 for s in summaries]
    metrics["lira.shadow_fit_ratio"] = (statistics.median(ratios), "ratio")
    traced_s = statistics.median(p for p, _, _ in traced)
    untraced_s = statistics.median(untraced)
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.absent"] = (len(tracer.absent), "count")
    note = (f"{len(traced)} traced and {len(untraced)} untraced passes; "
            f"median pass {traced_s:.4f} s traced, {untraced_s:.4f} s untraced; "
            f"absent: {', '.join(tracer.absent) or 'none'}")
    return metrics, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = workloads.WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = set_up(args.workload, args.seed, args.tiny, workdir)
        if args.probe:
            print(time.monotonic())
            return 0
        setup_samples = measure_setup(args) if args.trace == 0 else []
        checker = Checker(wl)
        tracer = tracing.Tracer()
        deadline = time.perf_counter() + args.seconds
        passes, traced, untraced = [], [], []
        while True:
            if args.trace:
                tracer.install()
                mark = tracer.mark()
            pass_s, latencies, outcomes = run_pass(wl)
            if args.trace:
                tracer.uninstall()
                written = checker.check(outcomes)
                traced.append((pass_s, tracer.pass_summary(mark, tracer.mark()), written))
                pass_s, latencies, outcomes = run_pass(wl)
                untraced.append(pass_s)
            checker.check(outcomes)
            passes.append((pass_s, np.array(latencies)))
            if time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics, note = layer_metrics(tracer, traced, untraced)
        tracer.write(workloads.WORK_ROOT / "traces" / f"{args.workload}-seed{args.seed}.json.gz")
    else:
        metrics, note = e2e_metrics(passes, checker, setup_samples)
    correct = not checker.repeat_mismatches
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "environment": env, "note": note,
              "pass_s_each": [p for p, _ in passes], "setup_s_each": setup_samples,
              "repeat_mismatches": checker.repeat_mismatches, "failures": checker.failures,
              **result}
    results_dir = workloads.WORK_ROOT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"{args.workload}: {note}")
    if checker.failures:
        print(f"{len(checker.failures)} distinct ops failed, e.g. "
              + "; ".join(f"{k}: {v[:160]}" for k, v in list(checker.failures.items())[:3]))
    if not correct:
        print(f"seed repeat gave different outputs for: {', '.join(sorted(set(checker.repeat_mismatches)))}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
