"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one [PASS]/[FAIL] line
per criterion. Statistical criteria use fixed seeds, so outcomes are
reproducible; trend criteria average five seeds and carry the documented
0.02 tolerance.
"""

import csv
import math
import time

import numpy as np

from qdp.accountant import (
    MechanismSpec,
    epsilon_infinity,
    epsilon_one,
    renyi_divergence,
)
from qdp.cli import main as cli_main
from qdp.flsim import FlRunConfig, train, write_run_artifact
from qdp.lira import fit_attack
from qdp.pmf import NoiseSpec, quantized_gaussian_pmf
from qdp.quantizer import QuantizerSpec, quantize

from oracles import kl_sum, monte_carlo_quantized_gaussian, quad_pmf

K_SWEEP = (2, 4, 8, 16, 32, 64)
TREND_TOLERANCE = 0.02
TREND_SEEDS = range(5)


def _report(number: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def _mia_config(seed, sigma, k):
    return FlRunConfig(
        n_clients_total=8,
        n_sampled=8,
        rounds=20,
        local_steps=10,
        learning_rate=0.5,
        batch_size=8,
        c_q=1.0,
        sigma=sigma,
        k=k,
        seed=seed,
        dimension=20,
        samples_per_client=8,
        margin=1.5,
    )


def _mean_attack_accuracies(mechanisms):
    """Mean attack accuracy over the trend seeds for each (sigma, k).

    The shadow fit depends on the task and the seed, not the mechanism, so
    each seed fits one attack and trains one target per mechanism.
    """
    per_seed = []
    for seed in TREND_SEEDS:
        attack = fit_attack(_mia_config(seed, 0.0, None))
        per_seed.append(
            [attack(train(_mia_config(seed, s, k)).weights).accuracy for s, k in mechanisms]
        )
    return [float(np.mean(accs)) for accs in zip(*per_seed)]


def test_criterion_1_budget_sweep_trend(tmp_path):
    out_csv = tmp_path / "sweep.csv"
    started = time.perf_counter()
    code = cli_main(
        ["sweep", "--k-list", "2,4,8,16,32,64", "--cq", "1", "--sigma", "1", "--out", str(out_csv)]
    )
    elapsed = time.perf_counter() - started
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    eps1 = [float(row["eps1"]) for row in rows]
    monotone = all(b >= a for a, b in zip(eps1, eps1[1:]))
    below_gaussian = all(v < 0.5 for v in eps1)
    oracle_ok = True
    for row in rows:
        k = int(row["k"])
        oracle = kl_sum(quad_pmf(0.5, 1.0, k, 1.0), quad_pmf(-0.5, 1.0, k, 1.0))
        oracle_ok = oracle_ok and abs(float(row["eps1"]) - oracle) <= 1e-8
    ok = (
        code == 0
        and [int(r["k"]) for r in rows] == list(K_SWEEP)
        and monotone
        and below_gaussian
        and eps1[-1] > eps1[0]
        and elapsed < 1.0
        and oracle_ok
    )
    _report(
        1,
        "sweep over k=2..64 at sigma=1, c_q=1: eps1 monotone, < 0.5, "
        f"eps1(64) > eps1(2), quadrature-checked, {elapsed:.2f}s",
        ok,
    )


def test_criterion_2_eps_inf_strictly_increasing():
    ok = True
    for sigma in (0.5, 1.0, 2.0):
        for c_q in (0.5, 1.0, 2.0):
            values = [
                epsilon_infinity(
                    MechanismSpec(noise=NoiseSpec(sigma), quant=QuantizerSpec(k=k, c_q=c_q))
                )
                for k in range(2, 65)
            ]
            ok = ok and all(b - a > 1e-9 for a, b in zip(values, values[1:]))
    _report(2, "eps_inf strictly increasing in k over (sigma, c_q) in {0.5,1,2}^2", ok)


def test_criterion_3_pmf_monte_carlo_equivalence():
    ok = True
    worst_z = 0.0
    cell = 0
    for x in (-0.4, 0.0, 0.35):
        for sigma in (0.5, 1.0, 2.0):
            for k in (2, 5, 16):
                cell += 1
                mech = MechanismSpec(noise=NoiseSpec(sigma), quant=QuantizerSpec(k=k, c_q=1.0))
                probs = np.exp(quantized_gaussian_pmf(x, mech))
                ok = ok and abs(probs.sum() - 1.0) < 1e-9
                n = 1_000_000
                empirical = monte_carlo_quantized_gaussian(x, sigma, k, 1.0, n, seed=cell)
                se = np.sqrt(probs * (1.0 - probs) / n)
                gaps = np.abs(empirical - probs)
                ok = ok and np.all(gaps < 4 * se + 1e-9)
                worst_z = max(worst_z, float(np.max(gaps / np.maximum(se, 1e-12))))
    _report(3, f"analytic pmf within 4 SE of 1e6-sample Monte Carlo (worst z={worst_z:.2f})", ok)


def _grid_pmfs(sigma, k, c_q=1.0):
    grid = np.linspace(-c_q / 2.0, c_q / 2.0, 21)
    mech = MechanismSpec(noise=NoiseSpec(sigma), quant=QuantizerSpec(k=k, c_q=c_q))
    return grid, [quantized_gaussian_pmf(x, mech) for x in grid]


def test_criterion_4_post_processing_bound():
    violations = 0
    for sigma, k in ((1.0, 6), (0.5, 3)):
        grid, pmfs = _grid_pmfs(sigma, k)
        for alpha in (1.0, 2.0, 8.0):
            for i, x in enumerate(grid):
                for j, x_prime in enumerate(grid):
                    bound = alpha * (x - x_prime) ** 2 / (2.0 * sigma**2)
                    if renyi_divergence(pmfs[i], pmfs[j], alpha) > bound + 1e-9:
                        violations += 1
    _report(
        4,
        "post-processing: D_alpha <= alpha (x-x')^2 / 2 sigma^2 on 21x21 grid, "
        f"alpha in {{1,2,8}} ({violations} violations)",
        violations == 0,
    )


def test_criterion_5_extremality_and_chain():
    violations = 0
    for sigma, k in ((1.0, 6), (0.5, 3)):
        mech = MechanismSpec(noise=NoiseSpec(sigma), quant=QuantizerSpec(k=k, c_q=1.0))
        eps1 = epsilon_one(mech)
        eps_inf = epsilon_infinity(mech)
        _, pmfs = _grid_pmfs(sigma, k)
        for p in pmfs:
            for q in pmfs:
                if renyi_divergence(p, q, 1.0) > eps1 + 1e-12:
                    violations += 1
                if renyi_divergence(p, q, math.inf) > eps_inf + 1e-12:
                    violations += 1
    ordering_ok = True
    for k in K_SWEEP:
        for sigma in (0.5, 1.0, 2.0):
            for c_q in (0.5, 1.0, 2.0):
                mech = MechanismSpec(noise=NoiseSpec(sigma), quant=QuantizerSpec(k=k, c_q=c_q))
                ordering_ok = ordering_ok and epsilon_one(mech) <= epsilon_infinity(mech)
    _report(
        5,
        "extremal inputs dominate D_1 and D_inf on the grid and eps1 <= eps_inf "
        f"everywhere ({violations} violations)",
        violations == 0 and ordering_ok,
    )


def test_criterion_6_quantizer_unbiasedness():
    spec = QuantizerSpec(k=9, c_q=2.0)
    rng = np.random.Generator(np.random.Philox(20_240_601))
    draws = 100_000
    ok = True
    worst = 0.0
    for _ in range(10):
        direction = rng.normal(size=6)
        w = direction / np.linalg.norm(direction) * spec.c_q * rng.uniform(0.0, 1.0)
        # the quantizer is elementwise and these inputs are in range, so a
        # (draws, 6) tile gives independent mechanism samples
        samples = quantize(np.tile(w, (draws, 1)), spec, rng.random((draws, len(w))))
        mean = samples.mean(axis=0)
        r = np.clip(np.floor((w + spec.c_q) / spec.delta), 0, spec.k - 2)
        lo, hi = spec.level(r), spec.level(r + 1)
        se = np.sqrt((hi - w) * (w - lo) / draws)
        gap = np.abs(mean - w)
        ok = ok and np.all(gap <= 4 * se + 1e-12)
        worst = max(worst, float(np.max(gap / np.maximum(se, 1e-12))))
    _report(6, f"quantizer unbiased within 4 SE over 1e5 draws x 10 inputs (worst z={worst:.2f})", ok)


def test_criterion_7_fl_smoke(tmp_path):
    config = FlRunConfig(
        n_clients_total=8,
        n_sampled=8,
        rounds=30,
        local_steps=10,
        learning_rate=0.5,
        batch_size=8,
        c_q=1.0,
        sigma=0.0,
        k=None,
        seed=0,
        dimension=20,
        samples_per_client=8,
        margin=5.0,
    )
    started = time.perf_counter()
    result = train(config)
    elapsed = time.perf_counter() - started
    accuracy = result.metrics[-1][1]
    write_run_artifact(result, tmp_path / "a")
    write_run_artifact(train(config), tmp_path / "b")
    identical = (tmp_path / "a" / "metrics.csv").read_bytes() == (
        tmp_path / "b" / "metrics.csv"
    ).read_bytes()
    ok = accuracy >= 0.95 and elapsed < 10.0 and identical
    _report(
        7,
        f"FedAvg smoke run: accuracy {accuracy:.3f} >= 0.95 in {elapsed:.2f}s, "
        "byte-identical metrics on seed repeat",
        ok,
    )


def test_criterion_8_mia_trends():
    baseline, acc_quantized, acc_unquantized, *sigma_curve = _mean_attack_accuracies(
        [(0.0, None), (0.02, 4), (0.02, None), (0.0, 16), (0.05, 16), (0.5, 16)]
    )
    leaks = baseline > 0.53
    quantization_helps = acc_quantized <= acc_unquantized + TREND_TOLERANCE
    noise_helps = all(b <= a + TREND_TOLERANCE for a, b in zip(sigma_curve, sigma_curve[1:]))

    ok = leaks and quantization_helps and noise_helps
    _report(
        8,
        "MIA trends over 5 seeds (tolerance 0.02): baseline "
        f"{baseline:.3f} > 0.53; k=4 {acc_quantized:.3f} <= no-quant "
        f"{acc_unquantized:.3f}; accuracy vs sigma {[f'{a:.3f}' for a in sigma_curve]} non-increasing",
        ok,
    )


def test_criterion_9_divergence_unit_checks():
    p = np.log([0.75, 0.25])
    q = np.log([0.25, 0.75])
    kl_ok = abs(renyi_divergence(p, q, 1.0) - 0.5 * math.log(3.0)) < 1e-6

    rng = np.random.default_rng(99)
    orders = (1.0, 1.5, 2.0, 4.0, 8.0, math.inf)
    monotone = True
    for _ in range(100):
        k = int(rng.integers(2, 9))
        pair = [np.log(rng.dirichlet(np.ones(k))) for _ in range(2)]
        values = [renyi_divergence(pair[0], pair[1], a) for a in orders]
        monotone = monotone and all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    _report(9, "KL((.75,.25)||(.25,.75)) = log(3)/2 and D_alpha monotone on 100 random pairs", kl_ok and monotone)
