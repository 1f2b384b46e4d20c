"""Measure privacy leakage empirically with the offline LiRA audit.

Trains target models on a memorization-prone task (tiny shards, tight
class margin), then attacks them with shadow-model membership inference.
Two sweeps, each averaged over five seeds:

  * quantization level at fixed small noise: coarser quantization
    (smaller k) drags the attack accuracy down toward chance, mirroring
    the accountant's budgets which shrink as k falls;
  * noise scale at fixed k = 16: more noise, less leakage.

The shadow fit depends on the task and the seed, not on the mechanism, so
each seed fits 16 shadow models once and trains one target per mechanism.
"""

import numpy as np

from qdp import FlRunConfig
from qdp.flsim import make_task_data, train
from qdp.lira import fit_attack

SEEDS = range(5)
K_SWEEP = [(0.02, k) for k in (None, 64, 16, 4)]  # (sigma, k)
SIGMA_SWEEP = [(sigma, 16) for sigma in (0.0, 0.05, 0.5)]
BASELINE = (0.0, None)


def config(seed, sigma, k):
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


def mean_accuracies(mechanisms):
    """Mean attack accuracy over SEEDS for each (sigma, k)."""
    per_seed = []
    for seed in SEEDS:
        task_config = config(seed, *BASELINE)
        task = make_task_data(task_config)
        attack = fit_attack(task_config, task)
        targets = [train(config(seed, sigma, k), task) for sigma, k in mechanisms]
        per_seed.append([attack(target.weights).accuracy for target in targets])
    return {mech: float(np.mean(accs)) for mech, accs in zip(mechanisms, zip(*per_seed))}


accuracy = mean_accuracies(K_SWEEP + SIGMA_SWEEP + [BASELINE])

print("attack accuracy vs quantization level (sigma = 0.02):")
for sigma, k in K_SWEEP:
    label = "none" if k is None else str(k)
    print(f"  k = {label:>4}: {accuracy[sigma, k]:.3f}")

print("\nattack accuracy vs noise scale (k = 16):")
for sigma, k in SIGMA_SWEEP:
    print(f"  sigma = {sigma:>4}: {accuracy[sigma, k]:.3f}")

print("\n0.5 is chance level; the no-noise, no-quantization baseline is")
print(f"{accuracy[BASELINE]:.3f}, so the gap to 0.5 is the leakage being protected.")
