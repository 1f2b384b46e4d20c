"""Measure privacy leakage empirically with the offline LiRA audit.

Trains target models on a memorization-prone task (tiny shards, tight
class margin), then attacks them with shadow-model membership inference.
Two sweeps, each averaged over five seeds:

  * quantization level at fixed small noise: coarser quantization
    (smaller k) drags the attack accuracy down toward chance, mirroring
    the accountant's budgets which shrink as k falls;
  * noise scale at fixed k = 16: more noise, less leakage.

Each audit trains 1 target + 16 shadow models, so expect a few seconds.
"""

import numpy as np

from qdp import AttackConfig, FlRunConfig, audit_run

SEEDS = range(5)


def attack(sigma, k):
    accs = []
    for seed in SEEDS:
        config = FlRunConfig(
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
        accs.append(audit_run(config, AttackConfig()).accuracy)
    return float(np.mean(accs))


print("attack accuracy vs quantization level (sigma = 0.02):")
for k in (None, 64, 16, 4):
    label = "none" if k is None else str(k)
    print(f"  k = {label:>4}: {attack(0.02, k):.3f}")

print("\nattack accuracy vs noise scale (k = 16):")
for sigma in (0.0, 0.05, 0.5):
    print(f"  sigma = {sigma:>4}: {attack(sigma, 16):.3f}")

print("\n0.5 is chance level; the no-noise, no-quantization baseline is")
print(f"{attack(0.0, None):.3f}, so the gap to 0.5 is the leakage being protected.")
