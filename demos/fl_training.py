"""Train the federated simulator with and without the privacy mechanism.

First a clean FedAvg run on a well-separated task (this is the smoke
configuration shipped in configs/fl_smoke.conf), then the same task with
clipping, Gaussian noise, and the harshest 2-level quantizer switched on,
to show the utility cost of the mechanism. Both runs are deterministic in
the seed.
"""

from pathlib import Path

from qdp import FlRunConfig, train
from qdp.flsim import write_run_artifact

base = dict(
    n_clients_total=8,
    n_sampled=8,
    rounds=30,
    local_steps=10,
    learning_rate=0.5,
    batch_size=8,
    c_q=1.0,
    seed=0,
    dimension=20,
    samples_per_client=8,
    margin=5.0,
)

clean = train(FlRunConfig(sigma=0.0, k=None, **base))
private = train(FlRunConfig(sigma=0.2, k=2, **base))

print("round   clean acc   private acc (sigma=0.2, k=2)")
for (rnd, acc_a, _), (_, acc_b, _) in zip(clean.metrics[::5], private.metrics[::5]):
    print(f"{rnd:>5}   {acc_a:>9.3f}   {acc_b:>11.3f}")
print(f"final   {clean.metrics[-1][1]:>9.3f}   {private.metrics[-1][1]:>11.3f}")

out = Path(__file__).with_name("fl_run")
write_run_artifact(clean, out)
print(f"\nwrote run artifact (config, metrics.csv, model.json) to {out}/")
