"""Sanity-check the closed-form level distribution against simulation.

The library computes the output distribution of quantize(x + noise) as
log masses, from log-space first moments of the Gaussian over each lattice
cell plus the clipped tails; ``np.exp`` turns them into masses. Here we draw
a million samples of the mechanism itself and put the empirical frequencies
next to the closed form, then shrink the noise to (almost) nothing and watch
the distribution collapse onto the two-point stochastic-rounding rule.
"""

import numpy as np

from qdp import MechanismSpec, NoiseSpec, QuantizerSpec, quantize, quantized_gaussian_pmf

X, SIGMA, K, C_Q = 0.3, 0.5, 8, 1.0
N = 1_000_000

spec = QuantizerSpec(k=K, c_q=C_Q)
probs = np.exp(quantized_gaussian_pmf(X, MechanismSpec(NoiseSpec(SIGMA), spec)))

rng = np.random.Generator(np.random.Philox(8))
samples = quantize(X + SIGMA * rng.standard_normal(N), spec, rng.random(N))
empirical = np.array([(samples == level).mean() for level in spec.levels()])

print(f"x = {X}, sigma = {SIGMA}, k = {K}, c_q = {C_Q}, {N:,} samples")
print(f"{'level':>8}  {'closed form':>12}  {'empirical':>12}  {'gap / SE':>9}")
se = np.sqrt(probs * (1 - probs) / N)
for level, p, e, s in zip(spec.levels(), probs, empirical, se):
    print(f"{level:>8.4f}  {p:>12.6f}  {e:>12.6f}  {abs(e - p) / s:>9.2f}")
print(f"total probability: {probs.sum():.12f}")

# with sigma -> 0 the noise stage disappears and only the stochastic
# rounding of x itself remains: x = 0.3 sits between levels 0.1428 and
# 0.4286, so those two levels share the mass by proximity
tiny = np.exp(quantized_gaussian_pmf(X, MechanismSpec(NoiseSpec(1e-6), spec)))
print("\nsigma = 1e-6:")
for level, p in zip(spec.levels(), tiny):
    if p > 1e-12:
        print(f"  P[{level:+.4f}] = {p:.6f}")
