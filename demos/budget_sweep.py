"""Privacy-budget comparison: quantized Gaussian vs plain Gaussian.

Sweeps the quantization level k from 2 to 64 at sigma = 1, c_q = 1 and
prints both budgets of the quantized mechanism next to the Gaussian
baseline at alpha = 1. Three things to notice in the output:

  * eps1 grows with k: coarser quantization (smaller k) leaks less.
  * every eps1 sits below the Gaussian baseline of 0.5, so quantization
    tightens the alpha = 1 budget rather than weakening it.
  * eps_inf is finite for every k, while the Gaussian mechanism has no
    finite budget at alpha = infinity at all.

Writes the table to budget_sweep.csv next to this script.
"""

import csv
from pathlib import Path

from qdp import NoiseSpec, budget_sweep

K_VALUES = (2, 4, 8, 16, 32, 64)
SIGMA = 1.0
C_Q = 1.0

rows = budget_sweep(K_VALUES, NoiseSpec(SIGMA), C_Q)

print(f"sigma = {SIGMA}, c_q = {C_Q} (sensitivity = c_q)")
print(f"{'k':>4}  {'eps1':>12}  {'eps_inf':>12}  {'gaussian eps (alpha=1)':>22}")
for row in rows:
    print(f"{row.k:>4}  {row.eps1:>12.8f}  {row.eps_inf:>12.8f}  {row.eps_gauss_alpha1:>22.8f}")

out = Path(__file__).with_name("budget_sweep.csv")
with open(out, "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["k", "eps1", "eps_inf", "eps_gauss_alpha1"])
    for row in rows:
        writer.writerow([row.k, row.eps1, row.eps_inf, row.eps_gauss_alpha1])
print(f"\nwrote {out}")
