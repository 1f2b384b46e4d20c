"""Privacy-budget comparison: quantized Gaussian vs plain Gaussian.

Runs ``qdp sweep`` over the quantization level k from 2 to 64 at sigma = 1,
c_q = 1 and prints its CSV: both budgets of the quantized mechanism next to
the Gaussian baseline at alpha = 1. Three things to notice in the output:

  * eps1 grows with k: coarser quantization (smaller k) leaks less.
  * every eps1 sits below the Gaussian baseline of 0.5, so quantization
    tightens the alpha = 1 budget rather than weakening it.
  * eps_inf is finite for every k, while the Gaussian mechanism has no
    finite budget at alpha = infinity at all.

Writes the table to budget_sweep.csv next to this script.
"""

import sys
from pathlib import Path

from qdp import cli

out = Path(__file__).with_name("budget_sweep.csv")
code = cli.main(
    ["sweep", "--k-list", "2,4,8,16,32,64", "--cq", "1", "--sigma", "1", "--out", str(out)]
)
if code:
    sys.exit(code)
print("sigma = 1, c_q = 1 (sensitivity = c_q)")
print(out.read_text(), end="")
print(f"\nwrote {out}")
