"""Privacy accounting for the quantized Gaussian mechanism.

Exact Renyi-DP budgets for clip-noise-quantize releases, a desk-scale
FedAvg simulator that applies the mechanism to client updates, and an
offline likelihood-ratio membership-inference harness for measuring the
leakage empirically.
"""

__version__ = "0.1.0"

from .accountant import (
    DpPoint,
    calibrate_sigma,
    epsilon_infinity,
    epsilon_one,
    gaussian_rdp_baseline,
    rdp_to_dp,
    renyi_divergence,
)
from .flsim import FlRunConfig, RunResult, train
from .lira import AttackReport, audit_run
from .pmf import MechanismSpec, NoiseSpec, quantized_gaussian_pmf
from .quantizer import QuantizerSpec, clip_vector, quantize

__all__ = [
    "__version__",
    "QuantizerSpec",
    "clip_vector",
    "quantize",
    "NoiseSpec",
    "quantized_gaussian_pmf",
    "DpPoint",
    "MechanismSpec",
    "renyi_divergence",
    "epsilon_one",
    "epsilon_infinity",
    "gaussian_rdp_baseline",
    "rdp_to_dp",
    "calibrate_sigma",
    "FlRunConfig",
    "RunResult",
    "train",
    "AttackReport",
    "audit_run",
]
