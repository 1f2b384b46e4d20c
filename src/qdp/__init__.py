"""Privacy accounting for the quantized Gaussian mechanism.

Exact Renyi-DP budgets for clip-noise-quantize releases, a desk-scale
FedAvg simulator that applies the mechanism to client updates, and an
offline likelihood-ratio membership-inference harness for measuring the
leakage empirically.
"""

__version__ = "0.1.0"

from .accountant import (
    DpPoint,
    MechanismSpec,
    RdpPoint,
    SweepRow,
    budget_sweep,
    calibrate_sigma,
    compose,
    epsilon_infinity,
    epsilon_one,
    gaussian_rdp_baseline,
    rdp_to_dp,
    renyi_divergence,
)
from .flsim import FlRunConfig, GlobalModel, RunResult, SyntheticTaskSpec, train
from .lira import AttackConfig, AttackReport, audit_run
from .pmf import LevelPmf, NoiseSpec, partial_first_moment, quantized_gaussian_pmf
from .quantizer import QuantizerSpec, clip_vector, quantize, stochastic_round

__all__ = [
    "__version__",
    "QuantizerSpec",
    "clip_vector",
    "stochastic_round",
    "quantize",
    "NoiseSpec",
    "LevelPmf",
    "partial_first_moment",
    "quantized_gaussian_pmf",
    "RdpPoint",
    "DpPoint",
    "MechanismSpec",
    "SweepRow",
    "renyi_divergence",
    "epsilon_one",
    "epsilon_infinity",
    "gaussian_rdp_baseline",
    "compose",
    "rdp_to_dp",
    "calibrate_sigma",
    "budget_sweep",
    "FlRunConfig",
    "SyntheticTaskSpec",
    "GlobalModel",
    "RunResult",
    "train",
    "AttackConfig",
    "AttackReport",
    "audit_run",
]
