"""Renyi-DP accounting for the quantized Gaussian mechanism.

One kernel evaluates every divergence between level distributions, on
their log masses. The alpha = 1 budget is the KL divergence between the
distributions at the two extremal inputs +-c_q/2; the alpha -> infinity
budget is the paper's closed-form worst-case log-ratio bound. A Gaussian
baseline, additive composition, RDP-to-DP conversion, and noise
calibration complete a small accounting toolkit. Epsilons are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .pmf import MechanismSpec, log_cell_moments, quantized_gaussian_pmf

__all__ = [
    "RdpPoint",
    "DpPoint",
    "renyi_divergence",
    "epsilon_one",
    "epsilon_infinity",
    "gaussian_rdp_baseline",
    "compose",
    "rdp_to_dp",
    "calibrate_sigma",
]

# Orders used when calibrating noise; standard accountant grid.
DEFAULT_ALPHA_GRID = (1.25, 1.5, 2.0, 3.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


@dataclass(frozen=True)
class RdpPoint:
    """(alpha, epsilon) Renyi-DP guarantee; alpha may be math.inf."""

    alpha: float
    epsilon: float

    def __post_init__(self):
        if not self.alpha >= 1:
            raise ValueError(f"Renyi order must be >= 1, got {self.alpha}")
        if not self.epsilon >= 0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")


@dataclass(frozen=True)
class DpPoint:
    """(epsilon, delta) approximate-DP guarantee."""

    epsilon: float
    delta: float

    def __post_init__(self):
        if not self.epsilon >= 0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")


def _finite(budget: float, mech: MechanismSpec) -> float:
    # every level mass is positive, so an infinite budget is an overflow
    if budget == math.inf:
        raise ValueError(f"the budget of {mech!r} exceeds the largest float")
    return budget


def renyi_divergence(log_p: np.ndarray, log_q: np.ndarray, alpha: float) -> float:
    """Order-alpha Renyi divergence D_alpha(p || q) between two level pmfs,
    each given as a 1-D array (or sequence) of natural-log masses over the
    same levels; any other shapes raise.

    The KL sum at alpha = 1, the log-mean-exponential form at finite alpha,
    the worst-case log ratio at alpha = inf, all on the log masses, so it
    stays accurate where masses underflow. A level where q vanishes but p
    does not makes it +inf; true zeros are never clamped.
    """
    log_p, log_q = np.asarray(log_p, dtype=float), np.asarray(log_q, dtype=float)
    if log_p.ndim != 1 or log_q.ndim != 1:
        raise ValueError(
            f"pmfs must be 1-D arrays of log masses, got shapes {log_p.shape} and {log_q.shape}"
        )
    if len(log_p) != len(log_q):
        raise ValueError(f"pmfs have different numbers of levels: {len(log_p)} vs {len(log_q)}")
    if not alpha >= 1:
        raise ValueError(f"Renyi order must be >= 1, got {alpha}")
    # levels where p vanishes contribute nothing
    if log_p.min() == -np.inf:
        support = log_p > -np.inf
        log_p, log_q = log_p[support], log_q[support]
    if log_q.min() == -np.inf:
        return math.inf
    log_ratio = log_p - log_q
    if alpha == math.inf:
        return max(float(log_ratio.max()), 0.0)
    if alpha == 1:
        return max(float(np.dot(np.exp(log_p), log_ratio)), 0.0)
    # sum_r p^alpha q^(1-alpha), accumulated in log space
    return max(float(special.logsumexp(log_p + (alpha - 1.0) * log_ratio)) / (alpha - 1.0), 0.0)


def epsilon_one(mech: MechanismSpec) -> float:
    """alpha = 1 budget: KL divergence between the extremal-input pmfs; the
    pmf at -c_q/2 is the mirror image of the one at +c_q/2. Raises where
    the budget exceeds the largest float."""
    log_p = quantized_gaussian_pmf(mech.quant.c_q / 2.0, mech)
    return _finite(renyi_divergence(log_p, log_p[::-1], 1.0), mech)


def epsilon_infinity(mech: MechanismSpec) -> float:
    """alpha -> infinity budget: log(delta / m) with m the partial first
    moment of N(-c_q/2, sigma^2) over the topmost lattice cell.

    The paper's closed-form bound: the exact D_inf of the extremal pmfs is
    smaller (0.689 vs 1.319 at k = 2, sigma = 1; 7146.3 vs 7386.3 at k = 8,
    sigma = 0.01). Finite and positive for every valid configuration,
    unlike the Gaussian baseline whose alpha -> infinity budget diverges;
    where it exceeds the largest float (k >= 3, sigma below ~1e-154 c_q)
    it raises.
    """
    quant, sigma, half = mech.quant, mech.noise.sigma, mech.quant.c_q / 2.0
    # the topmost cell, shifted by the input -c_q/2 and in noise units
    lo, hi = (quant.level(quant.k - 2) + half) / sigma, (quant.c_q + half) / sigma
    log_fwd, _ = log_cell_moments(lo, hi)
    return _finite(math.log(quant.delta / sigma) - float(log_fwd), mech)


def gaussian_rdp_baseline(sensitivity: float, sigma: float, alpha: float) -> RdpPoint:
    """RDP of the unquantized Gaussian mechanism: epsilon = alpha*s^2/(2*sigma^2).

    At alpha = inf the budget is unbounded and is reported as such.
    """
    if sensitivity < 0:
        raise ValueError(f"sensitivity must be nonnegative, got {sensitivity}")
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if alpha == math.inf:
        return RdpPoint(alpha=math.inf, epsilon=math.inf)
    return RdpPoint(alpha=alpha, epsilon=alpha * sensitivity**2 / (2.0 * sigma**2))


def compose(points: list[RdpPoint]) -> RdpPoint:
    """Additive RDP composition of mechanisms sharing one Renyi order, summed exactly."""
    if not points:
        raise ValueError("cannot compose an empty list of RDP points")
    alpha = points[0].alpha
    if any(pt.alpha != alpha for pt in points):
        raise ValueError("composition requires a common Renyi order")
    return RdpPoint(alpha=alpha, epsilon=math.fsum(pt.epsilon for pt in points))


def rdp_to_dp(point: RdpPoint, delta: float) -> DpPoint:
    """Convert an (alpha, epsilon) guarantee to (epsilon', delta)-DP.

    Finite alpha adds the standard log(1/delta)/(alpha - 1) slack; at
    alpha = inf the RDP epsilon carries over unchanged.
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if point.alpha == 1:
        raise ValueError("conversion undefined at alpha = 1; use alpha > 1")
    if point.alpha == math.inf:
        return DpPoint(epsilon=point.epsilon, delta=delta)
    return DpPoint(
        epsilon=point.epsilon + math.log(1.0 / delta) / (point.alpha - 1.0),
        delta=delta,
    )


def calibrate_sigma(target: DpPoint, rounds: int, sensitivity: float) -> float:
    """Smallest Gaussian noise scale meeting ``target`` over ``rounds`` releases.

    At order alpha the composed, converted budget is
    rounds*alpha*s^2/(2*sigma^2) + log(1/delta)/(alpha - 1), so each order on
    DEFAULT_ALPHA_GRID has a closed-form noise scale; the smallest one wins,
    nudged up by ulps until the composition route meets the target too.
    Raises if the target is unreachable at any noise scale (the conversion
    slack alone exceeds it).
    """
    if rounds < 1:
        raise ValueError(f"rounds must be positive, got {rounds}")
    if not sensitivity > 0:
        raise ValueError(f"sensitivity must be positive, got {sensitivity}")
    slack = {a: math.log(1.0 / target.delta) / (a - 1.0) for a in DEFAULT_ALPHA_GRID}
    if target.epsilon <= min(slack.values()):
        raise ValueError(
            f"target epsilon {target.epsilon} is unreachable: conversion slack "
            f"alone is {min(slack.values()):.6g} on the order grid"
        )
    sigma, alpha = min(
        (sensitivity * math.sqrt(rounds * a / (2.0 * (target.epsilon - s))), a)
        for a, s in slack.items()
        if target.epsilon > s
    )
    while rdp_to_dp(
        compose([gaussian_rdp_baseline(sensitivity, sigma, alpha)] * rounds), target.delta
    ).epsilon > target.epsilon:
        sigma = math.nextafter(sigma, math.inf)
    return sigma
