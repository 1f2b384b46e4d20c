"""Renyi-DP accounting for the quantized Gaussian mechanism.

One kernel evaluates every divergence between level distributions, on
their log masses. The alpha = 1 budget is the KL divergence between the
distributions at the two extremal inputs +-c_q/2; the alpha -> infinity
budget is the paper's closed-form worst-case log-ratio bound. An RDP
curve is an array of epsilons over an array of orders: T rounds of one
mechanism compose to ``T * curve``, two mechanisms on one order grid to
``curve_a + curve_b``. The Gaussian baseline curve, RDP-to-DP conversion
of a curve, and noise calibration complete a small accounting toolkit.
Epsilons are in nats.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass

import numpy as np
from scipy import special

from .pmf import MechanismSpec, log_cell_moments, quantized_gaussian_pmf

__all__ = [
    "DpPoint",
    "renyi_divergence",
    "epsilon_one",
    "epsilon_infinity",
    "gaussian_rdp_baseline",
    "rdp_to_dp",
    "calibrate_sigma",
]

# Orders used when calibrating noise; standard accountant grid.
DEFAULT_ALPHA_GRID = (1.25, 1.5, 2.0, 3.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


@dataclass(frozen=True)
class DpPoint:
    """(epsilon, delta) approximate-DP guarantee: the target of calibrate_sigma."""

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
    does not makes it +inf; true zeros are never clamped. A NaN log mass,
    empty pmfs and a p without mass raise.
    """
    log_p, log_q = np.asarray(log_p, dtype=float), np.asarray(log_q, dtype=float)
    if log_p.ndim != 1 or log_q.ndim != 1:
        raise ValueError(
            f"pmfs must be 1-D arrays of log masses, got shapes {log_p.shape} and {log_q.shape}"
        )
    if len(log_p) != len(log_q):
        raise ValueError(f"pmfs have different numbers of levels: {len(log_p)} vs {len(log_q)}")
    if not len(log_p):
        raise ValueError("pmfs p and q have no levels")
    if not alpha >= 1:
        raise ValueError(f"Renyi order must be >= 1, got {alpha}")
    p_min, q_min = log_p.min(), log_q.min()  # NaN if either holds one
    if math.isnan(p_min) or math.isnan(q_min):
        raise ValueError("pmfs must not hold NaN log masses")
    # levels where p vanishes contribute nothing
    if p_min == -np.inf:
        support = log_p > -np.inf
        log_p, log_q = log_p[support], log_q[support]
        if not len(log_p):
            raise ValueError("pmf p has no mass: every log mass is -inf")
        q_min = log_q.min()
    if q_min == -np.inf:
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


def gaussian_rdp_baseline(sensitivity: float, sigma: float, alphas) -> np.ndarray:
    """RDP curve alpha*s^2/(2*sigma^2) of the unquantized Gaussian mechanism, in
    the shape of ``alphas`` (a numpy scalar for a scalar order): inf at alpha = inf,
    zero for s = 0, and ``T * curve`` for T rounds. Where the curve is a normal float
    it is within 1.5 ulps, 1.25 on DEFAULT_ALPHA_GRID, and correctly rounded at
    power-of-two orders; below, it keeps fewer digits, and above, it raises.
    """
    if not 0 <= sensitivity < math.inf:
        raise ValueError(f"sensitivity must be finite and nonnegative, got {sensitivity}")
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    alphas = np.asarray(alphas, dtype=float)
    if not (alphas >= 1).all():
        raise ValueError(f"Renyi orders must be >= 1, got {alphas}")
    if sensitivity == 0:  # the output ignores the input
        return np.zeros_like(alphas)[()]
    # divide the mantissas' integer squares, rounding once: the ratio lies in
    # (1/32, 1/2), so no order overflows it before np.ldexp restores the exponents
    (s_frac, s_exp), (sigma_frac, sigma_exp) = math.frexp(sensitivity), math.frexp(sigma)
    ratio = int(s_frac * 2**53) ** 2 / (8 * int(sigma_frac * 2**53) ** 2)
    with np.errstate(over="raise"):
        try:
            return np.ldexp(alphas * ratio, 2 * (s_exp - sigma_exp) + 2)
        except FloatingPointError:
            raise ValueError(
                f"the Gaussian budget at s = {sensitivity!r}, sigma = {sigma!r} "
                "is out of float range"
            ) from None


def rdp_to_dp(alphas, epsilons, delta: float) -> float:
    """Best (epsilon', delta)-DP epsilon' of an RDP curve: the minimum over its
    orders of epsilon + log(1/delta)/(alpha - 1); at alpha = inf the slack
    is 0. ``alphas`` and ``epsilons`` must have one shape.
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    alphas, epsilons = np.asarray(alphas, dtype=float), np.asarray(epsilons, dtype=float)
    if alphas.shape != epsilons.shape or alphas.size == 0:
        raise ValueError(f"need one epsilon per order, got shapes {alphas.shape}, {epsilons.shape}")
    if not (alphas > 1).all():
        raise ValueError(f"conversion needs orders > 1 (undefined at alpha = 1), got {alphas}")
    if not (epsilons >= 0).all():
        raise ValueError(f"epsilons must be nonnegative, got {epsilons}")
    return float((epsilons + math.log(1.0 / delta) / (alphas - 1.0)).min())


def calibrate_sigma(target: DpPoint, rounds: int, sensitivity: float) -> float:
    """Gaussian noise scale meeting ``target`` over ``rounds`` releases.

    At order alpha the composed, converted budget is
    rounds*alpha*s^2/(2*sigma^2) + log(1/delta)/(alpha - 1), so each order on
    DEFAULT_ALPHA_GRID has a closed-form noise scale; the smallest one wins,
    then moves to the smallest float at which ``rounds *
    gaussian_rdp_baseline`` plus that order's slack meets the target too.
    Raises if the target is unreachable at any noise scale (the conversion
    slack alone exceeds it).
    """
    if isinstance(rounds, bool) or not isinstance(rounds, (int, np.integer)) or rounds < 1:
        raise ValueError(f"rounds must be an integer >= 1, got {rounds!r}")
    if rounds > sys.float_info.max:
        raise ValueError(f"rounds must not exceed the largest float, {sys.float_info.max!r}")
    if not 0 < sensitivity < math.inf:
        raise ValueError(f"sensitivity must be finite and positive, got {sensitivity}")
    if not target.epsilon < math.inf:
        raise ValueError(f"target epsilon must be finite, got {target.epsilon}")
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
    if not 0 < sigma < math.inf:
        raise ValueError(f"the noise scale for {target} over {rounds} rounds is out of float range")

    def meets(bits):  # at the float with these bits; positive floats sort as their bits
        (sigma,) = struct.unpack("<d", struct.pack("<q", bits))
        return rounds * gaussian_rdp_baseline(sensitivity, sigma, alpha) + slack[alpha] <= target.epsilon

    # gallop from the closed form to a bracket where lo misses and hi meets,
    # then bisect it down to adjacent floats
    (bits,) = struct.unpack("<q", struct.pack("<d", sigma))
    if meets(bits):
        lo, hi, step = bits - 1, bits, 1
        while lo > 0 and meets(lo):
            lo, hi, step = max(lo - 2 * step, 0), lo, 2 * step
    else:
        lo, hi, step = bits, bits + 1, 1
        while not meets(hi):
            lo, hi, step = hi, hi + 2 * step, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if meets(mid) else (mid, hi)
    return struct.unpack("<d", struct.pack("<q", hi))[0]
