"""Exact output distribution of the quantized Gaussian mechanism.

Adding N(0, sigma^2) noise to a scalar and stochastically quantizing the
result produces a discrete distribution over the k lattice levels; a
``MechanismSpec`` names the noise and lattice. This module evaluates that
pmf as a (k,) array of natural-log masses, from log-space moments of
Gaussian cells, so masses far in the tails stay finite; numeric quadrature
is never used (the test suite keeps it as an independent oracle).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy import special

from .quantizer import QuantizerSpec

__all__ = [
    "NoiseSpec",
    "MechanismSpec",
    "log_cell_moments",
    "quantized_gaussian_pmf",
]

_NORM_TOL = 1e-9
_SQRT2, _SQRT_HALF_PI, _LOG_SQRT_2PI = np.sqrt(2.0), np.sqrt(np.pi / 2), 0.5 * np.log(2 * np.pi)
# Below this standardized width the closed forms lose more than ~1e-11 of
# a cell moment to cancellation, and a Taylor series takes over.
_NARROW_CELL = 1e-2


@dataclass(frozen=True)
class NoiseSpec:
    """Standard deviation of the additive Gaussian noise."""

    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"noise standard deviation must be positive, got {self.sigma}")


@dataclass(frozen=True)
class MechanismSpec:
    """Quantized Gaussian mechanism: noise scale and lattice.

    The scalar worst case puts the two neighboring inputs at +-c_q/2, so the
    sensitivity is c_q, the same convention the Gaussian baseline uses.
    """

    noise: NoiseSpec
    quant: QuantizerSpec

    def __post_init__(self):
        # the pmf and the budgets are evaluated on the lattice in noise units
        sigma = self.noise.sigma
        spacing, span = self.quant.delta / sigma, 2.0 * self.quant.c_q / sigma
        if not (spacing >= sys.float_info.min and span < math.inf):
            raise ValueError(
                f"{self!r} is out of float range in noise units: "
                f"delta/sigma = {spacing:g}, 2*c_q/sigma = {span:g}"
            )


def _narrow_cell(a, b):
    # Taylor series phi(a + u) / phi(a) = sum_n d_n (u/w)^n with
    # d_{n+1} = -(a w d_n + w^2 d_{n-1}) / (n+1), integrated against u and
    # w - u over [0, w]; the terms fall faster than 1/n! for w b < 1, b >= |a|.
    # Both moments over w^2 phi(a): w^2 underflows long before w does.
    w = b - a
    aw, ww = a * w, w * w
    fwd = rev = d_prev = 0.0 * w  # +0.0 in the cells' shape: w >= 0
    d = d_prev + 1.0
    n = 0
    while np.count_nonzero(abs(d) + abs(d_prev) > 1e-17):
        fwd = fwd + d / (n + 2)
        rev = rev + d / ((n + 1) * (n + 2))
        d_prev, d = d, (aw * d + ww * d_prev) * (-1.0 / (n + 1))
        n += 1
    return fwd, rev, -0.5 * a * a - _LOG_SQRT_2PI + 2.0 * np.log(w)


def _tail_cell(a, b):
    # A cell above the mean: both moments over phi(a), from the Mills ratio
    # m(z) = (1 - Phi(z)) / phi(z) and the tail gap 1 - z m(z) = E[(Z - z)+] / phi(z)
    # at z = a, b. The gap, ~1/z^2, loses ~z^2 ulps to cancellation: past
    # z = 1e4 its leading term is closer, and either way the loss is ~1 ulp
    # of log phi(a) = -z^2/2, which dominates the log moment there.
    mills_a = _SQRT_HALF_PI * special.erfcx(a / _SQRT2)
    mills_b = _SQRT_HALF_PI * special.erfcx(b / _SQRT2)
    gap_a, gap_b = 1.0 - a * mills_a, 1.0 - b * mills_b
    if np.count_nonzero(b > 1e4):  # b >= a, so no cell is far unless some b is
        gap_a = np.where(a > 1e4, 1.0 / np.square(np.maximum(a, 1.0)), gap_a)
        gap_b = np.where(b > 1e4, 1.0 / np.square(np.maximum(b, 1.0)), gap_b)
    w = b - a
    decay = np.exp(-0.5 * w * (a + b))  # phi(b) / phi(a)
    fwd = gap_a - decay * (gap_b + w * mills_b)
    return fwd, w * (mills_a - decay * mills_b) - fwd, -0.5 * a * a - _LOG_SQRT_2PI


def _mean_cell(a, b):
    # The cell holding the mean, nothing factored out; phi(a) - phi(b), with a nearer the mean
    drop = -np.exp(-0.5 * a * a - _LOG_SQRT_2PI) * np.expm1(-0.5 * (b - a) * (b + a))
    mass = special.ndtr(b) - special.ndtr(a)
    return drop - a * mass, b * mass - drop, 0.0


def log_cell_moments(lo, hi):
    """Logs of int phi(s) (s - lo) ds and int phi(s) (hi - s) ds over [lo, hi].

    Elementwise, phi the standard normal density; a cell with hi < lo or a
    NaN edge raises. A cell centred below the mean is the mirror image of
    one above it, with the moments swapped. One of three branches takes each
    cell and returns its moments over the log scale it factored out: cells
    above the mean factor out phi(lo), so tail masses keep their full
    exponent; the cell holding the mean uses CDF differences; and narrow
    cells, where those closed forms would cancel, a Taylor series in the
    width that factors out the squared width too. A point so far out that
    its square overflows gives phi = 0 and a log moment of -inf.

    Each branch, and the mirroring, runs only on the cells that need it: a
    branch that takes every cell runs on the whole input without masking,
    and a 0-d input stays a numpy scalar throughout. The result does not
    depend on which other cells share the call.
    """
    lo, hi = np.asarray(lo, dtype=float)[()], np.asarray(hi, dtype=float)[()]
    if lo.shape != hi.shape:
        lo, hi = np.broadcast_arrays(lo, hi)
    below = lo + hi < 0
    mirrored = np.count_nonzero(below)
    a, b = (np.where(below, -hi, lo), np.where(below, -lo, hi)) if mirrored else (lo, hi)
    # now b >= |a|
    with np.errstate(over="ignore", divide="ignore"):
        w, size = b - a, np.size(a)
        ordered = w >= 0  # false where hi < lo or an edge is NaN; 0-d skips the reduction
        if not (np.count_nonzero(ordered) == size if ordered.shape else ordered):
            bad = tuple(np.argwhere(~ordered)[0].tolist())
            raise ValueError(f"cell [{lo[bad]}, {hi[bad]}] at index {bad} is reversed or NaN")
        narrow = (w < _NARROW_CELL) & (w * b < 1.0)
        at_mean = ~narrow & (a < 0)
        left, out = size, None
        for branch, mask in (_narrow_cell, narrow), (_mean_cell, at_mean), (_tail_cell, None):
            count = left if mask is None else np.count_nonzero(mask)  # the tail is the rest
            if count == size:
                out = branch(a, b)
                break
            if count:
                mask = ~(narrow | at_mean) if mask is None else mask
                out = out or (np.empty(a.shape), np.empty(a.shape), np.empty(a.shape))
                for part, value in zip(out, branch(a[mask], b[mask])):
                    part[mask] = value
                left -= count
        fwd, rev, log_scale = out
        log_fwd = log_scale + np.log(np.maximum(fwd, 0.0))
        log_rev = log_scale + np.log(np.maximum(rev, 0.0))
    if not mirrored:
        return log_fwd, log_rev
    return np.where(below, log_rev, log_fwd)[()], np.where(below, log_fwd, log_rev)[()]


def quantized_gaussian_pmf(x: float, mech: MechanismSpec) -> np.ndarray:
    """Natural-log masses of quantize(x + N(0, sigma^2)), one per lattice level.

    Entry r is the log mass of ``mech.quant.levels()[r]``; ``np.exp`` gives
    the masses. The input must lie in [-c_q/2, +c_q/2], the range the
    privacy analysis needs. Every term stays in log space, so each log mass
    is finite and accurate even where the mass itself underflows. Raises if
    the masses do not sum to 1.
    """
    spec, sigma = mech.quant, mech.noise.sigma
    half = spec.c_q / 2.0
    if not -half <= x <= half:
        raise ValueError(
            f"input {x} outside the admissible interval [{-half}, {half}] "
            f"(inputs must be pre-clipped to c_q/2)"
        )
    z = (spec.levels() - x) / sigma
    log_fwd, log_rev = log_cell_moments(z[:-1], z[1:])
    # level r takes the mass rounded up from cell r - 1 and down from cell r,
    # and the end levels also take the noise clipped past them
    log_probs = np.empty(spec.k)
    log_probs[0], log_probs[1:] = -np.inf, log_fwd
    np.logaddexp(log_probs[:-1], log_rev, out=log_probs[:-1])
    log_probs -= np.log(spec.delta / sigma)
    log_probs[0] = np.logaddexp(log_probs[0], special.log_ndtr(z[0]))
    log_probs[-1] = np.logaddexp(log_probs[-1], special.log_ndtr(-z[-1]))
    # NaN and +inf fail this test too, as does any log mass above 0
    total = float(np.exp(log_probs).sum())
    if not abs(total - 1.0) <= _NORM_TOL:
        raise ValueError(f"pmf sums to {total!r}, not 1 within {_NORM_TOL}")
    return log_probs
