"""Exact output distribution of the quantized Gaussian mechanism.

Adding N(0, sigma^2) noise to a scalar and stochastically quantizing the
result produces a discrete distribution over the k lattice levels. This
module evaluates its log masses from log-space moments of Gaussian cells,
so masses far in the tails stay finite; numeric quadrature is never used
(the test suite keeps it as an independent oracle).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .quantizer import QuantizerSpec

__all__ = [
    "NoiseSpec",
    "LevelPmf",
    "partial_first_moment",
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
class LevelPmf:
    """Natural-log masses over the k lattice levels for one mechanism input,
    finite where the masses underflow; ``probs`` exponentiates them."""

    spec: QuantizerSpec
    log_probs: np.ndarray

    def __post_init__(self):
        log_probs = np.asarray(self.log_probs, dtype=float)
        object.__setattr__(self, "log_probs", log_probs)
        if log_probs.shape != (self.spec.k,):
            raise ValueError(
                f"pmf needs one probability per level: got {log_probs.shape} for k={self.spec.k}"
            )
        # NaN and +inf fail this test too, as does any log mass above 0
        total = float(np.exp(log_probs).sum())
        if not abs(total - 1.0) <= _NORM_TOL:
            raise ValueError(f"pmf sums to {total!r}, not 1 within {_NORM_TOL}")

    @property
    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs)

    @property
    def levels(self) -> np.ndarray:
        return self.spec.levels()


def _narrow_cell(a, b):
    # Taylor series phi(a + u) / phi(a) = sum_n d_n (u/w)^n with
    # d_{n+1} = -(a w d_n + w^2 d_{n-1}) / (n+1), integrated against u and
    # w - u over [0, w]; the terms fall faster than 1/n! for w b < 1, b >= |a|
    w = b - a
    d_prev, d = np.zeros_like(a), np.ones_like(a)
    fwd, rev = np.zeros_like(a), np.zeros_like(a)
    n = 0
    while np.max(np.abs(d) + np.abs(d_prev)) > 1e-17:
        fwd += d / (n + 2)
        rev += d / ((n + 1) * (n + 2))
        d_prev, d = d, (a * w * d + w * w * d_prev) * (-1.0 / (n + 1))
        n += 1
    return w * w * fwd, w * w * rev


def _tail_cell(a, b):
    # A cell above the mean: both moments over phi(a), from the Mills ratio
    # m(z) = (1 - Phi(z)) / phi(z) and the tail gap 1 - z m(z) = E[(Z - z)+] / phi(z)
    # at z = a, b. The gap, ~1/z^2, loses ~z^2 ulps to cancellation: past
    # z = 1e4 its leading term is closer, and either way the loss is ~1 ulp
    # of log phi(a) = -z^2/2, which dominates the log moment there.
    z = np.stack((a, b))
    mills = _SQRT_HALF_PI * special.erfcx(z / _SQRT2)
    gap = np.where(z > 1e4, 1.0 / np.maximum(z, 1.0) ** 2, 1.0 - z * mills)
    w = b - a
    decay = np.exp(-0.5 * w * (a + b))  # phi(b) / phi(a)
    fwd = gap[0] - decay * (gap[1] + w * mills[1])
    return fwd, w * (mills[0] - decay * mills[1]) - fwd


def _mean_cell(a, b):
    # The cell holding the mean; phi(a) - phi(b), with a nearer the mean than b
    drop = -np.exp(-0.5 * a * a - _LOG_SQRT_2PI) * np.expm1(-0.5 * (b - a) * (b + a))
    mass = special.ndtr(b) - special.ndtr(a)
    return drop - a * mass, b * mass - drop


def log_cell_moments(lo, hi):
    """Logs of int phi(s) (s - lo) ds and int phi(s) (hi - s) ds over [lo, hi].

    Elementwise, phi the standard normal density. A cell centred below the
    mean is the mirror image of one above it, with the moments swapped.
    Cells above the mean factor out phi(lo), so tail masses keep their full
    exponent; the cell holding the mean uses CDF differences, and narrow
    cells, where those closed forms would cancel, a Taylor series in the width.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    below = lo + hi < 0
    a, b = np.where(below, -hi, lo), np.where(below, -lo, hi)  # now b >= |a|
    narrow = (b - a < _NARROW_CELL) & ((b - a) * b < 1.0)
    at_mean = ~narrow & (a < 0)
    tail = ~narrow & ~at_mean
    fwd, rev = np.empty(a.shape), np.empty(a.shape)
    for branch, mask in (_narrow_cell, narrow), (_tail_cell, tail), (_mean_cell, at_mean):
        if mask.any():
            fwd[mask], rev[mask] = branch(a[mask], b[mask])
    with np.errstate(divide="ignore"):
        log_scale = np.where(at_mean, 0.0, -0.5 * a * a - _LOG_SQRT_2PI)  # log phi(a)
        log_fwd = log_scale + np.log(np.maximum(fwd, 0.0))
        log_rev = log_scale + np.log(np.maximum(rev, 0.0))
    return np.where(below, log_rev, log_fwd), np.where(below, log_fwd, log_rev)


def partial_first_moment(a, b, mu, sigma: float):
    """Integral of f(t) * (t - a) over [a, b], with f the density of N(mu, sigma^2).

    sigma times the first ``log_cell_moments`` of the standardized cell, so
    it keeps full relative accuracy until it underflows.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if np.any(a > b):
        raise ValueError("partial first moment needs a <= b")
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    log_fwd, _ = log_cell_moments((a - mu) / sigma, (b - mu) / sigma)
    return sigma * np.exp(log_fwd)


def quantized_gaussian_pmf(x: float, noise: NoiseSpec, spec: QuantizerSpec) -> LevelPmf:
    """Distribution of quantize(x + N(0, sigma^2)) over the lattice levels.

    The input must lie in [-c_q/2, +c_q/2], the range the privacy analysis
    needs. Every term stays in log space, so each log mass is finite and
    accurate even where the mass itself underflows.
    """
    half = spec.c_q / 2.0
    if not -half <= x <= half:
        raise ValueError(
            f"input {x} outside the admissible interval [{-half}, {half}] "
            f"(inputs must be pre-clipped to c_q/2)"
        )
    z = (spec.levels() - x) / noise.sigma
    log_fwd, log_rev = log_cell_moments(z[:-1], z[1:])
    # level r takes the mass rounded up from cell r - 1 and down from cell r,
    # and the end levels also take the noise clipped past them
    log_probs = np.append(-np.inf, log_fwd)
    log_probs[:-1] = np.logaddexp(log_probs[:-1], log_rev)
    log_probs -= np.log(spec.delta / noise.sigma)
    log_probs[[0, -1]] = np.logaddexp(log_probs[[0, -1]], special.log_ndtr([z[0], -z[-1]]))
    return LevelPmf(spec, log_probs)
