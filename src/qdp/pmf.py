"""Exact output distribution of the quantized Gaussian mechanism.

Adding N(0, sigma^2) noise to a scalar and stochastically quantizing the
result produces a discrete distribution over the k lattice levels. This
module evaluates that distribution in closed form from Gaussian CDF
differences and partial first moments; numeric quadrature is never used on
the main path (the test suite keeps it as an independent oracle).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .quantizer import QuantizerSpec

__all__ = [
    "NoiseSpec",
    "LevelPmf",
    "gaussian_cdf",
    "partial_first_moment",
    "quantized_gaussian_pmf",
]

_NORM_TOL = 1e-9


@dataclass(frozen=True)
class NoiseSpec:
    """Standard deviation of the additive Gaussian noise."""

    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"noise standard deviation must be positive, got {self.sigma}")


@dataclass(frozen=True)
class LevelPmf:
    """Probability mass over the k lattice levels for one mechanism input."""

    spec: QuantizerSpec
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        if probs.shape != (self.spec.k,):
            raise ValueError(
                f"pmf needs one probability per level: got shape {probs.shape} for k={self.spec.k}"
            )
        if np.any(probs < 0):
            raise ValueError("pmf has negative entries")
        total = float(probs.sum())
        if abs(total - 1.0) > _NORM_TOL:
            raise ValueError(f"pmf sums to {total!r}, not 1 within {_NORM_TOL}")

    @property
    def levels(self) -> np.ndarray:
        return self.spec.levels()


def gaussian_cdf(z):
    """Standard normal CDF, exact to well under 1e-12 absolute error.

    Accepts scalars or arrays. The lower tail is evaluated through the
    complementary error function, so tiny probabilities keep full relative
    accuracy instead of cancelling.
    """
    return special.ndtr(z)


def _norm_pdf(t, mu, sigma):
    z = (np.asarray(t, dtype=float) - mu) / sigma
    return np.exp(-0.5 * z * z) / (sigma * np.sqrt(2.0 * np.pi))


def partial_first_moment(a, b, mu, sigma: float):
    """Integral of f(t) * (t - a) over [a, b], with f the density of N(mu, sigma^2).

    Closed form: (mu - a) * (Phi_b - Phi_a) + sigma^2 * (phi_a - phi_b), where
    Phi and phi are the CDF and pdf of N(mu, sigma^2). The integrand is
    nonnegative, so the result is floored at 0 to absorb rounding.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a > b):
        raise ValueError("partial first moment needs a <= b")
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    cdf_term = (mu - a) * (gaussian_cdf((b - mu) / sigma) - gaussian_cdf((a - mu) / sigma))
    pdf_term = sigma**2 * (_norm_pdf(a, mu, sigma) - _norm_pdf(b, mu, sigma))
    return np.maximum(cdf_term + pdf_term, 0.0)


def _reverse_partial_first_moment(a, b, mu, sigma: float):
    # int_a^b f(t) * (b - t) dt via the reflection t -> -t, avoiding the
    # cancellation-prone difference delta*(Phi_b - Phi_a) - forward moment.
    return partial_first_moment(-np.asarray(b, float), -np.asarray(a, float), -mu, sigma)


def quantized_gaussian_pmf(x: float, noise: NoiseSpec, spec: QuantizerSpec) -> LevelPmf:
    """Distribution of quantize(x + N(0, sigma^2)) over the lattice levels.

    The input must lie in [-c_q/2, +c_q/2], the range the privacy analysis
    needs. Mass pushed beyond the lattice ends by noise is absorbed into the
    boundary levels (the quantizer clips before rounding); interior levels
    collect the proximity-weighted mass of their two flanking cells. Tail
    terms use the complementary CDF so extreme-tail level masses survive.
    """
    half = spec.c_q / 2.0
    if not -half <= x <= half:
        raise ValueError(
            f"input {x} outside the admissible interval [{-half}, {half}] "
            f"(inputs must be pre-clipped to c_q/2)"
        )
    sigma = noise.sigma
    edges = spec.levels()
    delta = spec.delta
    k = spec.k

    probs = np.empty(k)
    # Lower boundary: everything below B(0), plus the proximity share of cell
    # [B(0), B(1)]. Upper boundary mirrors it with the complementary CDF.
    probs[0] = gaussian_cdf((edges[0] - x) / sigma)
    probs[0] += _reverse_partial_first_moment(edges[0], edges[1], x, sigma) / delta
    probs[k - 1] = gaussian_cdf(-(edges[k - 1] - x) / sigma)
    probs[k - 1] += partial_first_moment(edges[k - 2], edges[k - 1], x, sigma) / delta
    if k > 2:
        lo, mid, hi = edges[:-2], edges[1:-1], edges[2:]
        probs[1:-1] = (
            partial_first_moment(lo, mid, x, sigma)
            + _reverse_partial_first_moment(mid, hi, x, sigma)
        ) / delta
    return LevelPmf(spec=spec, probs=probs)
