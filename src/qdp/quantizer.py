"""k-level stochastic quantizer with L2 clipping.

Inputs are first scaled onto the L2 ball of radius ``c_q``, then every
coordinate is randomly rounded to one of the two adjacent points of the
uniform lattice spanning [-c_q, +c_q], with probabilities proportional to
proximity. The rounding is unbiased for in-range inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QuantizerSpec", "clip_vector", "stochastic_round", "quantize"]


@dataclass(frozen=True)
class QuantizerSpec:
    """Symmetric uniform lattice with ``k`` levels over [-c_q, +c_q]."""

    k: int
    c_q: float

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"quantizer needs at least 2 levels, got k={self.k}")
        if not self.c_q > 0:
            raise ValueError(f"clipping radius must be positive, got c_q={self.c_q}")

    @property
    def delta(self) -> float:
        """Spacing between adjacent lattice levels, 2*c_q/(k-1)."""
        return 2.0 * self.c_q / (self.k - 1)

    def level(self, r):
        """Lattice point(s) for index ``r`` in {0, ..., k-1}.

        Evaluated as c_q*(2r - (k-1))/(k-1) so the endpoints are exactly
        -c_q and +c_q regardless of rounding in ``delta``.
        """
        r = np.asarray(r, dtype=float)
        return self.c_q * (2.0 * r - (self.k - 1)) / (self.k - 1)

    def levels(self) -> np.ndarray:
        """All k lattice points in increasing order."""
        return self.level(np.arange(self.k))


def clip_vector(w, radius: float) -> np.ndarray:
    """Scale ``w`` onto the L2 ball of ``radius``; shorter vectors pass through.

    Returns w * min(1, radius/||w||), which preserves direction. The zero
    vector is a fixed point.
    """
    if not radius > 0:
        raise ValueError(f"clip radius must be positive, got {radius}")
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("cannot clip a vector with non-finite entries")
    norm = float(np.linalg.norm(w))
    if norm <= radius:
        return w
    return w * (radius / norm)


def stochastic_round(values, spec: QuantizerSpec, rng: np.random.Generator) -> np.ndarray:
    """Round already-in-range values elementwise onto the lattice.

    A value lying in [B(r), B(r+1)] maps to B(r+1) with probability
    (v - B(r))/delta and to B(r) otherwise; values exactly on a lattice point
    map there deterministically. Each element consumes exactly one uniform
    draw from ``rng``, in element order, so results are reproducible
    regardless of how the work is scheduled. Shape-agnostic, which makes
    batches of independent mechanism draws cheap.
    """
    v = np.asarray(values, dtype=float)
    if np.any(np.abs(v) > spec.c_q * (1 + 1e-12)):
        raise ValueError(f"values exceed the lattice range [-{spec.c_q}, {spec.c_q}]; clip first")
    # Bracket index: clamped floor keeps values at +c_q in the top cell.
    r = np.clip(np.floor((v + spec.c_q) / spec.delta), 0, spec.k - 2)
    lo = spec.level(r)
    hi = spec.level(r + 1)
    frac = np.where(v == hi, 1.0, (v - lo) / spec.delta)
    u = rng.random(size=v.shape)
    return np.where(u < frac, hi, lo)


def quantize(w, spec: QuantizerSpec, rng: np.random.Generator) -> np.ndarray:
    """Clip the input onto the L2 ball of radius c_q, then stochastically round.

    The output lands on the lattice coordinatewise and, whenever the clip is
    inactive, matches the input in expectation.

    The accountant's pmf models a per-coordinate clamp to [-c_q, c_q]
    instead, so its budgets hold only while this rescale is inactive.
    """
    return stochastic_round(clip_vector(w, spec.c_q), spec, rng)
