"""k-level stochastic quantizer on the uniform lattice over [-c_q, +c_q].

Every coordinate is clamped to [-c_q, +c_q], then randomly rounded to one of
the two adjacent lattice points, with probabilities proportional to
proximity. The rounding is unbiased for in-range inputs. ``clip_vector``
is the L2 clip applied to an update before it is noised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QuantizerSpec", "clip_vector", "quantize"]


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


def quantize(w, spec: QuantizerSpec, rng: np.random.Generator) -> np.ndarray:
    """Clamp each coordinate to [-c_q, c_q], then stochastically round.

    A clamped value in [B(r), B(r+1)] maps to B(r+1) with probability
    (v - B(r))/delta and to B(r) otherwise, so lattice points map to
    themselves and in-range coordinates match the input in expectation.
    Each element consumes exactly one uniform draw from ``rng``, in element
    order, so results are reproducible however the work is scheduled.
    Shape-agnostic, which makes batches of independent mechanism draws cheap.
    Applied to a noisy input this is, coordinate by coordinate, the
    mechanism whose level pmf ``pmf.quantized_gaussian_pmf`` computes.
    """
    w = np.asarray(w, dtype=float)
    if not np.isfinite(w).all():
        raise ValueError("cannot quantize a vector with non-finite entries")
    v = np.clip(w, -spec.c_q, spec.c_q)
    # Bracket index: clamped floor keeps values at +c_q in the top cell.
    r = np.clip(np.floor((v + spec.c_q) / spec.delta), 0, spec.k - 2)
    lo, hi = spec.level(r), spec.level(r + 1)
    frac = np.where(v == hi, 1.0, (v - lo) / spec.delta)
    return np.where(rng.random(size=v.shape) < frac, hi, lo)
