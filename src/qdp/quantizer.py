"""k-level stochastic quantizer on the uniform lattice over [-c_q, +c_q].

Every coordinate is clamped to [-c_q, +c_q], then randomly rounded to one of
the two adjacent lattice points, with probabilities proportional to
proximity. The rounding is unbiased for in-range inputs. ``clip_vector``
is the L2 clip applied to an update before it is noised.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

__all__ = ["QuantizerSpec", "clip_vector", "quantize"]


@dataclass(frozen=True)
class QuantizerSpec:
    """Symmetric uniform lattice with ``k`` levels over [-c_q, +c_q]."""

    k: int
    c_q: float

    def __post_init__(self):
        if not isinstance(self.k, (int, np.integer)) or self.k < 2:
            raise ValueError(f"quantizer levels: k must be an integer k >= 2, got k={self.k!r}")
        if not self.c_q > 0:
            raise ValueError(f"clipping radius must be positive, got c_q={self.c_q}")
        # delta and the level numerators scale c_q by 2 and by up to k - 1;
        # dividing keeps an integer k too large for a float out of the arithmetic
        if not max(2, self.k - 1) <= sys.float_info.max / self.c_q:
            raise ValueError(f"k={self.k} levels over c_q={self.c_q} are out of float range")

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
    """Scale each row of ``w`` onto the L2 ball of ``radius``; shorter rows pass through.

    A row is a vector along the last axis; a 1-D ``w`` is one row. Returns
    w * min(1, radius/||w||) row by row, which preserves direction, for any
    finite row, even where ||w||^2 leaves the float range. The zero vector
    is a fixed point.
    """
    if not 0 < radius < np.inf:
        raise ValueError(f"clip radius must be finite and positive, got {radius}")
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("cannot clip a vector with non-finite entries")
    # a per-row dot product, so each norm is what np.linalg.norm gives the row
    with np.errstate(over="ignore"):
        square = (w[..., None, :] @ w[..., :, None])[..., 0]
        clipped = w * (radius / np.maximum(np.sqrt(square), radius))
        # a nonzero row whose squared norm overflows or underflows is redone over its largest entry
        redo = (square == np.inf) | (square < sys.float_info.min)
        if redo.any():
            peak = np.max(np.abs(w), axis=-1, keepdims=True)
            redo = (redo & (peak > 0))[..., 0]
            unit = w[redo] / peak[redo]
            norm = np.linalg.norm(unit, axis=-1, keepdims=True)  # in [1, sqrt(d)]
            inside = norm <= radius / peak[redo]
            clipped[redo] = np.where(inside, w[redo], unit * (radius / norm))
    return clipped


def quantize(w, spec: QuantizerSpec, uniforms) -> np.ndarray:
    """Clamp each coordinate to [-c_q, c_q], then stochastically round.

    A clamped value v in [B(r), B(r+1)] maps to B(r+1) when its uniform in
    [0, 1) falls below (v - B(r))/delta and to B(r) otherwise, so lattice
    points map to themselves and, for independent uniforms, in-range
    coordinates match the input in expectation. ``uniforms`` holds one draw
    per element of ``w``; the caller owns the stream they come from.
    Shape-agnostic, which makes batches of independent mechanism draws cheap.
    Applied to a noisy input this is, coordinate by coordinate, the
    mechanism whose level pmf ``pmf.quantized_gaussian_pmf`` computes.
    """
    w = np.asarray(w, dtype=float)
    if not np.isfinite(w).all():
        raise ValueError("cannot quantize a vector with non-finite entries")
    if np.shape(uniforms) != w.shape:
        raise ValueError(
            f"need one uniform per element: {np.shape(uniforms)} for an input of {w.shape}"
        )
    v = np.clip(w, -spec.c_q, spec.c_q)
    # Bracket index: clamped floor keeps values at +c_q in the top cell.
    r = np.clip(np.floor((v + spec.c_q) / spec.delta), 0, spec.k - 2)
    lo, hi = spec.level(r), spec.level(r + 1)
    frac = np.where(v == hi, 1.0, (v - lo) / spec.delta)
    return np.where(uniforms < frac, hi, lo)
