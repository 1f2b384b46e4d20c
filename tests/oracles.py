"""Independent numerical oracles used across the test suite.

Everything here is computed by adaptive quadrature, brute-force summation
or textbook formulas in high-precision arithmetic, never by the library's
float closed forms, so the two routes stay independent.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
from scipy import integrate


def norm_pdf(t, mu, sigma):
    z = (t - mu) / sigma
    return math.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))


def quad_partial_first_moment(a, b, mu, sigma):
    value, _ = integrate.quad(lambda t: norm_pdf(t, mu, sigma) * (t - a), a, b)
    return value


def _mp_log_cell_moments(lo, hi):
    # at the working precision; a cell below the mean is mirrored
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    if hi <= 0:
        rev, fwd = _mp_log_cell_moments(-hi, -lo)
        return fwd, rev
    phi = lambda s: mp.exp(-s * s / 2) / mp.sqrt(2 * mp.pi)
    upper = lambda s: mp.erfc(s / mp.sqrt(2)) / 2
    mass = upper(lo) - upper(hi) if lo >= 0 else 1 - upper(hi) - upper(-lo)
    drop = phi(lo) - phi(hi)
    return mp.log(drop - lo * mass), mp.log(hi * mass - drop)


def mp_log_cell_moments(lo, hi, dps=60):
    """Logs of int phi(s) (s - lo) ds and int phi(s) (hi - s) ds over [lo, hi].

    Closed forms in mpmath at ``dps`` digits, with tail masses taken away
    from the mean (a cell below it is mirrored), so the cancellation the
    float kernel has to avoid costs only spare digits here.
    """
    with mp.workdps(dps):
        return tuple(float(m) for m in _mp_log_cell_moments(lo, hi))


def mp_epsilon_infinity(k, c_q, sigma, dps=900):
    """log(delta / m), m the first moment of N(-c_q/2, sigma^2) over the top
    lattice cell, from the exact lattice at ``dps`` digits.

    The standardized cell is ~c_q/sigma wide and its closed-form moment
    cancels down to ~(c_q/sigma)^2 of phi, so ``dps`` must exceed
    2*log10(sigma/c_q) by the digits wanted.
    """
    with mp.workdps(dps):
        c_q, sigma = mp.mpf(c_q), mp.mpf(sigma)
        delta = 2 * c_q / (k - 1)
        top = 3 * c_q / 2  # the top level seen from the input -c_q/2
        log_fwd, _ = _mp_log_cell_moments((top - delta) / sigma, top / sigma)
        return float(mp.log(delta / sigma) - log_fwd)


def _rational_gaussian_rdp(sensitivity, sigma, alpha):
    return Fraction(alpha) * Fraction(sensitivity) ** 2 / (2 * Fraction(sigma) ** 2)


def exact_gaussian_rdp(sensitivity, sigma, alpha):
    """alpha * s^2 / (2 sigma^2) in exact rational arithmetic, rounded once to a
    float; inf beyond the largest float."""
    try:
        return float(_rational_gaussian_rdp(sensitivity, sigma, alpha))
    except OverflowError:
        return math.inf


def gaussian_rdp_ulp_error(value, sensitivity, sigma, alpha):
    """Distance of ``value`` from the exact alpha * s^2 / (2 sigma^2), in exact
    rational arithmetic, counted in ulps of the correctly rounded float."""
    exact = _rational_gaussian_rdp(sensitivity, sigma, alpha)
    return float(abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact))))


def mp_log_level_probs(x, sigma, k, c_q, dps=60):
    """Natural-log level masses of quantize(x + N(0, sigma^2)), as mpmath numbers.

    Each level takes the cell moments on either side, divided by the
    standardized cell width, and the end levels also the Gaussian tails
    past them (mpmath ``erfc``). Lattice and inputs are taken exactly, and
    the values keep ``dps`` digits for ``mp_renyi_divergence``.
    """
    with mp.workdps(dps):
        x, sigma, c_q = mp.mpf(x), mp.mpf(sigma), mp.mpf(c_q)
        z = [(c_q * (2 * r - (k - 1)) / (k - 1) - x) / sigma for r in range(k)]
        cells = [_mp_log_cell_moments(lo, hi) for lo, hi in zip(z, z[1:])]
        masses = [mp.mpf(0)] * k
        for r, (log_fwd, log_rev) in enumerate(cells):
            masses[r + 1] += mp.exp(log_fwd)
            masses[r] += mp.exp(log_rev)
        log_width = mp.log(2 * c_q / (k - 1) / sigma)
        log_probs = [mp.log(m) - log_width for m in masses]
        log_tail = lambda t: mp.log(mp.erfc(t / mp.sqrt(2)) / 2)  # log Pr[Z > t]
        log_probs[0] = mp.log(mp.exp(log_probs[0]) + mp.exp(log_tail(-z[0])))
        log_probs[-1] = mp.log(mp.exp(log_probs[-1]) + mp.exp(log_tail(z[-1])))
        return log_probs


def mp_renyi_divergence(log_p, log_q, alpha, dps=60):
    """D_alpha(p || q) from ``mp_log_level_probs`` outputs, summed in mpmath."""
    with mp.workdps(dps):
        ratio = [a - b for a, b in zip(log_p, log_q)]
        if alpha == math.inf:
            return float(max(ratio))
        if alpha == 1:
            return float(mp.fsum(mp.exp(a) * r for a, r in zip(log_p, ratio)))
        terms = mp.fsum(mp.exp(a + (alpha - 1) * r) for a, r in zip(log_p, ratio))
        return float(mp.log(terms) / (alpha - 1))


def quad_pmf(x, sigma, k, c_q):
    """Level pmf of the quantized Gaussian, integrated numerically."""
    delta = 2.0 * c_q / (k - 1)
    level = lambda r: -c_q + delta * r
    f = lambda t: norm_pdf(t, x, sigma)
    probs = np.zeros(k)
    probs[0] = (
        integrate.quad(f, -np.inf, level(0))[0]
        + integrate.quad(lambda t: f(t) * (level(1) - t) / delta, level(0), level(1))[0]
    )
    probs[k - 1] = (
        integrate.quad(lambda t: f(t) * (t - level(k - 2)) / delta, level(k - 2), level(k - 1))[0]
        + integrate.quad(f, level(k - 1), np.inf)[0]
    )
    for r in range(1, k - 1):
        probs[r] = (
            integrate.quad(lambda t: f(t) * (t - level(r - 1)) / delta, level(r - 1), level(r))[0]
            + integrate.quad(lambda t: f(t) * (level(r + 1) - t) / delta, level(r), level(r + 1))[0]
        )
    return probs


def kl_sum(p, q):
    """Plain KL divergence of two finite distributions."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def monte_carlo_quantized_gaussian(x, sigma, k, c_q, n_samples, seed):
    """Empirical level frequencies of quantize(clamp(x + noise)).

    Implements the mechanism from its verbal definition: clamp the noisy
    scalar into [-c_q, c_q], then round to the bracketing lattice points with
    proximity weights. Kept separate from the library's vectorized quantizer.
    """
    rng = np.random.default_rng(seed)
    delta = 2.0 * c_q / (k - 1)
    t = np.clip(x + sigma * rng.standard_normal(n_samples), -c_q, c_q)
    r = np.clip(np.floor((t + c_q) / delta), 0, k - 2).astype(int)
    low = -c_q + delta * r
    go_up = rng.random(n_samples) < (t - low) / delta
    counts = np.bincount(r + go_up.astype(int), minlength=k)
    return counts / n_samples


def stochastic_round(values, spec, rng):
    """Round already-in-range values elementwise onto the lattice of ``spec``.

    A value in [B(r), B(r+1)] maps to B(r+1) with probability
    (v - B(r))/delta and to B(r) otherwise, one uniform draw per element in
    element order: the library's rounding as a standalone step, kept as the
    reference that ``qdp.quantizer.quantize`` must reproduce after its clamp.
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


def threshold_sweep_attack_accuracy(scores, is_member):
    """Best balanced accuracy and ROC of `score >= threshold` rules, by brute force.

    Evaluates every distinct score as a threshold, one at a time: O(n^2),
    kept as the reference for the sorted sweep in ``qdp.lira``.
    """
    s = np.asarray(scores, dtype=float)
    truth = np.asarray(is_member, dtype=bool)
    best = 0.0
    for threshold in np.unique(s):  # ascending: ties resolve to the lower threshold
        predicted = s >= threshold
        tpr = float(np.mean(predicted[truth]))
        tnr = float(np.mean(~predicted[~truth]))
        balanced = 0.5 * (tpr + tnr)
        if balanced > best:
            best = balanced
    roc = [(0.0, 0.0)]
    for threshold in np.unique(s)[::-1]:
        predicted = s >= threshold
        roc.append((float(np.mean(predicted[~truth])), float(np.mean(predicted[truth]))))
    return best, roc
