"""Independent numerical oracles used across the test suite.

Everything here is computed by adaptive quadrature, brute-force summation
or textbook formulas in high-precision arithmetic, never by the library's
float closed forms, so the two routes stay independent.
"""

import math

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
