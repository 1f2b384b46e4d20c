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


def quad_cdf(z):
    """Standard normal CDF by quadrature from -40 (mass below is < 1e-350)."""
    value, _ = integrate.quad(lambda t: norm_pdf(t, 0.0, 1.0), -40.0, z)
    return value


def quad_partial_first_moment(a, b, mu, sigma):
    value, _ = integrate.quad(lambda t: norm_pdf(t, mu, sigma) * (t - a), a, b)
    return value


def mp_log_cell_moments(lo, hi, dps=60):
    """Logs of int phi(s) (s - lo) ds and int phi(s) (hi - s) ds over [lo, hi].

    Closed forms in mpmath at ``dps`` digits, with tail masses taken away
    from the mean (a cell below it is mirrored), so the cancellation the
    float kernel has to avoid costs only spare digits here.
    """
    with mp.workdps(dps):
        lo, hi = mp.mpf(lo), mp.mpf(hi)
        if hi <= 0:
            rev, fwd = mp_log_cell_moments(-hi, -lo, dps)
            return fwd, rev
        phi = lambda s: mp.exp(-s * s / 2) / mp.sqrt(2 * mp.pi)
        upper = lambda s: mp.erfc(s / mp.sqrt(2)) / 2
        mass = upper(lo) - upper(hi) if lo >= 0 else 1 - upper(hi) - upper(-lo)
        drop = phi(lo) - phi(hi)
        return float(mp.log(drop - lo * mass)), float(mp.log(hi * mass - drop))


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
