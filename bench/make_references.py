"""Regenerate the reference values the benchmark checks outputs against.

    python3 bench/make_references.py                  # every workload
    python3 bench/make_references.py budget_grid      # only the named ones

budget_grid references are computed independently of qdp, in mpmath:

* a level mass of the quantized Gaussian pmf is a sum of Gaussian tail
  probabilities and proximity-weighted cell integrals
  int phi(s) (s - alpha) ds and int phi(s) (beta - s) ds;
* epsilon_one is the KL divergence between the pmfs at +c_q/2 and -c_q/2,
  epsilon_infinity is log(delta / m) with m the partial first moment of
  N(-c_q/2, sigma^2) over the top cell (the paper's closed-form bound), and
  calibrate_sigma is the exact minimum over the documented order grid of the
  Gaussian-RDP noise scale meeting the target.

The cell integrals are evaluated two ways. The closed forms take every tail
on the side away from the mean, so the subtractions left lose a bounded
number of digits (not the thousands the lower-CDF form loses at sigma =
0.01); they are evaluated at two precisions and kept only if both agree to
SETTLE_REL_TOL. Independently, a cancellation-free route integrates the
nonnegative integrands by quadrature (see _one_sided); on the cases in
QUADRATURE_CASES it must agree with the closed forms to CROSS_CHECK_REL_TOL,
or the script fails. Quadrature of the whole grid would take hours.

fl_paper and mia_sweep references are the outputs of qdp itself at the
commit that ran this script, for every task seed the benchmark can select.
They pin results across commits; the benchmark's tolerances admit ulp-level
drift but not a changed result.
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import sys
import time

import mpmath as mp

import workloads

CLOSED_FORM_DIGITS = (50, 100)
SETTLE_REL_TOL = 1e-30
QUADRATURE_DIGITS = 24
QUADRATURE_RATIO = 4  # breakpoints at v = 4^j / 16, see _one_sided
V_CAP = 256
CROSS_CHECK_REL_TOL = 1e-15
# Every sigma for k <= 32, and small, middle and large sigma for the rest.
QUADRATURE_CASES = tuple(
    (k, sigma)
    for k in workloads.K_VALUES
    for sigma in (workloads.SIGMAS if k <= 32 else workloads.SIGMAS[::12])
)
# accountant.DEFAULT_ALPHA_GRID, the order grid calibrate_sigma documents.
ALPHA_GRID = (1.25, 1.5, 2.0, 3.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


def _phi(s):
    return mp.exp(-s * s / 2) / mp.sqrt(2 * mp.pi)


def _one_sided(d, length, weight):
    """int_0^length phi(d + u) weight(u) du for d > 0, weight >= 0.

    Substituting v = d u + u^2 / 2, the drop of the Gaussian factor below
    phi(d), turns the integrand into phi(d) e^-v weight(u(v)) / sqrt(d^2 + 2v),
    which is smooth on every segment between breakpoints 4^j / 16. Past
    v = V_CAP the integrand is below e^-V_CAP of its peak, so one segment
    covers the rest. u(v) = 2v / (d + sqrt(d^2 + 2v)) has no cancellation.
    """
    top = d * length + length * length / 2
    pts = [mp.mpf(0)]
    v = mp.mpf(2) ** -4
    while v < min(top, V_CAP):
        pts.append(v)
        v *= QUADRATURE_RATIO
    pts.append(top)

    def integrand(v):
        root = mp.sqrt(d * d + 2 * v)
        return mp.exp(-v) * weight(2 * v / (d + root)) / root

    return _phi(d) * mp.quad(integrand, pts)


def _quadrature_moments(alpha, beta):
    """int phi(s)(s - alpha) ds and int phi(s)(beta - s) ds over [alpha, beta]."""
    length = beta - alpha
    if alpha >= 0:  # u runs up from alpha
        return (_one_sided(alpha, length, lambda u: u),
                _one_sided(alpha, length, lambda u: length - u))
    if beta <= 0:  # u runs down from beta
        return (_one_sided(-beta, length, lambda u: length - u),
                _one_sided(-beta, length, lambda u: u))
    # The cell holds the mean: a Gaussian bump, split at 0 and at +-2^j.
    pts = sorted({alpha, beta, mp.mpf(0)}
                 | {sign * mp.mpf(2) ** j for j in range(7) for sign in (1, -1)
                    if alpha < sign * mp.mpf(2) ** j < beta})
    return (mp.quad(lambda s: _phi(s) * (s - alpha), pts),
            mp.quad(lambda s: _phi(s) * (beta - s), pts))


def _upper_tail(z):
    return mp.erfc(z / mp.sqrt(2)) / 2


def _closed_moments(alpha, beta):
    """The same two integrals from tails taken away from the mean."""
    if beta <= 0:  # mirror s -> -s, which swaps the two weights
        backward, forward = _closed_moments(-beta, -alpha)
        return forward, backward
    pdf_drop = _phi(alpha) - _phi(beta)  # int s phi(s) ds
    if alpha >= 0:
        mass = _upper_tail(alpha) - _upper_tail(beta)
    else:
        mass = 1 - _upper_tail(beta) - _upper_tail(-alpha)
    return pdf_drop - alpha * mass, beta * mass - pdf_drop


def _level(r, k):
    return mp.mpf(workloads.C_Q) * (2 * r - (k - 1)) / (k - 1)


def _pmf(x, k, sigma, moments):
    """Level masses of quantize(x + N(0, sigma^2)) on the k-level lattice."""
    delta = 2 * mp.mpf(workloads.C_Q) / (k - 1)
    cells = []
    for r in range(k - 1):
        alpha = (_level(r, k) - x) / sigma
        beta = (_level(r + 1, k) - x) / sigma
        f, b = moments(alpha, beta)
        cells.append((f * sigma / delta, b * sigma / delta))
    probs = [mp.mpf(0)] * k
    # Noise past either end of the lattice is clipped onto that end.
    probs[0] = _upper_tail((x - _level(0, k)) / sigma)
    probs[k - 1] = _upper_tail((_level(k - 1, k) - x) / sigma)
    for r, (f, b) in enumerate(cells):
        probs[r] += b  # mass rounded down to level r
        probs[r + 1] += f  # mass rounded up to level r + 1
    total = mp.fsum(probs)
    if abs(total - 1) > CROSS_CHECK_REL_TOL:
        raise ArithmeticError(f"pmf k={k} sigma={sigma} sums to {total}")
    return probs


def _epsilon_one(k, sigma, moments):
    p = _pmf(mp.mpf(workloads.C_Q) / 2, k, sigma, moments)
    q = p[::-1]  # the pmf at -c_q/2 mirrors the one at +c_q/2
    return mp.fsum(pi * (mp.log(pi) - mp.log(qi)) for pi, qi in zip(p, q))


def _epsilon_infinity(k, sigma, moments):
    delta = 2 * mp.mpf(workloads.C_Q) / (k - 1)
    mu = -mp.mpf(workloads.C_Q) / 2
    alpha = (_level(k - 2, k) - mu) / sigma
    beta = (_level(k - 1, k) - mu) / sigma
    forward, _ = moments(alpha, beta)
    return mp.log(delta / (sigma * forward))


def _calibrated_sigma(rounds):
    """min over alpha of sqrt(rounds * alpha / (2 (eps - log(1/delta)/(alpha-1))))."""
    eps, delta = (mp.mpf(v) for v in workloads.CALIBRATION_TARGET)
    best = None
    for a in ALPHA_GRID:
        a = mp.mpf(a)
        room = eps - mp.log(1 / delta) / (a - 1)
        if room > 0:
            s = mp.sqrt(rounds * a / (2 * room))
            best = s if best is None else min(best, s)
    return best


def _budget_values(job: tuple[str, int]) -> dict[str, str]:
    """All grid values by the closed forms, or the QUADRATURE_CASES by quadrature."""
    method, dps = job
    mp.mp.dps = dps
    if method == "closed":
        moments = _closed_moments
        cases = [(k, sigma) for k in workloads.K_VALUES for sigma in workloads.SIGMAS]
    else:
        moments, cases = _quadrature_moments, QUADRATURE_CASES
    values = {}
    for k, sigma in cases:
        s = mp.mpf(sigma)
        values[workloads.epsilon_label("epsilon_one", k, sigma)] = _epsilon_one(k, s, moments)
        values[workloads.epsilon_label("epsilon_infinity", k, sigma)] = _epsilon_infinity(
            k, s, moments)
    if method == "closed":
        for rounds in workloads.CALIBRATION_ROUNDS:
            values[workloads.calibration_label(rounds)] = _calibrated_sigma(rounds)
    return {label: mp.nstr(v, dps, min_fixed=1, max_fixed=0) for label, v in values.items()}


def _worst_disagreement(values: dict[str, str], reference: dict[str, str], tol: float) -> float:
    worst = mp.mpf(0)
    for label, text in values.items():
        a, b = mp.mpf(text), mp.mpf(reference[label])
        rel = abs(a - b) / abs(b)
        if rel > tol:
            raise ArithmeticError(f"{label} did not settle: {a} vs {b}")
        worst = max(worst, rel)
    return float(worst)


def budget_grid_references() -> dict:
    jobs = [("closed", d) for d in CLOSED_FORM_DIGITS] + [("quadrature", QUADRATURE_DIGITS)]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(2) as pool:
        low, high, quad = pool.map(_budget_values, jobs)
    mp.mp.dps = max(CLOSED_FORM_DIGITS)
    return {
        "method": "closed forms with far-side tails, settled at two precisions; "
        "cross-checked against quadrature of nonnegative integrands",
        "closed_form_digits": list(CLOSED_FORM_DIGITS),
        "max_rel_disagreement_between_precisions": _worst_disagreement(low, high, SETTLE_REL_TOL),
        "quadrature_digits": QUADRATURE_DIGITS,
        "quadrature_checked": len(quad),
        "max_rel_disagreement_with_quadrature": _worst_disagreement(
            quad, high, CROSS_CHECK_REL_TOL),
        "values": {label: float(mp.mpf(text)) for label, text in high.items()},
    }


def run_references(name: str) -> dict:
    """Observed outputs of one pass per task seed and size, from qdp itself."""
    work = workloads.WORK_ROOT / f"references-{name}"
    by_size = {}
    for size in ("full", "tiny"):
        by_seed = {}
        for task_seed in range(workloads.REFERENCE_SEEDS):
            wl = workloads.WORKLOADS[name](task_seed, size == "tiny", work)
            wl.prepare()
            observed = {}
            for op in wl.ops:
                outcome = op.call()
                result = wl.inspect(op, outcome)
                if result.error is not None:
                    raise RuntimeError(f"{name} seed {task_seed} {op.label}: {result.error}")
                observed[op.label] = result.values
            by_seed[str(task_seed)] = observed
            print(f"{name} {size} seed {task_seed}: {observed}", flush=True)
        by_size[size] = by_seed
    shutil.rmtree(work)
    return by_size


def main(names: list[str]) -> int:
    workloads.WORK_ROOT.mkdir(parents=True, exist_ok=True)
    for name in names or list(workloads.WORKLOADS):
        start = time.perf_counter()
        data = budget_grid_references() if name == "budget_grid" else run_references(name)
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path} in {time.perf_counter() - start:.0f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
