import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import qdp.pmf
from qdp.pmf import (
    MechanismSpec,
    NoiseSpec,
    log_cell_moments,
    quantized_gaussian_pmf,
)
from qdp.quantizer import QuantizerSpec

from oracles import (
    monte_carlo_quantized_gaussian,
    mp_log_cell_moments,
    mp_log_level_probs,
    quad_partial_first_moment,
    quad_pmf,
)


def mech(sigma, k, c_q=1.0):
    return MechanismSpec(NoiseSpec(sigma), QuantizerSpec(k=k, c_q=c_q))


def partial_first_moment(a, b, mu, sigma):
    """Integral of the N(mu, sigma^2) density times (t - a) over [a, b]: sigma
    times the first ``log_cell_moments`` output of the standardized cell, exponentiated."""
    log_fwd, _ = log_cell_moments((a - mu) / sigma, (b - mu) / sigma)
    return sigma * np.exp(log_fwd)


class TestPartialFirstMoment:
    def test_empty_interval(self):
        assert partial_first_moment(2.0, 2.0, 0.0, 1.0) == 0.0

    def test_full_mass_gives_mean_offset(self):
        # over +-10 sigma the integral is (mu - a) * 1 = 10 sigma
        mu, sigma = 0.7, 1.3
        value = partial_first_moment(mu - 10 * sigma, mu + 10 * sigma, mu, sigma)
        assert value == pytest.approx(10 * sigma, rel=1e-12)

    def test_frozen_unit_case(self):
        # int_0^1 t phi(t) dt, frozen from 30-digit quadrature
        assert partial_first_moment(0.0, 1.0, 0.0, 1.0) == pytest.approx(
            0.15697155588228932814, abs=1e-14
        )

    @pytest.mark.parametrize(
        "a,b,mu,sigma",
        [(-0.3, 1.7, 0.5, 0.8), (2.0, 5.0, -1.0, 2.0), (-4.0, -3.0, 0.0, 0.5)],
    )
    def test_matches_quadrature(self, a, b, mu, sigma):
        assert partial_first_moment(a, b, mu, sigma) == pytest.approx(
            quad_partial_first_moment(a, b, mu, sigma), abs=1e-10
        )

    @given(
        st.floats(-5, 5),
        st.floats(0, 10),
        st.floats(-5, 5),
        st.floats(0.05, 5),
    )
    @settings(max_examples=100)
    def test_nonnegative(self, a, width, mu, sigma):
        assert partial_first_moment(a, a + width, mu, sigma) >= 0.0


def _exp10(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


def _cells(lo, width):
    return st.tuples(lo, width).map(lambda c: (c[0], c[0] + c[1]))


# one strategy per branch of the kernel: a narrow cell anywhere it stays
# narrow, a wide cell above the mean (beyond 1e4 too), a wide cell holding the
# mean, and the mirror image of a wide cell above the mean
NARROW = _cells(st.floats(-50.0, 50.0), _exp10(-12.0, -2.1))
TAIL = _cells(_exp10(-4.0, 4.5), _exp10(-1.9, 2.0))
AT_MEAN = st.tuples(st.floats(0.0, 1.0), _exp10(-1.9, 1.5)).map(
    lambda c: (-c[0] * c[1], (1.0 - c[0]) * c[1])
)
BELOW = TAIL.map(lambda c: (-c[1], -c[0]))
CELL_KINDS = (NARROW, TAIL, AT_MEAN, BELOW)
MIXED_CELLS = st.lists(st.one_of(*CELL_KINDS), min_size=1, max_size=24)
ONE_KIND_CELLS = st.sampled_from(CELL_KINDS).flatmap(
    lambda kind: st.lists(kind, min_size=1, max_size=24)
)


def _per_cell(lo, hi):
    """log_cell_moments one 0-d cell at a time."""
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    pairs = [log_cell_moments(l, h) for l, h in zip(lo.ravel(), hi.ravel())]
    return tuple(np.reshape([p[i] for p in pairs], lo.shape) for i in range(2))


class TestLogCellMoments:
    @given(st.one_of(MIXED_CELLS, ONE_KIND_CELLS))
    @settings(max_examples=300, deadline=None)
    def test_elementwise_bit_for_bit(self, cells):
        # which branches run, and whether they run masked, depends on the
        # other cells of a call; no cell's moments may
        lo, hi = np.array(cells).T
        fwd, rev = log_cell_moments(lo, hi)
        want_fwd, want_rev = _per_cell(lo, hi)
        np.testing.assert_array_equal(fwd, want_fwd)
        np.testing.assert_array_equal(rev, want_rev)
        if len(cells) % 2 == 0:
            shape = (2, len(cells) // 2)
            fwd2, rev2 = log_cell_moments(lo.reshape(shape), hi.reshape(shape))
            np.testing.assert_array_equal(fwd2, want_fwd.reshape(shape))
            np.testing.assert_array_equal(rev2, want_rev.reshape(shape))

    @given(
        st.floats(-30.0, 30.0),
        st.lists(_exp10(-12.0, 1.5), min_size=1, max_size=24),
    )
    @settings(max_examples=200, deadline=None)
    def test_scalar_lo_broadcasts_bit_for_bit(self, lo, widths):
        hi = lo + np.array(widths)
        fwd, rev = log_cell_moments(lo, hi)
        want_fwd, want_rev = _per_cell(lo, hi)
        np.testing.assert_array_equal(fwd, want_fwd)
        np.testing.assert_array_equal(rev, want_rev)

    @given(
        st.floats(-6.0, 4.0).map(lambda e: 10.0**e),
        st.sampled_from([-1.0, 1.0]),
        st.floats(-12.0, 2.0).map(lambda e: 10.0**e),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_high_precision_closed_form(self, magnitude, sign, width):
        # covers far tails, cells holding the mean, and cells too narrow for
        # the closed forms; the log of each moment is good to ~1e-11 of the moment
        lo = sign * magnitude
        hi = lo + width
        if hi == lo:
            return
        fwd, rev = log_cell_moments(lo, hi)
        want_fwd, want_rev = mp_log_cell_moments(lo, hi)
        assert fwd == pytest.approx(want_fwd, rel=1e-13, abs=1e-11)
        assert rev == pytest.approx(want_rev, rel=1e-13, abs=1e-11)

    def test_mirror_swaps_moments(self):
        lo = np.array([0.3, 2.0, 40.0])
        hi = lo + np.array([0.5, 1e-4, 3.0])
        fwd, rev = log_cell_moments(lo, hi)
        mirror_fwd, mirror_rev = log_cell_moments(-hi, -lo)
        np.testing.assert_array_equal(fwd, mirror_rev)
        np.testing.assert_array_equal(rev, mirror_fwd)

    def test_empty_cell_has_no_mass(self):
        fwd, rev = log_cell_moments(1.5, 1.5)
        assert fwd == rev == -np.inf

    @pytest.mark.parametrize(
        "lo,hi,message",
        [
            (1.0, 0.5, "[1.0, 0.5] at index ()"),  # narrow if it were ordered
            (10.0, -9.0, "[10.0, -9.0] at index ()"),  # wide, across the mean
            ([0.0, -0.5, 2.0], [1.0, -1.0, 3.0], "[-0.5, -1.0] at index (1,)"),
            ([[0, 1], [2, 3]], [[1, 2], [np.nan, 4]], "[2.0, nan] at index (1, 0)"),
            (np.nan, 1.0, "[nan, 1.0] at index ()"),
        ],
        ids=["0-d", "0-d across the mean", "row", "2-d nan edge", "0-d nan edge"],
    )
    def test_reversed_or_nan_cell_raises(self, lo, hi, message):
        with pytest.raises(ValueError, match=re.escape(f"cell {message} is reversed or NaN")):
            log_cell_moments(lo, hi)


def pmf_from_cell_moments(monkeypatch, log_probs):
    """quantized_gaussian_pmf on k = 3 levels with the cell moments patched so
    that, before the normalization check, it assembles ``log_probs``."""
    m = mech(0.01, 3)
    # level r sums cell r's reverse and cell r - 1's forward moment, over
    # delta/sigma; the clipped tails, ~exp(-5000), drop out
    shift = np.log(m.quant.delta / m.noise.sigma)
    t = np.asarray(log_probs, dtype=float) + shift
    fake = lambda lo, hi: (np.array([-np.inf, t[2]]), t[:2])
    monkeypatch.setattr(qdp.pmf, "log_cell_moments", fake)
    with np.errstate(invalid="ignore"):  # a NaN moment warns in logaddexp
        return quantized_gaussian_pmf(0.0, m)


class TestNormalizationCheck:
    def test_assembles_patched_cell_moments(self, monkeypatch):
        want = np.log([0.25, 0.5, 0.25])
        np.testing.assert_allclose(pmf_from_cell_moments(monkeypatch, want), want, rtol=1e-15)

    @pytest.mark.parametrize(
        "log_probs",
        [
            [np.nan, 0.0, -np.inf],
            [np.inf, -np.inf, -np.inf],
            [np.log(2.0), -np.inf, -np.inf],
            np.log([0.5, 0.5, 0.5]),
        ],
    )
    def test_rejects_nan_infinite_positive_and_unnormalized_log_masses(
        self, monkeypatch, log_probs
    ):
        with pytest.raises(ValueError, match="sums to"):
            pmf_from_cell_moments(monkeypatch, log_probs)


class TestQuantizedGaussianPmf:
    def test_two_level_symmetry(self):
        log_p = quantized_gaussian_pmf(0.0, mech(1.0, 2))
        np.testing.assert_allclose(np.exp(log_p), [0.5, 0.5], atol=1e-15)

    def test_rejects_out_of_range_input(self):
        with pytest.raises(ValueError, match=r"\[-0.5, 0.5\]"):
            quantized_gaussian_pmf(0.51, mech(1.0, 4))

    @pytest.mark.parametrize("x", [-0.5, -0.2, 0.0, 0.31, 0.5])
    @pytest.mark.parametrize("sigma", [0.3, 1.0, 3.0])
    @pytest.mark.parametrize("k", [2, 3, 6, 17])
    def test_normalized_and_positive(self, x, sigma, k):
        probs = np.exp(quantized_gaussian_pmf(x, mech(sigma, k)))
        assert abs(probs.sum() - 1.0) < 1e-9
        assert np.all(probs > 0)

    def test_mirror_symmetry(self):
        m = mech(0.8, 7, 2.0)
        left = np.exp(quantized_gaussian_pmf(-0.6, m))
        right = np.exp(quantized_gaussian_pmf(0.6, m))
        np.testing.assert_allclose(left, right[::-1], rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize(
        "x,sigma,k,c_q",
        [(0.0, 1.0, 2, 1.0), (0.25, 0.5, 4, 1.0), (0.5, 0.5, 8, 1.0), (-0.3, 2.0, 16, 1.0)],
    )
    def test_matches_quadrature_oracle(self, x, sigma, k, c_q):
        probs = np.exp(quantized_gaussian_pmf(x, mech(sigma, k, c_q)))
        np.testing.assert_allclose(probs, quad_pmf(x, sigma, k, c_q), atol=1e-10)

    def test_matches_monte_carlo(self):
        x, sigma, k, c_q = 0.5, 0.5, 4, 1.0
        n = 1_000_000
        probs = np.exp(quantized_gaussian_pmf(x, mech(sigma, k, c_q)))
        empirical = monte_carlo_quantized_gaussian(x, sigma, k, c_q, n, seed=2024)
        se = np.sqrt(probs * (1 - probs) / n)
        assert np.all(np.abs(empirical - probs) < 4 * se + 1e-9)

    def test_vanishing_noise_recovers_two_point_rule(self):
        # x = 0.25 on a 3-level unit lattice: 0 w.p. 0.75, +1 w.p. 0.25
        log_p = quantized_gaussian_pmf(0.25, mech(1e-6, 3))
        np.testing.assert_allclose(np.exp(log_p), [0.0, 0.75, 0.25], atol=1e-6)

    @pytest.mark.parametrize("sigma", [1e-9, 0.01, 1e6])
    @pytest.mark.parametrize("k", [2, 8, 1024])
    def test_log_masses_finite_where_masses_underflow(self, sigma, k):
        log_p = quantized_gaussian_pmf(0.5, mech(sigma, k))
        assert np.all(np.isfinite(log_p))
        assert logsumexp(log_p) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize(
        "x,sigma,k", [(0.5, 0.01, 8), (0.1, 0.01, 16), (-0.05, 0.01, 11), (0.3, 1.0, 5)]
    )
    def test_log_masses_match_high_precision_oracle(self, x, sigma, k):
        # log masses down to -7000, each good to ~1e-15 of its magnitude
        log_p = quantized_gaussian_pmf(x, mech(sigma, k))
        want = np.array([float(v) for v in mp_log_level_probs(x, sigma, k, 1.0)])
        np.testing.assert_allclose(log_p, want, rtol=1e-14, atol=1e-14)

    def test_noise_spec_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            NoiseSpec(0.0)
        with pytest.raises(ValueError):
            NoiseSpec(-1.0)
