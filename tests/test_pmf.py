import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from qdp.pmf import (
    LevelPmf,
    NoiseSpec,
    gaussian_cdf,
    log_cell_moments,
    log_level_probs,
    partial_first_moment,
    quantized_gaussian_pmf,
)
from qdp.quantizer import QuantizerSpec

from oracles import (
    monte_carlo_quantized_gaussian,
    mp_log_cell_moments,
    quad_cdf,
    quad_partial_first_moment,
    quad_pmf,
)


class TestGaussianCdf:
    def test_symmetry_at_zero(self):
        assert gaussian_cdf(0.0) == 0.5

    def test_limits(self):
        assert gaussian_cdf(40.0) == 1.0
        assert gaussian_cdf(-40.0) == pytest.approx(0.0, abs=1e-300)

    def test_value_at_97_5_percentile(self):
        # frozen from 30-digit quadrature of the normal density
        assert gaussian_cdf(1.959963985) == pytest.approx(0.9750000000268815623, abs=1e-12)

    def test_matches_quadrature_on_grid(self):
        for z in np.linspace(-6, 6, 25):
            assert gaussian_cdf(z) == pytest.approx(quad_cdf(z), abs=1e-12)

    def test_deep_lower_tail_keeps_relative_accuracy(self):
        # frozen from 30-digit arithmetic; a naive 1 - Phi(10) would cancel
        assert gaussian_cdf(-10.0) == pytest.approx(7.6198530241605261e-24, rel=1e-12)


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

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError, match="a <= b"):
            partial_first_moment(1.0, 0.0, 0.0, 1.0)

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


class TestLogCellMoments:
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


class TestLevelPmfValidation:
    def test_rejects_bad_shapes_and_values(self):
        spec = QuantizerSpec(k=3, c_q=1.0)
        with pytest.raises(ValueError, match="one probability per level"):
            LevelPmf(spec=spec, probs=np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="negative"):
            LevelPmf(spec=spec, probs=np.array([-0.1, 0.6, 0.5]))
        with pytest.raises(ValueError, match="sums to"):
            LevelPmf(spec=spec, probs=np.array([0.5, 0.5, 0.5]))


class TestQuantizedGaussianPmf:
    def test_two_level_symmetry(self):
        pmf = quantized_gaussian_pmf(0.0, NoiseSpec(1.0), QuantizerSpec(k=2, c_q=1.0))
        np.testing.assert_allclose(pmf.probs, [0.5, 0.5], atol=1e-15)

    def test_rejects_out_of_range_input(self):
        with pytest.raises(ValueError, match=r"\[-0.5, 0.5\]"):
            quantized_gaussian_pmf(0.51, NoiseSpec(1.0), QuantizerSpec(k=4, c_q=1.0))

    @pytest.mark.parametrize("x", [-0.5, -0.2, 0.0, 0.31, 0.5])
    @pytest.mark.parametrize("sigma", [0.3, 1.0, 3.0])
    @pytest.mark.parametrize("k", [2, 3, 6, 17])
    def test_normalized_and_positive(self, x, sigma, k):
        pmf = quantized_gaussian_pmf(x, NoiseSpec(sigma), QuantizerSpec(k=k, c_q=1.0))
        assert abs(pmf.probs.sum() - 1.0) < 1e-9
        assert np.all(pmf.probs > 0)

    def test_mirror_symmetry(self):
        spec = QuantizerSpec(k=7, c_q=2.0)
        noise = NoiseSpec(0.8)
        left = quantized_gaussian_pmf(-0.6, noise, spec)
        right = quantized_gaussian_pmf(0.6, noise, spec)
        np.testing.assert_allclose(left.probs, right.probs[::-1], rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize(
        "x,sigma,k,c_q",
        [(0.0, 1.0, 2, 1.0), (0.25, 0.5, 4, 1.0), (0.5, 0.5, 8, 1.0), (-0.3, 2.0, 16, 1.0)],
    )
    def test_matches_quadrature_oracle(self, x, sigma, k, c_q):
        pmf = quantized_gaussian_pmf(x, NoiseSpec(sigma), QuantizerSpec(k=k, c_q=c_q))
        np.testing.assert_allclose(pmf.probs, quad_pmf(x, sigma, k, c_q), atol=1e-10)

    def test_matches_monte_carlo(self):
        x, sigma, k, c_q = 0.5, 0.5, 4, 1.0
        n = 1_000_000
        pmf = quantized_gaussian_pmf(x, NoiseSpec(sigma), QuantizerSpec(k=k, c_q=c_q))
        empirical = monte_carlo_quantized_gaussian(x, sigma, k, c_q, n, seed=2024)
        se = np.sqrt(pmf.probs * (1 - pmf.probs) / n)
        assert np.all(np.abs(empirical - pmf.probs) < 4 * se + 1e-9)

    def test_vanishing_noise_recovers_two_point_rule(self):
        # x = 0.25 on a 3-level unit lattice: 0 w.p. 0.75, +1 w.p. 0.25
        pmf = quantized_gaussian_pmf(0.25, NoiseSpec(1e-6), QuantizerSpec(k=3, c_q=1.0))
        np.testing.assert_allclose(pmf.probs, [0.0, 0.75, 0.25], atol=1e-6)

    @pytest.mark.parametrize("sigma", [1e-9, 0.01, 1e6])
    @pytest.mark.parametrize("k", [2, 8, 1024])
    def test_log_masses_finite_where_masses_underflow(self, sigma, k):
        log_probs = log_level_probs(0.5, NoiseSpec(sigma), QuantizerSpec(k=k, c_q=1.0))
        assert np.all(np.isfinite(log_probs))
        assert logsumexp(log_probs) == pytest.approx(0.0, abs=1e-9)

    def test_noise_spec_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            NoiseSpec(0.0)
        with pytest.raises(ValueError):
            NoiseSpec(-1.0)
