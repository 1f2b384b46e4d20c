import math
import signal
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdp.accountant import (
    DEFAULT_ALPHA_GRID,
    DpPoint,
    MechanismSpec,
    calibrate_sigma,
    epsilon_infinity,
    epsilon_one,
    gaussian_rdp_baseline,
    rdp_to_dp,
    renyi_divergence,
)
from qdp.pmf import NoiseSpec, quantized_gaussian_pmf
from qdp.quantizer import QuantizerSpec

from oracles import (
    exact_gaussian_rdp,
    gaussian_rdp_ulp_error,
    kl_sum,
    mp_epsilon_infinity,
    mp_log_level_probs,
    mp_renyi_divergence,
    quad_partial_first_moment,
    quad_pmf,
)

ALPHAS = (1.0, 1.5, 2.0, 4.0, 8.0, math.inf)


def pmf_of(probs):
    """Log masses from linear masses; a zero mass becomes a log mass of -inf."""
    with np.errstate(divide="ignore"):
        return np.log(probs)


def two_level_pmf(p0):
    return pmf_of([p0, 1.0 - p0])


def random_pmf_pair(rng, k):
    return pmf_of(rng.dirichlet(np.ones(k))), pmf_of(rng.dirichlet(np.ones(k)))


class TestRenyiDivergence:
    def test_identical_distributions_give_zero(self):
        p = two_level_pmf(0.3)
        q = two_level_pmf(0.3)
        for alpha in ALPHAS:
            assert renyi_divergence(p, q, alpha) == 0.0

    def test_kl_closed_form(self):
        # KL((3/4,1/4) || (1/4,3/4)) = (1/2) log 3
        p = two_level_pmf(0.75)
        q = two_level_pmf(0.25)
        assert renyi_divergence(p, q, 1.0) == pytest.approx(0.5 * math.log(3.0), abs=1e-6)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p, q = random_pmf_pair(rng, int(rng.integers(2, 9)))
            values = [renyi_divergence(p, q, a) for a in ALPHAS]
            for lo, hi in zip(values, values[1:]):
                assert lo <= hi + 1e-12

    def test_mismatched_lattices_rejected(self):
        p = two_level_pmf(0.5)
        q = pmf_of([0.25, 0.5, 0.25])
        with pytest.raises(ValueError, match="different numbers of levels"):
            renyi_divergence(p, q, 2.0)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_sequences_match_arrays(self, alpha):
        p, q = pmf_of([0.2, 0.5, 0.3]), pmf_of([0.4, 0.4, 0.2])
        want = renyi_divergence(p, q, alpha)
        assert renyi_divergence(list(p), tuple(q), alpha) == want
        assert renyi_divergence([math.log(0.5)] * 2, [math.log(0.5)] * 2, alpha) == 0.0

    @pytest.mark.parametrize("alpha", [1.0, 2.0, math.inf])
    def test_rejects_arrays_that_are_not_1d(self, alpha):
        p = two_level_pmf(0.5)[None, :]
        with pytest.raises(ValueError, match=r"1-D.*\(1, 2\) and \(1, 2\)"):
            renyi_divergence(p, p, alpha)
        with pytest.raises(ValueError, match=r"1-D.*\(\) and \(2,\)"):
            renyi_divergence(math.log(0.5), two_level_pmf(0.5), alpha)

    def test_explicit_infinity_when_q_vanishes_on_support(self):
        p = pmf_of([0.5, 0.5, 0.0])
        q = pmf_of([0.5, 0.0, 0.5])
        for alpha in (1.0, 2.0, math.inf):
            assert renyi_divergence(p, q, alpha) == math.inf

    def test_zero_in_p_contributes_nothing(self):
        p = pmf_of([0.0, 0.5, 0.5])
        q = pmf_of([0.2, 0.4, 0.4])
        expected = 0.5 * math.log(0.5 / 0.4) * 2
        assert renyi_divergence(p, q, 1.0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("alpha", [1.0, 2.0, math.inf])
    @pytest.mark.parametrize(
        "p, q",
        [([math.nan, 0.0], [math.log(0.5)] * 2),
         ([math.log(0.5)] * 2, [math.log(0.5), math.nan]),
         ([-math.inf, 0.0], [math.nan, 0.0]),
         ([math.nan, -math.inf], [math.nan, 0.0])],
        ids=["nan-in-p", "nan-in-q", "nan-in-q-where-p-vanishes", "nan-in-both"],
    )
    def test_rejects_nan_log_masses(self, p, q, alpha):
        # NaN fails every comparison, so it would slip past the -inf checks and
        # come out as the divergence, or be dropped with p's zero levels
        with pytest.raises(ValueError, match="NaN"):
            renyi_divergence(p, q, alpha)

    @pytest.mark.parametrize("alpha", [1.0, 2.0, math.inf])
    @pytest.mark.parametrize(
        "p, q, message",
        [([], [], "no levels"), ([-math.inf, -math.inf], [0.0, 0.0], "p has no mass")],
        ids=["empty", "massless-p"],
    )
    def test_rejects_pmfs_without_mass(self, p, q, message, alpha):
        # numpy's min() of an empty array has no identity; the error must name the pmfs
        with pytest.raises(ValueError, match=message):
            renyi_divergence(p, q, alpha)

    def test_rejects_order_below_one(self):
        p = two_level_pmf(0.5)
        with pytest.raises(ValueError, match=">= 1"):
            renyi_divergence(p, p, 0.5)


def mech(sigma, k, c_q=1.0):
    return MechanismSpec(noise=NoiseSpec(sigma), quant=QuantizerSpec(k=k, c_q=c_q))


class TestEpsilonOne:
    def test_below_gaussian_budget_for_all_levels(self):
        for k in (2, 3, 4, 8, 16, 32, 64):
            assert 0.0 < epsilon_one(mech(1.0, k)) < 0.5

    def test_vanishes_when_noise_dominates(self):
        assert epsilon_one(mech(1e3, 4)) < 1e-4

    def test_matches_quadrature_oracle(self):
        value = epsilon_one(mech(1.0, 2))
        oracle = kl_sum(quad_pmf(0.5, 1.0, 2, 1.0), quad_pmf(-0.5, 1.0, 2, 1.0))
        assert value == pytest.approx(oracle, abs=1e-8)


class TestEpsilonInfinity:
    def test_strictly_increasing_in_k(self):
        values = [epsilon_infinity(mech(1.0, k)) for k in range(2, 17)]
        assert all(b - a > 1e-9 for a, b in zip(values, values[1:]))

    def test_matches_quadrature_oracle(self):
        value = epsilon_infinity(mech(1.0, 2))
        integral = quad_partial_first_moment(-1.0, 1.0, -0.5, 1.0)
        assert value == pytest.approx(math.log(2.0 / integral), abs=1e-8)

    def test_budget_chain(self):
        # eps1 <= worst-case log ratio of the extremal pmfs <= eps_inf
        # at k = 2, sigma = 1 the exact D_inf is 0.689 against the bound's 1.319;
        # at k = 8, sigma = 0.01 it is 7146.3 against 7386.3
        for sigma, k in [(0.5, 2), (1.0, 2), (1.0, 4), (1.0, 16), (2.0, 8), (0.01, 2), (0.01, 8)]:
            m = mech(sigma, k)
            p = quantized_gaussian_pmf(0.5, m)
            q = quantized_gaussian_pmf(-0.5, m)
            d_inf = renyi_divergence(p, q, math.inf)
            assert epsilon_one(m) <= d_inf + 1e-12
            assert d_inf <= epsilon_infinity(m) + 1e-12


class TestSmallSigmaBudgets:
    """Configurations whose level masses underflow in linear space.

    Reference values are the 100-digit mpmath evaluations of
    bench/make_references.py (closed forms, cross-checked by quadrature).
    """

    @pytest.mark.parametrize(
        "k,sigma,eps1,eps_inf",
        [
            (8, 0.01, 2639.7711992027707, 7386.319181155326),
            (16, 0.1, 42.49075987735474, 99.84120012574144),
        ],
    )
    def test_matches_high_precision_reference(self, k, sigma, eps1, eps_inf):
        assert epsilon_one(mech(sigma, k)) == pytest.approx(eps1, rel=1e-9)
        assert epsilon_infinity(mech(sigma, k)) == pytest.approx(eps_inf, rel=1e-9)

    def test_readme_values_hold(self):
        assert epsilon_one(mech(1.0, 8)) == pytest.approx(0.4426, abs=1e-4)
        assert epsilon_infinity(mech(1.0, 8)) == pytest.approx(3.8493, abs=1e-4)

    def test_readme_bound_rises_with_sigma_while_exact_falls(self):
        # the README's table at c_q = 1: (k, sigma) -> (the paper's bound, exact D_inf)
        table = {
            (2, 1.0): (1.3189, 0.68905),
            (2, 10.0): (3.2261, 0.07966),
            (2, 100.0): (5.5242, 0.00798),
            (16, 10.0): (5.9402, 0.08583),
            (16, 100.0): (8.2323, 0.00804),
        }
        measured = {}
        for (k, sigma), (bound, exact) in table.items():
            m = mech(sigma, k)
            p, q = quantized_gaussian_pmf(0.5, m), quantized_gaussian_pmf(-0.5, m)
            measured[k, sigma] = epsilon_infinity(m), renyi_divergence(p, q, math.inf)
            assert measured[k, sigma] == pytest.approx((bound, exact), rel=1e-3)
        k2 = [measured[2, sigma] for sigma in (1.0, 10.0, 100.0)]
        assert k2[0][0] < k2[1][0] < k2[2][0]
        assert k2[0][1] > k2[1][1] > k2[2][1]

    @pytest.mark.parametrize("sigma", [1e-9, 1e-4, 0.01, 30.0, 1e4, 1e7])
    @pytest.mark.parametrize("k", [2, 3, 8, 1024])
    def test_finite_and_ordered_everywhere(self, sigma, k):
        m = mech(sigma, k)
        eps1, eps_inf = epsilon_one(m), epsilon_infinity(m)
        assert 0.0 < eps1 < math.inf
        assert 0.0 < eps_inf < math.inf
        # the alpha = 1 budget never exceeds the Gaussian one, c_q^2 / (2 sigma^2)
        assert eps1 <= 0.5 / sigma**2 * (1 + 1e-9)

    @pytest.mark.parametrize(
        "sigma",
        [
            1e-3,
            1e-2,
            1.0,
            1e2,
            1e4,
            pytest.param(
                1e7,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="the KL sum differences O(1) log masses: ~3e-9 relative at sigma = 1e7",
                ),
            ),
        ],
    )
    @pytest.mark.parametrize("k", [2, 5, 17, 1024])
    def test_epsilon_one_matches_high_precision_oracle(self, sigma, k):
        log_p = mp_log_level_probs(0.5, sigma, k, 1.0)
        want = mp_renyi_divergence(log_p, log_p[::-1], 1.0)
        assert epsilon_one(mech(sigma, k)) == pytest.approx(want, rel=1e-10, abs=0)


class TestExtremeNoiseBudgets:
    """Budgets where c_q/sigma leaves the comfortable float range: accurate,
    or a ValueError naming the mechanism, never a silent inf or nan."""

    @pytest.mark.parametrize("sigma", [1e156, 1e158, 1e160, 1e200, 1e300])
    @pytest.mark.parametrize("k", [2, 16, 1024])
    def test_large_sigma_epsilon_infinity_matches_oracle(self, sigma, k):
        # the top cell's squared width underflows from sigma ~ 1e154
        want = mp_epsilon_infinity(k, 1.0, sigma)
        assert epsilon_infinity(mech(sigma, k)) == pytest.approx(want, rel=1e-10, abs=0)

    @pytest.mark.parametrize(
        "k,sigma,want",
        [(2, 1e160, 369.332553412252), (2, 1e200, 461.435957132014), (16, 1e300, 694.402516632521)],
    )
    def test_large_sigma_references(self, k, sigma, want):
        assert epsilon_infinity(mech(sigma, k)) == pytest.approx(want, rel=1e-12)
        assert mp_epsilon_infinity(k, 1.0, sigma) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("sigma", [1e-160, 1e-300])
    def test_two_levels_at_tiny_sigma(self, sigma):
        # the noise never moves the input across 0: a deterministic coin of 3:1
        assert epsilon_one(mech(sigma, 2)) == pytest.approx(0.5 * math.log(3.0), rel=1e-12)
        assert epsilon_infinity(mech(sigma, 2)) == pytest.approx(math.log(4.0), rel=1e-12)

    @pytest.mark.parametrize("budget", [epsilon_one, epsilon_infinity])
    @pytest.mark.parametrize("k,sigma", [(3, 1e-155), (16, 1e-160), (1024, 1e-300)])
    def test_budget_beyond_largest_float_raises(self, budget, k, sigma):
        with pytest.raises(ValueError, match=rf"k={k}.*exceeds the largest float"):
            budget(mech(sigma, k))

    @pytest.mark.parametrize(
        "k,c_q,sigma", [(2, 1e300, 1e-10), (16, 1e300, 1e-10), (2, 1e-300, 1e10)]
    )
    def test_lattice_out_of_float_range_raises(self, k, c_q, sigma):
        with pytest.raises(ValueError, match=r"out of float range in noise units"):
            mech(sigma, k, c_q)


class TestLogSpaceDivergence:
    """Divergences between mechanism pmfs whose masses underflow in linear space.

    References are 60-digit evaluations from ``oracles.mp_log_level_probs``.
    On linear masses the first two pairs give inf at every order, and the
    last gives D_inf = 112.94, too small, by dropping the underflowed levels.
    """

    @pytest.mark.parametrize(
        "k,x,x_prime,alpha,want",
        [
            (8, 0.5, -0.5, 1.0, 2639.77119920277),
            (8, 0.5, -0.5, 2.0, 6906.32094713716),
            (8, 0.5, -0.5, math.inf, 7146.32006414624),
            (16, 0.1, 0.0, 1.0, 7.35478178304262),
            (16, 0.1, 0.0, 2.0, 93.2213272717346),
            (16, 0.1, 0.0, math.inf, 816.911760439791),
            (11, 0.0, -0.05, math.inf, 412.621195773667),
        ],
    )
    def test_matches_high_precision_reference(self, k, x, x_prime, alpha, want):
        m = mech(0.01, k)
        p = quantized_gaussian_pmf(x, m)
        q = quantized_gaussian_pmf(x_prime, m)
        assert renyi_divergence(p, q, alpha) == pytest.approx(want, rel=1e-12)
        oracle = mp_renyi_divergence(
            mp_log_level_probs(x, 0.01, k, 1.0), mp_log_level_probs(x_prime, 0.01, k, 1.0), alpha
        )
        assert oracle == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("sigma,k", [(0.01, 8), (1.0, 8), (1.0, 2), (30.0, 1024)])
    def test_epsilon_one_is_the_order_one_divergence(self, sigma, k):
        m = mech(sigma, k)
        p = quantized_gaussian_pmf(0.5, m)
        mirror = quantized_gaussian_pmf(-0.5, m)
        assert renyi_divergence(p, mirror, 1.0) == epsilon_one(m)


class TestGaussianBaseline:
    def test_reference_setting(self):
        assert gaussian_rdp_baseline(1.0, 1.0, 1.0) == 0.5

    def test_formula_at_alpha_two(self):
        assert gaussian_rdp_baseline(1.0, 1.0, 2.0) == 1.0

    def test_zero_sensitivity(self):
        assert gaussian_rdp_baseline(0.0, 1.0, 4.0) == 0.0

    def test_zero_sensitivity_is_the_zero_curve(self):
        # the output ignores the input, so no order leaks, not even infinity
        curve = gaussian_rdp_baseline(0.0, 1e-300, (1.0, 2.0, math.inf))
        assert curve.tolist() == [0.0, 0.0, 0.0]

    def test_unbounded_at_infinite_order(self):
        assert gaussian_rdp_baseline(1.0, 1.0, math.inf) == math.inf

    def test_scalar_order_gives_numpy_scalar(self):
        value = gaussian_rdp_baseline(1.0, 2.0, 3.0)
        assert isinstance(value, np.float64)
        assert value == 3.0 / 8.0

    def test_curve_has_the_shape_of_the_orders(self):
        curve = gaussian_rdp_baseline(0.7, 0.3, DEFAULT_ALPHA_GRID)
        assert curve.shape == (len(DEFAULT_ALPHA_GRID),)
        for a, value in zip(DEFAULT_ALPHA_GRID, curve):
            assert value == gaussian_rdp_baseline(0.7, 0.3, a)
        grid = np.array([[1.0, 2.0], [4.0, math.inf]])
        assert gaussian_rdp_baseline(1.0, 1.0, grid).tolist() == [[0.5, 1.0], [2.0, math.inf]]

    @given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.integers(1, 2000))
    @settings(max_examples=200, deadline=None)
    def test_rounds_compose_as_a_product(self, sensitivity, sigma, rounds):
        # T * e is the correctly rounded exact T-fold sum, as fsum gives it
        curve = gaussian_rdp_baseline(sensitivity, sigma, DEFAULT_ALPHA_GRID)
        assert (rounds * curve).tolist() == [math.fsum([e] * rounds) for e in curve.tolist()]

    @pytest.mark.parametrize(
        "sensitivity,sigma", [(1.0, 1e-300), (1.0, 1e-160), (1e300, 1.0)]
    )
    def test_out_of_float_range_raises(self, sensitivity, sigma):
        with pytest.raises(ValueError, match="out of float range"):
            gaussian_rdp_baseline(sensitivity, sigma, DEFAULT_ALPHA_GRID)

    @pytest.mark.parametrize(
        "sensitivity,sigma",
        [
            (3e-162, 2e-162),  # both squares are subnormal
            (3e-170, 2e-170),  # both squares underflow to zero
            (1e-150, 1e-158),  # s**2 is normal, sigma**2 underflows
            (1e200, 1e100),  # s**2 overflows
            (1.0, 1e160),  # sigma**2 overflows; the curve is subnormal
            (1e154, 1e150),  # the squares are normal, 256 * s**2 overflows
        ],
    )
    def test_representable_beyond_the_squares_range(self, sensitivity, sigma):
        # at power-of-two orders the value is the exact one, correctly rounded
        orders = (1.0, 2.0, 256.0)
        curve = gaussian_rdp_baseline(sensitivity, sigma, orders)
        assert curve.tolist() == [exact_gaussian_rdp(sensitivity, sigma, a) for a in orders]

    @pytest.mark.parametrize("lo,hi", [(-3, 3), (-150, 150), (-320, 300)])
    def test_within_one_and_a_half_ulps_and_exact_at_powers_of_two(self, lo, hi):
        # s and sigma log-uniform over 10^[lo, hi]; the widest span puts s^2
        # and sigma^2 outside the normal range
        rng = np.random.default_rng(hi)
        orders = (1.0,) + DEFAULT_ALPHA_GRID
        checked = 0
        for sensitivity, sigma in 10.0 ** rng.uniform(lo, hi, (500, 2)):
            for alpha in orders:
                exact = exact_gaussian_rdp(sensitivity, sigma, alpha)
                if not sys.float_info.min <= exact <= sys.float_info.max:
                    continue
                value = float(gaussian_rdp_baseline(sensitivity, sigma, alpha))
                assert gaussian_rdp_ulp_error(value, sensitivity, sigma, alpha) <= 1.5
                if math.log2(alpha).is_integer():
                    assert value == exact
                checked += 1
        assert checked > 2000

    @pytest.mark.parametrize("name,sensitivity,sigma", [
        ("sensitivity", math.nan, 1.0),
        ("sensitivity", math.inf, 1.0),
        ("sensitivity", -1.0, 1.0),
        ("sigma", 1.0, math.nan),
        ("sigma", 1.0, math.inf),
        ("sigma", 1.0, 0.0),
    ])
    def test_invalid_inputs_named(self, name, sensitivity, sigma):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            gaussian_rdp_baseline(sensitivity, sigma, 2.0)

    @pytest.mark.parametrize("alphas", [0.5, math.nan, (2.0, 0.9)])
    def test_orders_below_one_rejected(self, alphas):
        with pytest.raises(ValueError, match="orders must be >= 1"):
            gaussian_rdp_baseline(1.0, 1.0, alphas)


class TestRdpToDp:
    def test_infinite_order_is_pure_dp(self):
        assert rdp_to_dp(math.inf, 3.0, 1e-5) == 3.0

    def test_large_order_limit(self):
        assert rdp_to_dp(1e12, 0.7, 1e-9) == pytest.approx(0.7, abs=1e-9)

    def test_unit_slack(self):
        # log(1/delta)/(alpha-1) = 1 at alpha=2, delta=1/e
        assert rdp_to_dp(2.0, 1.0, math.exp(-1.0)) == pytest.approx(2.0, rel=1e-12)

    def test_returns_a_float(self):
        assert type(rdp_to_dp(DEFAULT_ALPHA_GRID, [1.0] * len(DEFAULT_ALPHA_GRID), 1e-5)) is float

    def test_best_order_wins(self):
        # slack log(1/delta)/(alpha - 1) is 2, 1 and 0.5 at orders 1.5, 2 and 3
        delta = math.exp(-1.0)
        assert rdp_to_dp([1.5, 2.0, 3.0], [0.1, 0.5, 1.4], delta) == pytest.approx(1.5)
        assert rdp_to_dp([1.5, 2.0, 3.0], [0.1, 0.2, 1.4], delta) == pytest.approx(1.2)
        assert rdp_to_dp([2.0, math.inf], [1.0, 1.5], delta) == 1.5

    def test_each_order_is_its_own_conversion(self):
        curve = gaussian_rdp_baseline(1.0, 3.0, DEFAULT_ALPHA_GRID)
        singles = [rdp_to_dp(a, e, 1e-5) for a, e in zip(DEFAULT_ALPHA_GRID, curve)]
        assert rdp_to_dp(DEFAULT_ALPHA_GRID, curve, 1e-5) == min(singles)

    def test_composition_is_curve_arithmetic(self):
        # ten rounds of one mechanism, then a second mechanism on the same orders
        orders = np.array([2.0, 8.0, 32.0])
        first, second = (gaussian_rdp_baseline(s, sigma, orders) for s, sigma in ((1, 4), (0.5, 1)))
        total = 10 * first + second
        assert total.tolist() == [10 * a / 32.0 + a / 8.0 for a in orders]
        assert rdp_to_dp(orders, total, 1e-5) == min(
            e + math.log(1.0 / 1e-5) / (a - 1.0) for a, e in zip(orders, total)
        )

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError, match="alpha = 1"):
            rdp_to_dp(1.0, 0.5, 1e-5)
        with pytest.raises(ValueError, match="alpha = 1"):
            rdp_to_dp((2.0, 1.0), (0.5, 0.5), 1e-5)

    @pytest.mark.parametrize("alphas", [0.5, math.nan])
    def test_orders_at_most_one_rejected(self, alphas):
        with pytest.raises(ValueError, match="orders > 1"):
            rdp_to_dp(alphas, 0.5, 1e-5)

    @pytest.mark.parametrize("epsilons", [(0.1, math.nan), (0.1, -0.1)])
    def test_bad_epsilons_rejected(self, epsilons):
        with pytest.raises(ValueError, match="epsilons must be nonnegative"):
            rdp_to_dp((2.0, 4.0), epsilons, 1e-5)

    @pytest.mark.parametrize(
        "alphas,epsilons", [((), ()), (2.0, (0.1, 0.2)), ((2.0, 4.0), (0.1,))]
    )
    def test_empty_or_mismatched_curve_rejected(self, alphas, epsilons):
        # no silent broadcast of one order over many epsilons
        with pytest.raises(ValueError, match="need one epsilon per order"):
            rdp_to_dp(alphas, epsilons, 1e-5)

    @pytest.mark.parametrize("delta", [0.0, 1.0, math.nan])
    def test_delta_outside_unit_interval_rejected(self, delta):
        with pytest.raises(ValueError, match="delta"):
            rdp_to_dp(2.0, 0.5, delta)


def converted_epsilon(sigma, rounds, delta, sensitivity=1.0):
    """Best converted budget over the default order grid, composed as rounds * curve."""
    curve = gaussian_rdp_baseline(sensitivity, sigma, DEFAULT_ALPHA_GRID)
    return rdp_to_dp(DEFAULT_ALPHA_GRID, rounds * curve, delta)


class TestCalibrateSigma:
    def test_inverts_single_order(self):
        # the converted budget at the returned sigma hits the target, and any
        # visibly smaller sigma misses it
        target = DpPoint(epsilon=2.0, delta=math.exp(-1.0))
        sigma = calibrate_sigma(target, rounds=1, sensitivity=1.0)
        assert converted_epsilon(sigma, 1, target.delta) == pytest.approx(2.0, rel=1e-12)
        assert converted_epsilon(sigma * (1 - 1e-9), 1, target.delta) > 2.0

    def test_more_rounds_need_more_noise(self):
        target = DpPoint(epsilon=5.0, delta=1e-5)
        s1 = calibrate_sigma(target, rounds=10, sensitivity=1.0)
        s2 = calibrate_sigma(target, rounds=20, sensitivity=1.0)
        assert s2 > s1

    def test_looser_target_needs_less_noise(self):
        s_tight = calibrate_sigma(DpPoint(2.0, 1e-5), rounds=50, sensitivity=1.0)
        s_loose = calibrate_sigma(DpPoint(8.0, 1e-5), rounds=50, sensitivity=1.0)
        assert s_loose < s_tight

    def test_returned_sigma_meets_target(self):
        sigma = calibrate_sigma(DpPoint(epsilon=5.0, delta=1e-5), rounds=150, sensitivity=1.0)
        assert converted_epsilon(sigma, 150, 1e-5) <= 5.0

    @given(
        st.floats(0.05, 50.0),
        st.floats(1e-12, 0.5),
        st.integers(1, 2000),
        st.floats(1e-3, 1e3),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_targets_met_and_tight(self, epsilon, delta, rounds, sensitivity):
        target = DpPoint(epsilon, delta)
        try:
            sigma = calibrate_sigma(target, rounds=rounds, sensitivity=sensitivity)
        except ValueError as exc:
            assert "unreachable" in str(exc)
            assert min(math.log(1 / delta) / (a - 1) for a in DEFAULT_ALPHA_GRID) >= epsilon
            return
        assert converted_epsilon(sigma, rounds, delta, sensitivity) <= epsilon
        assert converted_epsilon(sigma * (1 - 1e-9), rounds, delta, sensitivity) > epsilon

    def test_result_is_the_smallest_float_meeting_the_target(self):
        # seeded targets, half of them within a factor 1 + 1e-12 .. 2 of the
        # smallest conversion slack, where target.epsilon - slack in the
        # closed form loses digits: at a factor 1 + 1e-9 it is ~2e8 ulps off
        rng = np.random.default_rng(22)
        for i in range(400):
            delta = float(10 ** rng.uniform(-12, math.log10(0.5)))
            rounds, sensitivity = int(rng.integers(1, 2001)), float(10 ** rng.uniform(-3, 3))
            floor = min(math.log(1 / delta) / (a - 1) for a in DEFAULT_ALPHA_GRID)
            if i % 2:
                epsilon = floor * (1 + float(10 ** rng.uniform(-12, 0)))
            else:
                epsilon = float(10 ** rng.uniform(math.log10(floor) + 0.01, 1.7))
            sigma = calibrate_sigma(DpPoint(epsilon, delta), rounds, sensitivity)
            assert converted_epsilon(sigma, rounds, delta, sensitivity) <= epsilon
            below = math.nextafter(sigma, 0)
            assert converted_epsilon(below, rounds, delta, sensitivity) > epsilon

    def test_matches_closed_form_reference(self):
        # min over the grid of sqrt(rounds * alpha / (2 (eps - log(1/delta)/(alpha - 1)))),
        # evaluated in 100-digit arithmetic for the target (5, 1e-5); these are
        # the benchmark's calibration references, pinned to the bit
        target = DpPoint(5.0, 1e-5)
        assert calibrate_sigma(target, 1, 1.0) == 1.0918539577597648
        assert calibrate_sigma(target, 10, 1.0) == 3.4527453787901337
        assert calibrate_sigma(target, 100, 1.0) == 10.918539577597649
        assert calibrate_sigma(target, 1000, 1.0) == 34.52745378790134

    def test_unreachable_target_diagnosed(self):
        # conversion slack alone (log 2 / 255 = 0.0027 at alpha = 256) exceeds the target
        with pytest.raises(ValueError, match="unreachable"):
            calibrate_sigma(DpPoint(0.001, 0.5), rounds=1, sensitivity=1.0)

    @pytest.mark.parametrize("rounds", [10**15, 10**18])
    def test_astronomical_rounds_need_no_memory(self, rounds):
        sigma = calibrate_sigma(DpPoint(5.0, 1e-5), rounds=rounds, sensitivity=1.0)
        assert converted_epsilon(sigma, rounds, 1e-5) <= 5.0
        assert converted_epsilon(sigma * (1 - 1e-9), rounds, 1e-5) > 5.0

    @pytest.mark.parametrize("rounds", [0, -3, 2.5, 3.0, "10", True, False])
    def test_rounds_must_be_a_positive_integer(self, rounds):
        # True is a bool, not the count 1, as in FlRunConfig
        with pytest.raises(ValueError, match="rounds must be an integer >= 1"):
            calibrate_sigma(DpPoint(5.0, 1e-5), rounds=rounds, sensitivity=1.0)

    @pytest.mark.parametrize("rounds", [10**309, 2**1024], ids=["10**309", "2**1024"])
    def test_rounds_beyond_float_range_named(self, rounds):
        with pytest.raises(ValueError, match="rounds must not exceed the largest float"):
            calibrate_sigma(DpPoint(5.0, 1e-5), rounds=rounds, sensitivity=1.0)

    def test_numpy_integer_rounds_accepted(self):
        target = DpPoint(5.0, 1e-5)
        assert calibrate_sigma(target, np.int64(10), 1.0) == calibrate_sigma(target, 10, 1.0)

    def test_infinite_target_rejected(self):
        with pytest.raises(ValueError, match="target epsilon must be finite"):
            calibrate_sigma(DpPoint(math.inf, 1e-5), rounds=1, sensitivity=1.0)

    @pytest.mark.parametrize("sensitivity", [0.0, -1.0, math.nan, math.inf])
    def test_bad_sensitivity_named(self, sensitivity):
        with pytest.raises(ValueError, match="sensitivity must be finite and positive"):
            calibrate_sigma(DpPoint(5.0, 1e-5), rounds=1, sensitivity=sensitivity)

    @pytest.mark.parametrize(
        "target,rounds,sensitivity",
        [((5.0, 1e-5), 10**18, 1e300), ((50.0, 0.4), 1, 5e-324)],
    )
    def test_noise_beyond_float_range_raises(self, target, rounds, sensitivity):
        # the noise scale itself leaves the float range
        with pytest.raises(ValueError, match="out of float range"):
            calibrate_sigma(DpPoint(*target), rounds=rounds, sensitivity=sensitivity)

    @pytest.mark.parametrize(
        "sensitivity,sigma", [(5e-324, 2e-323), (1e-323, 3.5e-323), (3e-322, 1.042e-321)]
    )
    def test_subnormal_sensitivity_gets_the_smallest_subnormal_noise(self, sensitivity, sigma):
        # further from 3.4527 * s than at a normal s, because the subnormal
        # grid has no float there: the predecessor of sigma misses the target
        target = DpPoint(5.0, 1e-5)
        assert calibrate_sigma(target, 10, sensitivity) == sigma
        assert converted_epsilon(sigma, 10, 1e-5, sensitivity) <= 5.0
        assert converted_epsilon(math.nextafter(sigma, 0), 10, 1e-5, sensitivity) > 5.0

    @pytest.mark.parametrize(
        "rounds,sensitivity",
        [(1, 1e300), (10, 1e300), (10, 3e-162), (10, 1e-170)],
    )
    def test_noise_scales_with_sensitivity_beyond_the_squares_range(self, rounds, sensitivity):
        # s**2 leaves the normal range; an inflated budget once kept the ulp
        # nudge from ending, so a hang fails here instead of stalling the suite
        def timed_out(signum, frame):
            raise TimeoutError("calibrate_sigma did not return within 5 s")

        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(5)
        try:
            sigma = calibrate_sigma(DpPoint(5.0, 1e-5), rounds, sensitivity)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        unit = calibrate_sigma(DpPoint(5.0, 1e-5), rounds, 1.0)
        assert sigma == pytest.approx(unit * sensitivity, rel=1e-15)


class TestDivergenceBounds:
    """Structural bounds the budgets must satisfy on an input grid."""

    @pytest.mark.parametrize("sigma,k", [(1.0, 6), (0.5, 3)])
    def test_gaussian_post_processing_bound(self, sigma, k):
        m = mech(sigma, k)
        grid = np.linspace(-0.5, 0.5, 11)
        pmfs = [quantized_gaussian_pmf(x, m) for x in grid]
        for alpha in (1.0, 2.0, 8.0):
            for i, x in enumerate(grid):
                for j, x_prime in enumerate(grid):
                    bound = alpha * (x - x_prime) ** 2 / (2.0 * sigma**2)
                    assert renyi_divergence(pmfs[i], pmfs[j], alpha) <= bound + 1e-9

    def test_extremal_inputs_maximize_divergence(self):
        m = mech(1.0, 4)
        grid = np.linspace(-0.5, 0.5, 11)
        pmfs = [quantized_gaussian_pmf(x, m) for x in grid]
        eps1 = epsilon_one(m)
        eps_inf = epsilon_infinity(m)
        for p in pmfs:
            for q in pmfs:
                assert renyi_divergence(p, q, 1.0) <= eps1 + 1e-12
                assert renyi_divergence(p, q, math.inf) <= eps_inf + 1e-12

    @given(
        st.integers(2, 64),
        st.floats(-2.0, 1.0).map(lambda e: 10.0**e),
        st.floats(-0.5, 0.5),
        st.floats(-0.5, 0.5),
        st.sampled_from([1.0, 1.5, 2.0, 8.0, 64.0, math.inf]),
    )
    @settings(max_examples=300, deadline=None)
    def test_extremal_pair_is_the_worst_case(self, k, sigma, x, x_prime, alpha):
        # the budgets assume no input pair in [-c_q/2, c_q/2] is further
        # apart, at any order, than +-c_q/2
        m = mech(sigma, k)
        pmf = lambda v: quantized_gaussian_pmf(v, m)
        d = renyi_divergence(pmf(x), pmf(x_prime), alpha)
        worst = renyi_divergence(pmf(0.5), pmf(-0.5), alpha)
        assert math.isfinite(d)
        assert d <= worst * (1 + 1e-9) + 1e-12

    @given(
        st.integers(1, 64).flatmap(
            lambda step: st.tuples(
                st.just(step + 1), st.integers(2, 128 // step).map(lambda r: r * step + 1)
            )
        ),
        st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
    )
    @settings(max_examples=200, deadline=None)
    def test_fewer_levels_on_a_nested_lattice_cost_no_more(self, levels, sigma):
        # where (k - 1) divides (k' - 1), the k-level lattice is a sublattice
        # of the k'-level one, and stochastic rounding onto it after the
        # finer rounding is the coarser rounding itself: the k-level release
        # is post-processing of the k'-level one, so it spends no more
        def budgets(k):  # epsilon_one and the exact D_inf
            m = mech(sigma, k)
            p = quantized_gaussian_pmf(0.5, m)
            return epsilon_one(m), renyi_divergence(p, p[::-1], math.inf)

        k, k_fine = levels
        for coarse, fine in zip(budgets(k), budgets(k_fine)):
            assert coarse <= fine * (1 + 1e-12)

    @given(st.floats(-8.0, 3.0).map(lambda e: 10.0**e))
    @settings(max_examples=200, deadline=None)
    def test_two_level_exact_d_inf_is_at_most_log_3(self, sigma):
        # as sigma -> 0 the two-level mechanism becomes randomized response
        # with masses 3/4 and 1/4 at the inputs +-c_q/2; noise only mixes
        # them. The log masses carry a few ulps: the largest excess measured
        # over 80000 sigmas in [1e-8, 1e4] is 5 ulps, near sigma = 1e-4, and
        # 3 ulps in [1e-2, 1e2]
        p = quantized_gaussian_pmf(0.5, mech(sigma, 2))
        log_3 = math.log(3)
        assert renyi_divergence(p, p[::-1], math.inf) <= log_3 + 8 * math.ulp(log_3)

    def test_order_monotonicity_on_mechanism_pmfs(self):
        rng = np.random.default_rng(11)
        m = mech(0.6, 5)
        for _ in range(30):
            x, x_prime = rng.uniform(-0.5, 0.5, size=2)
            p = quantized_gaussian_pmf(x, m)
            q = quantized_gaussian_pmf(x_prime, m)
            values = [renyi_divergence(p, q, a) for a in ALPHAS]
            for lo, hi in zip(values, values[1:]):
                assert lo <= hi + 1e-12
