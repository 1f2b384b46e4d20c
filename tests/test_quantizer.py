import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdp.quantizer import QuantizerSpec, clip_vector, quantize

from oracles import stochastic_round


def philox(seed):
    return np.random.Generator(np.random.Philox(seed))


def uniforms(seed, shape):
    return philox(seed).random(shape)


class TestQuantizerSpec:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            QuantizerSpec(k=1, c_q=1.0)
        with pytest.raises(ValueError):
            QuantizerSpec(k=4, c_q=0.0)
        with pytest.raises(ValueError):
            QuantizerSpec(k=4, c_q=-1.0)

    @pytest.mark.parametrize("k", [2.5, 3.0])
    def test_levels_must_be_an_integer(self, k):
        # k = 2.5 would put the top level at 1.667 c_q, above the clipping radius
        with pytest.raises(ValueError, match="integer k"):
            QuantizerSpec(k=k, c_q=1.0)

    def test_numpy_integer_levels_accepted(self):
        assert QuantizerSpec(k=np.int64(5), c_q=1.0).levels().tolist() == [-1, -0.5, 0, 0.5, 1]

    @pytest.mark.parametrize("k,c_q", [(2, 1e308), (1024, 1e306), (2, math.inf), (10**400, 1.0)])
    def test_lattice_out_of_float_range_rejected(self, k, c_q):
        # 2*c_q (the spacing) or (k - 1)*c_q (the top level's numerator) overflows
        with pytest.raises(ValueError, match="out of float range"):
            QuantizerSpec(k=k, c_q=c_q)

    @pytest.mark.parametrize("k,c_q", [(2, 8e307), (1024, 1.7e305)])
    def test_largest_lattices_are_finite(self, k, c_q):
        spec = QuantizerSpec(k=k, c_q=c_q)
        assert math.isfinite(spec.delta)
        assert np.isfinite(spec.levels()).all()
        assert spec.levels()[-1] == c_q

    def test_delta_and_level_formula(self):
        spec = QuantizerSpec(k=5, c_q=1.0)
        assert spec.delta == pytest.approx(0.5)
        np.testing.assert_allclose(spec.levels(), [-1.0, -0.5, 0.0, 0.5, 1.0])

    @pytest.mark.parametrize("k", [2, 3, 7, 64])
    @pytest.mark.parametrize("c_q", [0.5, 1.0, 3.0])
    def test_endpoints_exact(self, k, c_q):
        spec = QuantizerSpec(k=k, c_q=c_q)
        levels = spec.levels()
        assert levels[0] == -c_q
        assert levels[-1] == c_q
        assert np.all(np.diff(levels) > 0)


class TestClipVector:
    def test_norm_exactly_at_radius_is_identity(self):
        np.testing.assert_array_equal(clip_vector([3.0, 4.0], 5.0), [3.0, 4.0])

    def test_scales_down_by_half(self):
        np.testing.assert_allclose(clip_vector([6.0, 8.0], 5.0), [3.0, 4.0])

    def test_zero_vector_fixed_point(self):
        np.testing.assert_array_equal(clip_vector([0.0, 0.0], 1.0), [0.0, 0.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            clip_vector([1.0, np.nan], 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            clip_vector([np.inf, 0.0], 1.0)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            clip_vector([1.0], 0.0)

    def test_rejects_infinite_radius(self):
        # inf / inf would make every entry NaN
        with pytest.raises(ValueError, match="radius must be finite"):
            clip_vector([1.0, 2.0], math.inf)

    def test_clips_row_by_row(self):
        # rows inside, on and outside the ball; each row as if clipped alone
        rows = np.array([[0.3, -0.1, 0.2], [3.0, 0.0, 4.0], [6.0, -8.0, 1e-3], [0.0, 0.0, 0.0]])
        rows = np.vstack([rows, philox(17).normal(scale=4.0, size=(20, 3))])
        out = clip_vector(rows, 5.0)
        for row, clipped in zip(rows, out):
            norm = np.linalg.norm(row)
            expected = row if norm <= 5.0 else row * (5.0 / norm)
            np.testing.assert_array_equal(clipped, expected)

    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8),
        st.floats(1e-3, 1e3),
    )
    @settings(max_examples=300)
    def test_norm_bound_and_direction(self, values, radius):
        # over the whole finite float range; math.hypot neither overflows nor
        # underflows before its result does
        w = np.array(values)
        clipped = clip_vector(w, radius)
        assert math.hypot(*clipped) <= radius * (1 + 1e-12)
        if math.hypot(*w) <= radius:
            np.testing.assert_array_equal(clipped, w)
        else:
            # same direction: the unit vectors agree, up to entries that are
            # subnormal in the output (below 1e-305 of the row at radius >= 1e-3)
            assert math.hypot(*clipped) == pytest.approx(radius, rel=1e-12)
            unit = w / np.max(np.abs(w))
            np.testing.assert_allclose(
                clipped / radius, unit / math.hypot(*unit), rtol=1e-12, atol=1e-300
            )

    @pytest.mark.parametrize(
        "w,radius,expected",
        [
            # ||w||^2 overflows
            ([1e200, 1e200], 1.0, [0.5**0.5, 0.5**0.5]),
            ([1.5e308, -1.5e308, 1e-300], 2.0, [2**0.5, -(2**0.5), 0.0]),  # so does ||w||
            # ||w||^2 underflows to 0, with ||w|| above and below the radius
            ([1e-200, 1e-200], 1e-250, [0.5**0.5 * 1e-250, 0.5**0.5 * 1e-250]),
            ([1e-200, 1e-200], 1.0, [1e-200, 1e-200]),
        ],
    )
    def test_norm_out_of_float_range(self, w, radius, expected):
        np.testing.assert_allclose(clip_vector(w, radius), expected, rtol=1e-15)
        # as a row among ordinary rows, which keep their own clip
        rows = np.array([w, [3.0 * radius, 4.0 * radius] + [0.0] * (len(w) - 2)])
        want = [expected, rows[1] / 5.0]
        np.testing.assert_allclose(clip_vector(rows, radius), want, rtol=1e-15)


class TestQuantize:
    def test_midpoint_two_level_symmetry(self):
        spec = QuantizerSpec(k=2, c_q=1.0)
        out = quantize(np.zeros(200_000), spec, uniforms(0, 200_000))
        assert set(np.unique(out)) == {-1.0, 1.0}
        up_rate = np.mean(out == 1.0)
        assert abs(up_rate - 0.5) < 4 * np.sqrt(0.25 / 200_000)

    def test_interpolation_probabilities(self):
        # 0.25 in a 3-level unit lattice sits 1/4 of the way from 0 to 1
        spec = QuantizerSpec(k=3, c_q=1.0)
        n = 100_000
        out = quantize(np.full(n, 0.25), spec, uniforms(1, n))
        assert set(np.unique(out)) == {0.0, 1.0}
        p_hat = np.mean(out == 1.0)
        assert abs(p_hat - 0.25) < 4 * np.sqrt(0.25 * 0.75 / n)

    def test_lattice_point_is_deterministic(self):
        spec = QuantizerSpec(k=5, c_q=1.0)
        out = quantize(np.full(1000, 1.0), spec, uniforms(2, 1000))
        assert np.all(out == 1.0)
        out = quantize(np.full(1000, -0.5), spec, uniforms(3, 1000))
        assert np.all(out == -0.5)

    def test_output_in_codomain(self):
        spec = QuantizerSpec(k=7, c_q=2.0)
        rng = philox(4)
        w = rng.uniform(-5, 5, size=1000)
        out = quantize(w, spec, uniforms(5, w.shape))
        levels = spec.levels()
        assert np.all(np.isin(out, levels))

    def test_two_point_support_brackets_input(self):
        spec = QuantizerSpec(k=9, c_q=1.0)
        w = np.full(5000, 0.37)
        out = quantize(w, spec, uniforms(6, w.shape))
        support = np.unique(out)
        assert len(support) == 2
        lo, hi = support
        assert hi - lo == pytest.approx(spec.delta)
        assert lo <= 0.37 <= hi

    def test_unbiased_at_fixed_input(self):
        spec = QuantizerSpec(k=4, c_q=1.0)
        n = 100_000
        w = np.full(n, 0.11)
        out = quantize(w, spec, uniforms(7, w.shape))
        lo = spec.level(np.clip(np.floor((0.11 + 1.0) / spec.delta), 0, spec.k - 2))
        hi = lo + spec.delta
        se = np.sqrt((hi - 0.11) * (0.11 - lo) / n)
        assert abs(out.mean() - 0.11) < 4 * se

    def test_clips_before_rounding(self):
        # the out-of-range coordinate is clamped to c_q before quantization
        spec = QuantizerSpec(k=2, c_q=1.0)
        out = quantize(np.array([2.0, 0.0]), spec, uniforms(8, 2))
        assert out[0] == 1.0

    def test_identical_seed_identical_output(self):
        spec = QuantizerSpec(k=16, c_q=1.0)
        w = philox(9).uniform(-1, 1, size=256)
        a = quantize(w, spec, uniforms(10, w.shape))
        b = quantize(w, spec, uniforms(10, w.shape))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("k", [2, 3, 16, 1024])
    def test_quantize_is_round_after_clip(self, k):
        # each coordinate is clamped on its own, as the accountant's pmf
        # assumes, then rounded exactly as the standalone reference rounds it
        spec = QuantizerSpec(k=k, c_q=1.0)
        in_range = np.concatenate([philox(11).uniform(-1, 1, size=64), spec.levels()])
        out_of_range = philox(15).uniform(-3, 3, size=64)
        for w in (in_range, out_of_range):
            a = quantize(w, spec, uniforms(12, w.shape))
            b = stochastic_round(np.clip(w, -spec.c_q, spec.c_q), spec, philox(12))
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_quantize_rejects_nonfinite(self, bad):
        spec = QuantizerSpec(k=4, c_q=1.0)
        with pytest.raises(ValueError, match="non-finite"):
            quantize(np.array([0.5, bad]), spec, uniforms(14, 2))

    @pytest.mark.parametrize("shape", [(), (3,), (2, 1)])
    def test_quantize_needs_one_uniform_per_element(self, shape):
        # a broadcast uniform would round several coordinates on one draw
        spec = QuantizerSpec(k=4, c_q=1.0)
        with pytest.raises(ValueError, match="one uniform per element"):
            quantize(np.zeros((2, 3)), spec, uniforms(16, shape))
