import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from patchpair import SsimMode, SsimParams, evaluate_pair, psnr, rmse, ssim

unit_images = hnp.arrays(np.float64, (8, 8), elements=st.floats(0.0, 1.0, allow_nan=False))


class TestRmse:
    def test_identity(self, rng):
        x = rng.random((8, 8))
        assert rmse(x, x) == 0.0

    def test_uniform_offset(self):
        x = np.zeros((4, 4))
        assert rmse(x + 0.1, x) == pytest.approx(0.1, abs=1e-15)

    def test_swap_case(self):
        assert rmse(np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]])) == pytest.approx(1.0, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            rmse(np.zeros((2, 2)), np.zeros((2, 3)))

    @pytest.mark.parametrize("tiny", [1e-200, 2.2e-313])
    def test_tiny_difference_is_not_zero(self, tiny):
        # squares of differences below about 1e-162 underflow to 0
        x = np.zeros((8, 8))
        y = x.copy()
        y[3, 5] = tiny
        assert rmse(y, x) == pytest.approx(tiny / 8, rel=1e-9)
        assert psnr(y, x) == pytest.approx(20.0 * math.log10(8.0), abs=1e-9)

    def test_difference_below_least_subnormal_rounds_up(self):
        # the exact RMSE, 5e-324 / 8, rounds to 0 in float64: it must stay nonzero for unequal images
        x = np.zeros((8, 8))
        y = x.copy()
        y[0, 0] = math.ulp(0.0)
        assert rmse(y, x) == rmse(x, y) == math.ulp(0.0)

    def test_difference_past_the_float64_maximum(self):
        # y - x overflows to inf for 1e308 - (-1e308); pytest turns its warning into an error
        y, x = np.zeros((2, 2)), np.zeros((2, 2))
        y[0, 0], x[0, 0] = 1e308, -1e308
        assert rmse(y, x) == rmse(x, y) == 1e308
        assert psnr(y, x) == 0.0
        # the exact RMSE, 2e308, exceeds the float64 maximum
        assert rmse(np.full((2, 2), 1e308), np.full((2, 2), -1e308)) == math.inf

    @given(unit_images, unit_images, unit_images)
    @settings(max_examples=50, deadline=None)
    def test_metric_properties(self, a, b, c):
        assert rmse(a, b) == rmse(b, a)
        assert rmse(a, b) <= rmse(a, c) + rmse(c, b) + 1e-12
        assert (rmse(a, b) == 0.0) == bool(np.array_equal(a, b))


class TestPsnr:
    def test_twenty_db(self):
        y = np.ones((4, 4))
        x = y - 0.1
        assert psnr(y, x) == pytest.approx(20.0, abs=1e-9)

    def test_forty_db(self):
        y = np.ones((4, 4))
        x = y - 0.01
        assert psnr(y, x) == pytest.approx(40.0, abs=1e-9)

    def test_identical_images_signal_infinity(self, rng):
        x = rng.random((6, 6))
        assert psnr(x, x) == math.inf

    def test_extreme_ratio_is_finite(self):
        # peak / rmse overflows to inf for a difference of 5e-324, and underflows to 0 for a peak of 5e-324
        x = np.zeros((8, 8))
        y = x.copy()
        y[0, 0] = math.ulp(0.0)
        assert 6000.0 < psnr(y, x, peak=1.0) < math.inf
        assert psnr(x, x, peak=1.0) == math.inf
        assert -math.inf < psnr(np.full((4, 4), 10.0), np.zeros((4, 4)), peak=math.ulp(0.0)) < -6000.0

    def test_peak_override(self):
        y = np.full((4, 4), 0.5)
        x = y - 0.1
        assert psnr(y, x, peak=1.0) == pytest.approx(20.0, abs=1e-9)

    @pytest.mark.parametrize("level", [0.0, -0.5])
    def test_nonpositive_peak_rejected(self, level):
        with pytest.raises(ValueError, match="PSNR needs a positive peak"):
            psnr(np.full((4, 4), level), np.full((4, 4), 0.5))
        with pytest.raises(ValueError, match="PSNR needs a positive peak"):
            psnr(np.ones((4, 4)), np.full((4, 4), 0.5), peak=level)
        assert psnr(np.full((4, 4), level), np.full((4, 4), level)) == math.inf

    def test_noise_monotonicity(self, rng):
        ref = rng.random((32, 32))
        values = []
        for amp in (0.01, 0.02, 0.05, 0.1):
            noisy = ref + amp * np.random.default_rng(7).standard_normal(ref.shape)
            values.append(psnr(ref, noisy))
        assert all(a > b for a, b in zip(values, values[1:]))


class TestSsim:
    def test_self_is_exactly_one(self, rng):
        x = rng.random((8, 8))
        assert ssim(x, x) == 1.0

    def test_constant_vs_constant_closed_form(self):
        p = SsimParams()
        for a, b in ((0.2, 0.8), (0.1, 0.1), (0.0, 1.0)):
            expected = (2 * a * b + p.c1) / (a * a + b * b + p.c1)
            got = ssim(np.full((5, 5), a), np.full((5, 5), b), p)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_inverted_image_goes_negative(self, rng):
        x = rng.random((16, 16))
        assert ssim(x, -x + 1.0) < 0.0

    def test_windowed_mode(self, rng):
        x = rng.random((16, 16))
        y = np.clip(x + 0.05 * rng.standard_normal(x.shape), 0, 1)
        p = SsimParams(mode=SsimMode.WINDOWED, window=8)
        tiles = [
            ssim(x[r : r + 8, c : c + 8], y[r : r + 8, c : c + 8])
            for r in (0, 8)
            for c in (0, 8)
        ]
        assert ssim(x, y, p) == pytest.approx(float(np.mean(tiles)), abs=1e-15)
        assert ssim(x, x, p) == 1.0

    def test_window_larger_than_image(self):
        with pytest.raises(ValueError, match="window"):
            ssim(np.zeros((4, 4)), np.zeros((4, 4)), SsimParams(mode=SsimMode.WINDOWED, window=8))

    @given(unit_images, unit_images)
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_range(self, x, y):
        assert ssim(x, y) == ssim(y, x)
        assert -1.0 <= ssim(x, y) <= 1.0


class TestEvaluatePair:
    def test_identity_report(self, rng):
        y = rng.random((8, 8))
        report = evaluate_pair(y, y)
        assert report.rmse == 0.0
        assert report.ssim == 1.0
        assert report.psnr == math.inf

    def test_composition(self, rng):
        y = rng.random((8, 8))
        x = np.clip(y + 0.1 * rng.standard_normal(y.shape), 0, 1)
        report = evaluate_pair(y, x)
        assert report.psnr == psnr(y, x)
        assert report.ssim == ssim(y, x)
        assert report.rmse == rmse(y, x)
        assert math.isfinite(report.psnr) and report.ssim < 1.0
