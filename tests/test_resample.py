import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchpair import (
    DegradeParams,
    PhantomSpec,
    Volume,
    bicubic_resize,
    degrade,
    gaussian_blur,
    gaussian_kernel,
    generate_dataset,
    preprocess,
    psnr,
    recenter,
    rotation_correct,
)
from patchpair import resample
from patchpair.resample import _KEYS_A, _SAMPLE_BLOCK, DegenerateImageWarning, _bicubic_sample, _resize_axis
from .oracles import bicubic_sample_loop, direct_conv2d_reflect, principal_axis_angle


def render_ellipse(size, angle, a=40.0, b=12.0, centre=None):
    """Gaussian ellipse whose major axis sits at `angle` radians from vertical."""
    ii, jj = np.meshgrid(np.arange(size, dtype=float), np.arange(size, dtype=float), indexing="ij")
    if centre is None:
        centre = ((size - 1) / 2.0, (size - 1) / 2.0)
    di, dj = ii - centre[0], jj - centre[1]
    c, s = math.cos(angle), math.sin(angle)
    u = c * di + s * dj
    v = -s * di + c * dj
    return np.exp(-0.5 * ((u / a) ** 2 + (v / b) ** 2))


class TestGaussianKernel:
    def test_sigma_three(self):
        taps = gaussian_kernel(3.0)
        assert taps.size == 19
        assert abs(taps.sum() - 1.0) <= 1e-12
        assert np.array_equal(taps, taps[::-1])
        assert taps.argmax() == 9

    def test_sigma_half_hand_values(self):
        taps = gaussian_kernel(0.5)
        assert taps.size == 5
        raw = np.array([math.exp(-8), math.exp(-2), 1.0, math.exp(-2), math.exp(-8)])
        expected = raw / raw.sum()
        np.testing.assert_allclose(taps, expected, atol=1e-15)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            gaussian_kernel(0.0)
        with pytest.raises(ValueError):
            gaussian_kernel(-1.0)

    def test_normalized_and_symmetric_across_sigmas(self):
        for sigma in (0.3, 0.9, 1.7, 2.4, 5.0):
            taps = gaussian_kernel(sigma)
            assert taps.size % 2 == 1
            assert abs(taps.sum() - 1.0) <= 1e-12
            assert np.array_equal(taps, taps[::-1])


class TestGaussianBlur:
    def test_constant_preserved(self):
        img = np.full((12, 12), 0.3)
        out = gaussian_blur(img, 3.0)
        assert np.abs(out - 0.3).max() <= 1e-12

    def test_impulse_gives_kernel_outer_product(self):
        img = np.zeros((64, 64))
        img[32, 32] = 1.0
        out = gaussian_blur(img, 2.0)
        taps = gaussian_kernel(2.0)
        r = taps.size // 2
        window = out[32 - r : 32 + r + 1, 32 - r : 32 + r + 1]
        np.testing.assert_allclose(window, np.outer(taps, taps), atol=1e-15)

    def test_matches_direct_2d_convolution(self, rng):
        img = rng.random((14, 11))
        for sigma in (0.6, 1.3):
            out = gaussian_blur(img, sigma)
            ref = direct_conv2d_reflect(img, gaussian_kernel(sigma))
            np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_reduces_total_variation(self, rng):
        def tv(a):
            return np.abs(np.diff(a, axis=0)).sum() + np.abs(np.diff(a, axis=1)).sum()

        for seed in range(5):
            img = np.random.default_rng(seed).random((24, 24))
            assert tv(gaussian_blur(img, 1.5)) < tv(img)


class TestBicubicResize:
    def test_same_size_is_bit_exact(self, rng):
        img = rng.random((19, 27))
        assert np.array_equal(bicubic_resize(img, 19, 27), img)

    def test_constant_any_size(self):
        img = np.full((16, 16), 0.7)
        for shape in ((16, 16), (7, 31), (64, 64), (3, 3)):
            out = bicubic_resize(img, *shape)
            assert out.shape == shape
            assert np.abs(out - 0.7).max() <= 1e-12

    def test_ramp_roundtrip(self):
        i, j = np.meshgrid(np.arange(256, dtype=float), np.arange(256, dtype=float), indexing="ij")
        ramp = i / 512 + j / 512
        restored = bicubic_resize(bicubic_resize(ramp, 64, 64), 256, 256)
        assert np.abs(restored - ramp).max() < 1e-2

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            bicubic_resize(np.zeros((4, 4)), 0, 4)


class TestDegrade:
    def test_shape_and_composition(self, rng):
        img = rng.random((64, 64))
        params = DegradeParams()
        out = degrade(img, params)
        assert out.shape == (64, 64)
        manual = np.clip(
            bicubic_resize(bicubic_resize(gaussian_blur(img, 3.0), 16, 16), 64, 64), 0.0, 1.0
        )
        assert np.array_equal(out, manual)

    def test_constant(self):
        img = np.full((32, 32), 0.5)
        assert np.abs(degrade(img) - 0.5).max() <= 1e-12

    def test_lowers_psnr_of_textured_image(self, rng):
        img = rng.random((64, 64))
        assert psnr(img, img) == math.inf
        assert math.isfinite(psnr(img, degrade(img)))

    def test_indivisible_dims(self):
        with pytest.raises(ValueError, match="not divisible"):
            degrade(np.zeros((33, 32)), DegradeParams(scale_factor=4))

    def test_output_clamped(self, rng):
        img = rng.random((32, 32))
        out = degrade(img)
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestRecenter:
    def test_already_centered(self):
        img = render_ellipse(64, 0.0, a=10, b=6)
        assert np.array_equal(recenter(img), img)

    def test_blob_moved_to_centre(self):
        img = render_ellipse(256, 0.0, a=8, b=8, centre=(64.0, 64.0))
        out = recenter(img)
        # independent centroid oracle, on both input and output
        ii, jj = np.meshgrid(np.arange(256.0), np.arange(256.0), indexing="ij")

        def centroid(a):
            return (a * ii).sum() / a.sum(), (a * jj).sum() / a.sum()

        ci, cj = centroid(out)
        assert abs(ci - 127.5) <= 1.0
        assert abs(cj - 127.5) <= 1.0
        ci0, cj0 = centroid(img)
        dr = int(np.round(127.5 - ci0))
        dc = int(np.round(127.5 - cj0))
        assert np.array_equal(out[56 + dr : 72 + dr, 56 + dc : 72 + dc], img[56:72, 56:72])

    def test_constant_warns_unchanged(self):
        img = np.full((16, 16), 0.4)
        with pytest.warns(DegenerateImageWarning):
            out = recenter(img)
        assert np.array_equal(out, img)


def reference_taps(src, n):
    """Clamped indices (m, 4) and Keys weights (m, 4): a frozen copy of the library's
    tap rule as it stood before the taps were built in place, so that the byte-exact
    references below do not move with the code under test."""
    base = np.floor(src)
    t = src - base
    a = _KEYS_A
    near = [((a + 2.0) * s - (a + 3.0)) * s * s + 1.0 for s in (t, 1.0 - t)]
    far = [((a * s - 5.0 * a) * s + 8.0 * a) * s - 4.0 * a for s in (1.0 + t, 2.0 - t)]
    idx = np.clip(base.astype(np.int64)[:, None] + np.arange(-1, 3), 0, n - 1)
    return idx, np.stack([far[0], near[0], near[1], far[1]], axis=-1)


def einsum_resize(img, out_h, out_w):
    """Each axis as one gather of the (m, 4) taps and one einsum: the byte-exact
    reference for ``bicubic_resize``."""

    def axis_pass(arr, out_len, axis):
        in_len = arr.shape[axis]
        src = (np.arange(out_len, dtype=np.float64) + 0.5) * (in_len / out_len) - 0.5
        idx, w = reference_taps(src, in_len)
        g = np.take(arr, idx, axis=axis)
        if axis == 0:
            return np.einsum("okw,ok->ow", g, w)
        return np.einsum("hok,ok->ho", g, w)

    return axis_pass(axis_pass(np.asarray(img, dtype=np.float64), out_h, 0), out_w, 1)


def einsum_sample(img, rows, cols):
    """The sampler as one gather of the (n, 4, 4) tap stack and one three-operand
    einsum: the byte-exact reference for ``_bicubic_sample``."""
    h, w = img.shape
    ri, wr = reference_taps(rows, h)
    ci, wc = reference_taps(cols, w)
    g = img[ri[:, :, None], ci[:, None, :]]
    vals = np.einsum("nab,na,nb->n", g, wr, wc)
    outside = (rows < -0.5) | (rows > h - 0.5) | (cols < -0.5) | (cols > w - 0.5)
    vals[outside] = 0.0
    return vals


def sample_coords(rng, n, length):
    """n coordinates on an axis of the given length, each from one of: the
    interior, the clamped band within half a pixel of the grid, outside that band
    (read as 0), or an exact integer or band edge."""
    low = rng.random(n) < 0.5
    regions = [
        rng.uniform(0.0, length - 1.0, n),
        np.where(low, rng.uniform(-0.5, 0.0, n), rng.uniform(length - 1.0, length - 0.5, n)),
        np.where(low, rng.uniform(-3.0, -0.5, n), rng.uniform(length - 0.5, length + 2.0, n)),
        rng.choice([-0.5, 0.0, float(length // 2), length - 1.0, length - 0.5], n),
    ]
    return np.choose(rng.integers(0, len(regions), n), regions)


POINT_COUNTS = [0, 1, _SAMPLE_BLOCK - 1, _SAMPLE_BLOCK, _SAMPLE_BLOCK + 1, 3 * _SAMPLE_BLOCK + 17]


@st.composite
def sampler_inputs(draw, counts=st.sampled_from(POINT_COUNTS) | st.integers(2, 64),
                   scales=st.sampled_from([1.0, 1e-3, 1e-300, 1e300])):
    """An image of 1-40 x 1-40 pixels (some of them +0.0 or -0.0) and points to sample."""
    h, w, n = draw(st.integers(1, 40)), draw(st.integers(1, 40)), draw(counts)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    img = rng.uniform(-1.0, 1.0, (h, w)) * draw(scales)
    img[rng.random((h, w)) < draw(st.sampled_from([0.0, 0.5, 1.0]))] = draw(st.sampled_from([0.0, -0.0]))
    return img, sample_coords(rng, n, h), sample_coords(rng, n, w)


class TestBicubicSample:
    @given(sampler_inputs())
    @settings(max_examples=150, deadline=None)
    def test_equals_einsum_reference_byte_for_byte(self, inputs):
        img, rows, cols = inputs
        assert _bicubic_sample(img, rows, cols).tobytes() == einsum_sample(img, rows, cols).tobytes()

    @pytest.mark.parametrize("n", POINT_COUNTS)
    @pytest.mark.parametrize("shape", [(1, 1), (1, 40), (40, 1), (40, 40)])
    def test_every_block_boundary_byte_for_byte(self, n, shape):
        rng = np.random.default_rng(n)
        img = rng.random(shape)
        rows, cols = sample_coords(rng, n, shape[0]), sample_coords(rng, n, shape[1])
        assert _bicubic_sample(img, rows, cols).tobytes() == einsum_sample(img, rows, cols).tobytes()

    def test_negative_zero_image_byte_for_byte(self):
        # at integer points every tap term is -0.0; the einsum's sum starts at +0.0
        img = np.full((5, 6), -0.0)
        rows, cols = np.array([0.0, 2.0, 4.0, -0.5]), np.array([0.0, 3.0, 5.0, 5.5])
        assert _bicubic_sample(img, rows, cols).tobytes() == einsum_sample(img, rows, cols).tobytes()

    def test_rotation_correct_on_phantom_slice_byte_for_byte(self, monkeypatch):
        img = generate_dataset(PhantomSpec(seed=5, patients=1, slices_per_patient=1, size=256)).volumes[0].data[0]
        fast = rotation_correct(img)
        monkeypatch.setattr(resample, "_bicubic_sample", einsum_sample)
        assert not np.array_equal(fast, img)  # the slice was rotated, not passed through
        assert fast.tobytes() == rotation_correct(img).tobytes()

    @given(sampler_inputs(counts=st.integers(0, 64), scales=st.just(1.0)))
    @settings(max_examples=100, deadline=None)
    def test_matches_per_point_oracle(self, inputs):
        img, rows, cols = inputs
        np.testing.assert_allclose(_bicubic_sample(img, rows, cols), bicubic_sample_loop(img, rows, cols),
                                   rtol=0, atol=1e-12)

    def test_matches_per_point_oracle_across_a_block_boundary(self):
        rng = np.random.default_rng(3)
        img = rng.random((23, 31))
        rows, cols = sample_coords(rng, _SAMPLE_BLOCK + 1, 23), sample_coords(rng, _SAMPLE_BLOCK + 1, 31)
        np.testing.assert_allclose(_bicubic_sample(img, rows, cols), bicubic_sample_loop(img, rows, cols),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_inside", [_SAMPLE_BLOCK - 1, _SAMPLE_BLOCK, _SAMPLE_BLOCK + 1])
    def test_block_boundaries_counted_in_inside_points(self, n_inside):
        # the sampler blocks only the points within half a pixel of the grid
        rng = np.random.default_rng(n_inside)
        h, w, n = 23, 31, 2 * n_inside + 1
        img = rng.random((h, w))
        rows, cols = rng.uniform(-0.5, h - 0.5, n), rng.uniform(-0.5, w - 0.5, n)
        outside = np.arange(n) % 2 == 0
        by_row = rng.random(n) < 0.5
        rows[outside & by_row] = rng.choice([-3.0, np.nextafter(-0.5, -1.0), np.nextafter(h - 0.5, h), h + 2.0],
                                            (outside & by_row).sum())
        cols[outside & ~by_row] = rng.choice([-3.0, np.nextafter(-0.5, -1.0), np.nextafter(w - 0.5, w), w + 2.0],
                                             (outside & ~by_row).sum())
        within = (rows >= -0.5) & (rows <= h - 0.5) & (cols >= -0.5) & (cols <= w - 0.5)
        assert np.array_equal(within, ~outside) and within.sum() == n_inside
        vals = _bicubic_sample(img, rows, cols)
        assert vals.tobytes() == einsum_sample(img, rows, cols).tobytes()
        assert vals[outside].tobytes() == bytes(8 * outside.sum())  # +0.0, not -0.0

    @pytest.mark.parametrize("n", [1, _SAMPLE_BLOCK + 1])
    def test_every_point_outside(self, n):
        rng = np.random.default_rng(n)
        img = rng.uniform(-1.0, 1.0, (6, 9))
        rows = rng.choice([-0.75, 6.0, 40.0], n)
        cols = rng.uniform(-1.0, 9.0, n)
        vals = _bicubic_sample(img, rows, cols)
        assert vals.tobytes() == bytes(8 * n)
        assert vals.tobytes() == einsum_sample(img, rows, cols).tobytes()


class TestBicubicResizeBytes:
    @pytest.mark.parametrize("shape, out", [
        ((64, 64), (48, 48)),
        ((64, 64), (80, 80)),
        ((64, 48), (80, 36)),
        ((1, 40), (1, 17)),
        ((40, 1), (13, 1)),
        ((1, 1), (5, 3)),
        ((30, 30), (1, 1)),
        ((1, 1), (1, 1)),
    ], ids=str)
    def test_equals_einsum_reference_byte_for_byte(self, rng, shape, out):
        img = rng.random(shape)
        assert bicubic_resize(img, *out).tobytes() == einsum_resize(img, *out).tobytes()

    @given(st.integers(1, 19), st.integers(1, 19), st.integers(0, 2**32 - 1),
           st.sampled_from([0, -300, 300]), st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=300, deadline=None)
    def test_same_size_equals_tap_path_byte_for_byte(self, h, w, seed, exponent, dtype):
        # the shortcut skips the taps: each pixel times 1 plus three zero terms
        rng = np.random.default_rng(seed)
        scale = 10.0 ** (exponent if dtype is np.float64 else exponent // 10)  # float32 stops near 3e38
        img = (rng.uniform(-1.0, 1.0, (h, w)) * scale).astype(dtype)
        zeros = rng.random((h, w))
        img[zeros < 0.3] = -0.0
        img[(zeros >= 0.3) & (zeros < 0.5)] = 0.0
        taps = _resize_axis(_resize_axis(img.astype(np.float64), h, 0), w, 1)
        assert bicubic_resize(img, h, w).tobytes() == taps.tobytes()

    def test_down_and_up_at_256_byte_for_byte(self):
        img = generate_dataset(PhantomSpec(seed=5, patients=1, slices_per_patient=1, size=256)).volumes[0].data[0]
        down = bicubic_resize(img, 64, 64)
        assert down.tobytes() == einsum_resize(img, 64, 64).tobytes()
        assert bicubic_resize(down, 256, 256).tobytes() == einsum_resize(down, 256, 256).tobytes()


class TestRotationCorrect:
    def test_aligned_ellipse_unchanged(self):
        img = render_ellipse(128, 0.0)
        out = rotation_correct(img)
        assert np.abs(out - img).max() < 1e-6

    def test_thirty_degrees_recovered(self):
        rotated = render_ellipse(256, math.radians(30.0))
        measured = math.degrees(principal_axis_angle(rotated))
        assert abs(measured - 30.0) < 1.0
        corrected = rotation_correct(rotated)
        residual = math.degrees(principal_axis_angle(corrected))
        assert abs(residual) < 1.0

    def test_various_angles_recovered(self):
        for deg in (-60, -15, 10, 45, 75):
            corrected = rotation_correct(render_ellipse(256, math.radians(deg)))
            assert abs(math.degrees(principal_axis_angle(corrected))) < 1.0

    def test_isotropic_disk_warns_unchanged(self):
        ii, jj = np.meshgrid(np.arange(128.0), np.arange(128.0), indexing="ij")
        disk = np.exp(-0.5 * ((np.hypot(ii - 63.5, jj - 63.5)) / 20.0) ** 2)
        with pytest.warns(DegenerateImageWarning):
            out = rotation_correct(disk)
        assert np.array_equal(out, disk)

    def test_idempotent_within_tolerance(self):
        img = render_ellipse(192, math.radians(24.0))
        once = rotation_correct(img)
        twice = rotation_correct(once)
        rms = math.sqrt(float(((twice - once) ** 2).mean()))
        assert rms < 1e-3

    def test_constant_warns(self):
        with pytest.warns(DegenerateImageWarning):
            rotation_correct(np.full((8, 8), 1.0))



def copy_rule_image(kind):
    """An 8 x 8 image for each path through the resample functions: one each for rotation_correct's three early
    returns (constant, nearly isotropic: a centred 2 x 2 block, and theta = 0: one bright column) and a general one."""
    if kind == "constant":
        return np.full((8, 8), 0.3)
    img = np.zeros((8, 8))
    if kind == "isotropic":
        img[3:5, 3:5] = 0.5
    elif kind == "theta0":
        img[:, 4] = 0.75
    else:
        img[1:6, 2:4] = np.linspace(0.1, 0.9, 10).reshape(5, 2)
    return img


def copy_rule_input(img, layout):
    if layout == "float32":
        return img.astype(np.float32)
    if layout == "strided":  # a float64 view into a larger array, every other row and every third column
        base = np.full((16, 24), 7.0)
        base[::2, ::3] = img
        return base[::2, ::3]
    return img.copy()


COPY_RULE_FUNCTIONS = {
    "gaussian_blur": lambda img: gaussian_blur(img, 1.0),
    "bicubic_resize": lambda img: bicubic_resize(img, *img.shape),
    "recenter": recenter,
    "rotation_correct": rotation_correct,
    "degrade": lambda img: degrade(img, DegradeParams(sigma=1.0, scale_factor=2)),
}


class TestCopyRule:
    @pytest.mark.parametrize("kind, message", [
        ("constant", "constant image"),
        ("isotropic", "nearly isotropic image"),
    ])
    def test_inputs_reach_rotation_corrects_warning_returns(self, kind, message):
        with pytest.warns(DegenerateImageWarning, match=message):
            rotation_correct(copy_rule_image(kind))

    def test_theta0_input_reaches_the_unrotated_return(self):
        img = copy_rule_image("theta0")
        theta, mu_rr, mu_cc, mu_rc, _, _ = resample._principal_angle(img)
        assert theta == 0.0 and mu_rr - mu_cc > 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegenerateImageWarning)
            assert np.array_equal(rotation_correct(img), img)

    @pytest.mark.parametrize("layout", ["float64", "float32", "strided"])
    @pytest.mark.parametrize("kind", ["constant", "isotropic", "theta0", "general"])
    @pytest.mark.parametrize("name", sorted(COPY_RULE_FUNCTIONS))
    def test_result_is_a_new_array_and_input_is_untouched(self, name, kind, layout):
        img = copy_rule_input(copy_rule_image(kind), layout)
        before = img.copy()
        base_before = None if img.base is None else img.base.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateImageWarning)
            out = COPY_RULE_FUNCTIONS[name](img)
        assert out is not img and not np.shares_memory(out, img)
        assert out.dtype == np.float64 and out.shape == img.shape
        assert np.array_equal(img, before) and img.dtype == before.dtype
        if base_before is not None:
            assert not np.shares_memory(out, img.base)
            assert np.array_equal(img.base, base_before)


class TestPreprocess:
    def test_resizes_128_and_168_to_256(self):
        for src in (128, 168):
            img = render_ellipse(src, math.radians(10.0), a=src * 0.2, b=src * 0.1)
            vol = Volume("p", np.stack([img, img * 0.8]))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateImageWarning)
                out = preprocess(vol, 256)
            assert out.data.shape == (2, 256, 256)
            assert float(out.data.min()) == 0.0
            assert float(out.data.max()) == 1.0

    def test_near_identity_on_prepared_input(self):
        img = render_ellipse(256, 0.0)
        img = (img - img.min()) / (img.max() - img.min())
        out = preprocess(Volume("p", img[None]), 256)
        assert np.abs(out.data[0].astype(np.float64) - img).max() < 1e-6
