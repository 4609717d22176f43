"""The image kernels against their full-grid forms in tests/oracles.py, bit for bit.

The kernels compute row and column terms once and broadcast them, and work in place; each pixel must see
the same operations in the same order as on a full grid. CI also runs this file with numpy's SIMD dispatch
lowered, where a broadcast operand could pick another inner loop than a full-size one.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from patchpair import HistogramSpec, PhantomSpec, Volume, normalize_volume, rotation_correct
from patchpair import imgvol, phantoms
from patchpair.resample import _principal_angle, _taps
from patchpair.similarity import _codes
from .oracles import (
    codes_chain,
    keys_taps_expr,
    normalize_expr,
    principal_moments_grid,
    render_volume_grid,
    rotation_correct_grid,
)

LAYOUTS = ("C", "F", "strided", "transposed")


def bits(a):
    """The float64 bits of a (any layout), for comparisons that see -0.0 and every last ulp."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def laid_out(img, layout, read_only):
    """img with the given memory layout; "strided" is a view with gaps between its pixels, and "transposed"
    the transpose of a strided view."""
    h, w = img.shape
    if layout == "F":
        out = np.asfortranarray(img)
    elif layout == "strided":
        out = np.zeros((2 * h, 3 * w), dtype=img.dtype)[::2, ::3]
        out[...] = img
    elif layout == "transposed":
        out = np.zeros((3 * w, 2 * h), dtype=img.dtype)[::3, ::2].T
        out[...] = img
    else:
        out = np.ascontiguousarray(img)
    out.flags.writeable = not read_only
    return out


@st.composite
def ellipse_images(draw):
    """An elongated Gaussian blob at any angle, off-centre, with seeded noise, on an odd or non-square grid."""
    h, w = draw(st.integers(9, 48)), draw(st.integers(9, 48))
    angle = draw(st.floats(-math.pi, math.pi))
    a = draw(st.floats(0.25, 0.5)) * max(h, w)
    b = a * draw(st.floats(0.15, 0.6))
    ci = (h - 1) / 2.0 + draw(st.floats(-0.15, 0.15)) * h
    cj = (w - 1) / 2.0 + draw(st.floats(-0.15, 0.15)) * w
    di = np.arange(h)[:, None] - ci
    dj = np.arange(w) - cj
    c, s = math.cos(angle), math.sin(angle)
    img = np.exp(-0.5 * (((c * di + s * dj) / a) ** 2 + ((c * dj - s * di) / b) ** 2))
    img += 0.05 * np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((h, w))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return laid_out(img.astype(dtype), draw(st.sampled_from(LAYOUTS)), draw(st.booleans()))


@given(ellipse_images())
@settings(max_examples=300, deadline=None)
def test_rotation_correct_equals_the_grid_form_bit_for_bit(img):
    before = img.copy()
    arr = np.asarray(img, dtype=np.float64)  # as require_image hands it over: a float64 input is itself
    assert np.array(_principal_angle(arr)).view(np.uint64).tolist() == (
        np.array(principal_moments_grid(arr)).view(np.uint64).tolist()
    )
    assert np.array_equal(bits(rotation_correct(img)), bits(rotation_correct_grid(img)))
    assert np.array_equal(img, before)


@given(
    st.integers(32, 100),
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.integers(0, 3),
    st.none() | st.floats(0.0, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_render_volume_equals_the_grid_form_bit_for_bit(size, seed, slices, idx, perturbation):
    spec = PhantomSpec(seed=seed, patients=1, slices_per_patient=slices, size=size)
    params = phantoms._sample_patient_params(spec, idx)
    if perturbation is not None:
        params = phantoms._jitter_params(params, perturbation, spec, idx)
    with mock.patch.object(phantoms, "Volume", lambda pid, data: data):  # the float64 stack before the cast
        data = phantoms._render_volume(spec, params, "P")
    assert np.array_equal(bits(data), bits(render_volume_grid(spec, params)))


@given(
    hnp.arrays(np.float64, st.integers(1, 300), elements=st.floats(-3.0, 600.0))
    | hnp.arrays(np.float64, st.integers(1, 50), elements=st.integers(-3, 600).map(float)),
    st.sampled_from([slice(None), slice(None, None, 2), slice(None, None, -1)]),
)
@settings(max_examples=300, deadline=None)
def test_taps_equal_the_expression_form_bit_for_bit(src, step):
    src = src[step]
    src.flags.writeable = False
    before = src.copy()
    first, w = _taps(src)
    first_expr, w_expr = keys_taps_expr(src)
    assert np.array_equal(first, first_expr)
    assert np.array_equal(bits(w), bits(w_expr))
    assert np.array_equal(src, before)


@given(
    st.integers(1, 40),
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
    st.sampled_from([np.float32, np.float64]),
    st.sampled_from(LAYOUTS),
    st.booleans(),
    st.integers(2, 300),
    st.floats(-1.0, 1.0),
    st.floats(1e-3, 2.0),
)
@settings(max_examples=300, deadline=None)
def test_codes_equal_the_chain_form(h, w, seed, dtype, layout, read_only, bins, lo, span):
    # pixels from half a span below lo to half a span above hi, so both edge bins take clamped pixels, and
    # every third pixel on a bin edge, where one ulp of the scaled value moves the bin
    rng = np.random.default_rng(seed)
    img = lo - 0.5 * span + 2.0 * span * rng.random((h, w))
    img.flat[::3] = lo + rng.integers(-bins, 2 * bins, img.flat[::3].size) * (span / bins)
    img = laid_out(img.astype(dtype), layout, read_only)
    before = img.copy()
    spec = HistogramSpec(bins=bins, value_range=(lo, lo + span))
    codes = _codes(img, spec)
    assert codes.dtype == np.int64 and codes.shape == (h * w,)
    assert np.array_equal(codes, codes_chain(img, spec))
    assert np.array_equal(img, before)


@given(
    hnp.arrays(
        np.float32,
        hnp.array_shapes(min_dims=3, max_dims=3, max_side=9),
        elements=st.floats(-1e6, 1e6, width=32),
    ).filter(lambda a: a.max() > a.min()),
    st.sampled_from([(0, 1, 2), (2, 1, 0), (1, 2, 0)]),
)
@settings(max_examples=200, deadline=None)
def test_normalize_volume_equals_the_expression_form_bit_for_bit(data, axes):
    v = Volume("p", np.transpose(data, axes))  # Volume keeps its input's layout, so some are not C-ordered
    before = v.data.copy()
    with mock.patch.object(imgvol, "Volume", lambda pid, data: data):  # the float64 result before the cast
        out = normalize_volume(v)
    assert out.dtype == np.float64
    assert np.array_equal(bits(out), bits(normalize_expr(v.data)))
    assert np.array_equal(v.data, before)
