"""Preprocessing (resize, rotation correction, re-centering) and the LR degradation model.

Resampling is cubic convolution with the Keys parameter a = -0.5 and the
half-pixel-centred coordinate mapping src = (dst + 0.5) * in/out - 0.5,
clamped at the borders. Blur is a separable truncated Gaussian with reflect
padding. The degradation model is blur -> bicubic down -> bicubic up, clamped
to [0, 1].
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .imgvol import Volume, normalize_volume, require_image

_KEYS_A = -0.5
_SAMPLE_BLOCK = 8192  # points per block in _bicubic_sample


class DegenerateImageWarning(UserWarning):
    """Signals a best-effort geometric correction that was skipped."""


@dataclass(frozen=True)
class DegradeParams:
    sigma: float = 3.0
    scale_factor: int = 4

    def __post_init__(self):
        if not 0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")
        if self.scale_factor < 1:
            raise ValueError("scale_factor must be >= 1")


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Normalized 1D Gaussian taps over [-ceil(3*sigma), ceil(3*sigma)]."""
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    r = math.ceil(3.0 * sigma)
    i = np.arange(-r, r + 1, dtype=np.float64)
    taps = np.exp(-(i * i) / (2.0 * sigma * sigma))
    return taps / taps.sum()


def _correlate_axis(img: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    r = taps.size // 2
    pad = [(0, 0), (0, 0)]
    pad[axis] = (r, r)
    padded = np.pad(img, pad, mode="reflect")
    win = sliding_window_view(padded, taps.size, axis=axis)
    return win @ taps  # taps are symmetric, so correlation == convolution


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with reflect padding; output has the input's size."""
    arr = require_image(img)
    taps = gaussian_kernel(sigma)
    return _correlate_axis(_correlate_axis(arr, taps, 0), taps, 1)


def _taps(src: np.ndarray):
    """The index of the first of the four taps around each source coordinate in the axis edge-padded by
    2 px (floor(src) + 1), and the (4, m) Keys weights in tap order, at distances 1 + t, t, 1 - t and
    2 - t with t = src - floor(src). On an n-pixel axis, the padding gives every coordinate in [-1, n)
    the values that clamping its tap indices to [0, n - 1] would read.

    The inner taps take the near polynomial and the outer taps the far one; the
    far polynomial is exactly 0 at distances 1 and 2, so t = 0 and t = 1 need no case.
    """
    base = np.floor(src)
    t = src - base
    a = _KEYS_A
    w = np.empty((4, src.size))
    for k, s in ((1, t), (2, 1.0 - t)):
        w[k] = ((a + 2.0) * s - (a + 3.0)) * s * s + 1.0
    for k, s in ((0, 1.0 + t), (3, 2.0 - t)):
        w[k] = ((a * s - 5.0 * a) * s + 8.0 * a) * s - 4.0 * a
    return base.astype(np.int64) + 1, w


def _resize_axis(arr: np.ndarray, out_len: int, axis: int) -> np.ndarray:
    in_len = arr.shape[axis]
    src = (np.arange(out_len, dtype=np.float64) + 0.5) * (in_len / out_len) - 0.5
    first, w = _taps(src)
    pad = [(0, 0), (0, 0)]
    pad[axis] = (2, 2)
    g = np.take(np.pad(arr, pad, mode="edge"), first[:, None] + np.arange(4), axis=axis)
    w = np.ascontiguousarray(w.T)  # (m, 4): the einsum keeps its summation order
    if axis == 0:
        return np.einsum("okw,ok->ow", g, w)
    return np.einsum("hok,ok->ho", g, w)


def bicubic_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Cubic-convolution resize; the identity when output dims equal input dims."""
    arr = require_image(img)
    if out_h < 1 or out_w < 1:
        raise ValueError("output dimensions must be >= 1")
    if arr.shape == (out_h, out_w):
        # the taps at t = 0 weigh each pixel 1 and its neighbours 0, and the sums
        # start at +0.0, so -0.0 pixels come out +0.0
        return arr + 0.0
    return _resize_axis(_resize_axis(arr, out_h, 0), out_w, 1)


def degrade(img: np.ndarray, params: DegradeParams = DegradeParams()) -> np.ndarray:
    """Resolution-degradation model: Gaussian blur, bicubic down by the scale
    factor, bicubic back up to the original size, clamped to [0, 1]."""
    out = gaussian_blur(img, params.sigma)
    h, w = out.shape
    f = params.scale_factor
    if h % f != 0 or w % f != 0:
        raise ValueError(f"image dims {h}x{w} not divisible by scale factor {f}")
    out = bicubic_resize(out, h // f, w // f)
    out = bicubic_resize(out, h, w)
    return np.clip(out, 0.0, 1.0)


def degrade_volume(v: Volume, params: DegradeParams) -> Volume:
    """Degrade every slice of a volume; errors name the volume."""
    try:
        return Volume(v.patient_id, np.stack([degrade(s, params) for s in v.data]))
    except ValueError as e:
        raise ValueError(f"volume {v.patient_id}: {e}") from e


def _bicubic_sample(img: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Sample arbitrary (row, col) points with the Keys kernel; points more than
    half a pixel outside the grid read as +0.0.

    Each inside value is 0.0 plus the 16 terms (pixel * row weight) * column weight,
    added in row-major tap order, which is np.einsum("nab,na,nb->n") over the
    (n, 4, 4) tap stack bit for bit. Inside points go in blocks so temporaries stay small.
    """
    h, w = img.shape
    flat, pw = np.pad(img, 2, mode="edge").ravel(), w + 4
    vals = np.zeros(rows.size)
    inside = np.flatnonzero(~((rows < -0.5) | (rows > h - 0.5) | (cols < -0.5) | (cols > w - 0.5)))
    for lo in range(0, inside.size, _SAMPLE_BLOCK):
        pts = inside[lo : lo + _SAMPLE_BLOCK]
        base, wr = _taps(rows[pts])
        c0, wc = _taps(cols[pts])
        base *= pw
        base += c0  # the flat index of each point's first tap; tap (a, b) lies a * pw + b further on
        acc, term = np.zeros(pts.size), np.empty(pts.size)
        for a in range(4):
            for b in range(4):
                flat[a * pw + b :].take(base, out=term, mode="clip")  # in range: "clip" only skips a buffered copy
                term *= wr[a]
                term *= wc[b]
                acc += term
        vals[pts] = acc
    return vals


def _centroid(arr: np.ndarray):
    total = float(arr.sum())
    i = np.arange(arr.shape[0], dtype=np.float64)
    j = np.arange(arr.shape[1], dtype=np.float64)
    ci = float(arr.sum(axis=1) @ i) / total
    cj = float(arr.sum(axis=0) @ j) / total
    return ci, cj


def recenter(img: np.ndarray) -> np.ndarray:
    """Integer-pixel shift placing the intensity centroid at the grid centre;
    vacated pixels are zero-filled. Constant images pass through with a warning."""
    arr = require_image(img)
    if float(arr.max()) == float(arr.min()):
        warnings.warn("constant image: centroid undefined, recenter skipped", DegenerateImageWarning)
        return arr.copy(order="K")  # require_image hands a float64 input back as itself
    h, w = arr.shape
    ci, cj = _centroid(arr)
    dr = int(np.round((h - 1) / 2.0 - ci))
    dc = int(np.round((w - 1) / 2.0 - cj))
    out = np.zeros_like(arr)
    r0s, r0d = max(0, -dr), max(0, dr)
    c0s, c0d = max(0, -dc), max(0, dc)
    nr, nc = h - abs(dr), w - abs(dc)
    if nr > 0 and nc > 0:
        out[r0d : r0d + nr, c0d : c0d + nc] = arr[r0s : r0s + nr, c0s : c0s + nc]
    return out


def _principal_angle(arr: np.ndarray):
    """Angle of the principal intensity axis measured from the vertical (row) axis,
    the mass-normalized second central moments and the centroid."""
    total = float(arr.sum())
    ci, cj = _centroid(arr)
    di = np.arange(arr.shape[0], dtype=np.float64) - ci
    dj = np.arange(arr.shape[1], dtype=np.float64) - cj
    mu_rr = float((arr * (di * di)[:, None]).sum()) / total
    mu_cc = float((arr * (dj * dj)[None, :]).sum()) / total
    mu_rc = float((arr * di[:, None] * dj[None, :]).sum()) / total
    theta = 0.5 * math.atan2(2.0 * mu_rc, mu_rr - mu_cc)
    return theta, mu_rr, mu_cc, mu_rc, ci, cj


def rotation_correct(img: np.ndarray) -> np.ndarray:
    """Rotate (bicubic, about the centroid) so the principal intensity axis is
    vertical. Nearly isotropic or constant images pass through with a warning."""
    arr = require_image(img)
    if float(arr.max()) == float(arr.min()):
        warnings.warn("constant image: rotation correction skipped", DegenerateImageWarning)
        return arr.copy(order="K")
    theta, mu_rr, mu_cc, mu_rc, ci, cj = _principal_angle(arr)
    if abs(mu_rr - mu_cc) < 1e-9 and abs(mu_rc) < 1e-9:
        warnings.warn("nearly isotropic image: rotation correction skipped", DegenerateImageWarning)
        return arr.copy(order="K")
    if theta == 0.0:
        return arr.copy(order="K")
    h, w = arr.shape
    ii, jj = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
    di = ii.ravel() - ci
    dj = jj.ravel() - cj
    c, s = math.cos(theta), math.sin(theta)
    src_r = ci + c * di - s * dj
    src_c = cj + s * di + c * dj
    return _bicubic_sample(arr, src_r, src_c).reshape(h, w)


def preprocess(v: Volume, target: int) -> Volume:
    """Per slice: resize to target x target, rotation-correct, recenter; then
    min-max normalize the whole volume to [0, 1]."""
    slices = []
    for k in range(v.n_slices):
        s = bicubic_resize(v.data[k], target, target)
        s = rotation_correct(s)
        s = recenter(s)
        slices.append(s)
    return normalize_volume(Volume(v.patient_id, np.stack(slices)))
