"""Image quality metrics: RMSE, PSNR (peak from the reference image), SSIM.

SSIM defaults to a single global evaluation with population statistics;
a non-overlapping windowed mode is available for comparison with values
reported elsewhere in the literature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .imgvol import require_pair

# SSIM constants K1, K2 and dynamic range L: C1 = (K1 * L)**2, C2 = (K2 * L)**2
_K1, _K2, _DYNAMIC_RANGE = 0.01, 0.03, 1.0
_C1, _C2 = (_K1 * _DYNAMIC_RANGE) ** 2, (_K2 * _DYNAMIC_RANGE) ** 2


class SsimMode(Enum):
    GLOBAL = "global"
    WINDOWED = "windowed"


@dataclass(frozen=True)
class SsimParams:
    mode: SsimMode = SsimMode.GLOBAL
    window: int = 8

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be >= 1")


@dataclass(frozen=True)
class QualityReport:
    psnr: float
    ssim: float
    rmse: float


def rmse(y: np.ndarray, x: np.ndarray) -> float:
    """Root mean square error sqrt(mean((y - x)^2)), 0 only for identical images."""
    y, x = require_pair(y, x)
    with np.errstate(over="ignore"):
        d = y - x
    # scaled by m = max|y - x| so that no square underflows; a result below the least subnormal rounds up to it
    m = float(np.abs(d).max())
    if m == math.inf:  # y - x overflowed; halving every normal value is exact
        return 2.0 * rmse(y * 0.5, x * 0.5)
    return max(m * math.sqrt(float(((d / m) ** 2).mean())), math.ulp(0.0)) if m > 0 else 0.0


def psnr(y: np.ndarray, x: np.ndarray, peak: float | None = None) -> float:
    """20*log10(peak/rmse) in dB with peak = max(y) of the reference by default.

    Identical images have no finite PSNR; that case returns ``math.inf``.
    Otherwise the peak must be positive.
    """
    e = rmse(y, x)
    if e == 0.0:
        return math.inf
    p = float(np.max(y)) if peak is None else float(peak)
    if not p > 0:
        raise ValueError(f"PSNR needs a positive peak, got {p}")
    if e == math.inf:  # the RMSE itself overflowed: take the logarithms from rmse's halved images
        return 20.0 * (math.log10(p) - math.log10(rmse(*(a * 0.5 for a in require_pair(y, x)))) - math.log10(2.0))
    q = p / e  # overflows to inf, or underflows to 0, only at extreme ratios: then take the logarithms apart
    return 20.0 * (math.log10(q) if 0.0 < q < math.inf else math.log10(p) - math.log10(e))


def _ssim_one(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SSIM of each tile in a (..., n) stack of flattened tiles."""
    mx = x.mean(axis=-1)
    my = y.mean(axis=-1)
    dx = x - mx[..., None]
    dy = y - my[..., None]
    vx = (dx * dx).mean(axis=-1)
    vy = (dy * dy).mean(axis=-1)
    cov = (dx * dy).mean(axis=-1)
    num = (2.0 * mx * my + _C1) * (2.0 * cov + _C2)
    den = (mx * mx + my * my + _C1) * (vx + vy + _C2)
    return num / den


def ssim(x: np.ndarray, y: np.ndarray, params: SsimParams = SsimParams()) -> float:
    """Structural similarity with population statistics, in [-1, 1].

    Global mode evaluates the whole image once; windowed mode averages over
    non-overlapping window x window tiles (partial edge tiles are dropped).
    """
    x, y = require_pair(x, y)
    if params.mode is SsimMode.GLOBAL:
        return float(_ssim_one(x.ravel(), y.ravel()))
    h, w = x.shape
    k = params.window
    if h < k or w < k:
        raise ValueError(f"image {h}x{w} smaller than ssim window {k}")

    def tiles(img):
        img = img[: h - h % k, : w - w % k]
        return img.reshape(h // k, k, w // k, k).swapaxes(1, 2).reshape(-1, k * k)

    return float(_ssim_one(tiles(x), tiles(y)).mean())


def evaluate_pair(reference: np.ndarray, estimate: np.ndarray, params: SsimParams = SsimParams()) -> QualityReport:
    """Bundle PSNR (peak from reference), SSIM and RMSE for one image pair."""
    return QualityReport(
        psnr=psnr(reference, estimate),
        ssim=ssim(reference, estimate, params),
        rmse=rmse(reference, estimate),
    )
