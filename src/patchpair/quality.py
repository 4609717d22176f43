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

from .imgvol import require_image


class SsimMode(Enum):
    GLOBAL = "global"
    WINDOWED = "windowed"


@dataclass(frozen=True)
class SsimParams:
    k1: float = 0.01
    k2: float = 0.03
    dynamic_range: float = 1.0
    mode: SsimMode = SsimMode.GLOBAL
    window: int = 8

    def __post_init__(self):
        if not (self.k1 > 0 and self.k2 > 0 and self.dynamic_range > 0):
            raise ValueError("k1, k2 and dynamic_range must be positive")
        if self.window < 1:
            raise ValueError("window must be >= 1")

    @property
    def c1(self) -> float:
        return (self.k1 * self.dynamic_range) ** 2

    @property
    def c2(self) -> float:
        return (self.k2 * self.dynamic_range) ** 2


@dataclass(frozen=True)
class QualityReport:
    psnr: float
    ssim: float
    rmse: float


def _pair(y, x):
    y = require_image(y).astype(np.float64)
    x = require_image(x).astype(np.float64)
    if y.shape != x.shape:
        raise ValueError(f"dimension mismatch: {y.shape} vs {x.shape}")
    return y, x


def rmse(y: np.ndarray, x: np.ndarray) -> float:
    """Root mean square error sqrt(mean((y - x)^2))."""
    y, x = _pair(y, x)
    d = y - x
    return math.sqrt(float((d * d).mean()))


def psnr(y: np.ndarray, x: np.ndarray, peak: float | None = None) -> float:
    """20*log10(peak/rmse) in dB with peak = max(y) of the reference by default.

    Identical images have no finite PSNR; that case returns ``math.inf``.
    """
    e = rmse(y, x)
    if e == 0.0:
        return math.inf
    p = float(np.max(y)) if peak is None else float(peak)
    return 20.0 * math.log10(p / e)


def _ssim_one(x: np.ndarray, y: np.ndarray, c1: float, c2: float) -> np.ndarray:
    """SSIM of each tile in a (..., n) stack of flattened tiles."""
    mx = x.mean(axis=-1)
    my = y.mean(axis=-1)
    dx = x - mx[..., None]
    dy = y - my[..., None]
    vx = (dx * dx).mean(axis=-1)
    vy = (dy * dy).mean(axis=-1)
    cov = (dx * dy).mean(axis=-1)
    num = (2.0 * mx * my + c1) * (2.0 * cov + c2)
    den = (mx * mx + my * my + c1) * (vx + vy + c2)
    return num / den


def ssim(x: np.ndarray, y: np.ndarray, params: SsimParams = SsimParams()) -> float:
    """Structural similarity with population statistics, in [-1, 1].

    Global mode evaluates the whole image once; windowed mode averages over
    non-overlapping window x window tiles (partial edge tiles are dropped).
    """
    x, y = _pair(x, y)
    c1, c2 = params.c1, params.c2
    if params.mode is SsimMode.GLOBAL:
        return float(_ssim_one(x.ravel(), y.ravel(), c1, c2))
    h, w = x.shape
    k = params.window
    if h < k or w < k:
        raise ValueError(f"image {h}x{w} smaller than ssim window {k}")

    def tiles(img):
        img = img[: h - h % k, : w - w % k]
        return img.reshape(h // k, k, w // k, k).swapaxes(1, 2).reshape(-1, k * k)

    return float(_ssim_one(tiles(x), tiles(y), c1, c2).mean())


def evaluate_pair(reference: np.ndarray, estimate: np.ndarray, params: SsimParams = SsimParams()) -> QualityReport:
    """Bundle PSNR (peak from reference), SSIM and RMSE for one image pair."""
    return QualityReport(
        psnr=psnr(reference, estimate),
        ssim=ssim(reference, estimate, params),
        rmse=rmse(reference, estimate),
    )
