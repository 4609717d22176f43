"""Similarity metrics between equally sized images: NMI, PCC, RBF.

NMI uses plug-in estimates from a uniform joint histogram and natural
logarithms throughout. The mutual-information sum is evaluated in a
transpose-invariant order so that every metric here is *bitwise* symmetric
in its two arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .imgvol import require_pair


class ZeroVarianceError(ValueError):
    """Raised by pcc when either input has no intensity variance."""


class SimilarityKind(Enum):
    NMI = "nmi"
    PCC = "pcc"
    RBF = "rbf"


@dataclass(frozen=True)
class HistogramSpec:
    """Uniform binning used for the joint intensity distribution."""

    bins: int = 64
    value_range: tuple = (0.0, 1.0)

    def __post_init__(self):
        if self.bins < 2:
            raise ValueError("bins must be >= 2")
        lo, hi = self.value_range
        if not hi > lo:
            raise ValueError("degenerate histogram range")


@dataclass(frozen=True)
class RbfParams:
    """gamma=None picks sqrt(n_pixels)/2 for the patch at hand."""

    gamma: float | None = None

    def __post_init__(self):
        # rbf divides by 2 * gamma * gamma, which underflows to 0 for tiny gamma
        if self.gamma is not None and not (self.gamma > 0 and 2.0 * self.gamma * self.gamma > 0):
            raise ValueError(f"gamma must be positive with 2 * gamma**2 > 0, got {self.gamma!r}")


@dataclass(frozen=True, eq=False)
class JointHistogram:
    counts: np.ndarray  # (bins, bins) int64
    total: int

    def __post_init__(self):
        if self.total < 1 or self.counts.sum() != self.total:
            raise ValueError("joint histogram counts do not sum to total")


def _bin_indices(img: np.ndarray, spec: HistogramSpec) -> np.ndarray:
    lo, hi = spec.value_range
    scaled = (np.asarray(img, dtype=np.float64) - lo) * (spec.bins / (hi - lo))
    idx = np.floor(scaled).astype(np.int64)
    # out-of-range values land in the edge bins
    return np.clip(idx, 0, spec.bins - 1)


def joint_histogram(x: np.ndarray, y: np.ndarray, spec: HistogramSpec = HistogramSpec()) -> JointHistogram:
    """Count co-occurring bin pairs over all pixels of two same-sized images."""
    x, y = require_pair(x, y)
    bx = _bin_indices(x, spec)
    by = _bin_indices(y, spec)
    flat = bx.ravel() * spec.bins + by.ravel()
    counts = np.bincount(flat, minlength=spec.bins * spec.bins).reshape(spec.bins, spec.bins)
    counts.setflags(write=False)
    return JointHistogram(counts, int(x.size))


def entropy(marginal) -> float:
    """Shannon entropy in nats of a probability vector, with 0*ln(0) := 0."""
    p = np.asarray(marginal, dtype=np.float64).ravel()
    if p.size == 0 or (p < 0).any():
        raise ValueError("invalid distribution: negative or empty")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError(f"invalid distribution: sums to {float(p.sum())!r}")
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def _marginals(h: JointHistogram):
    p = h.counts / h.total
    return p, p.sum(axis=1), p.sum(axis=0)


def mutual_information(h: JointHistogram) -> float:
    """Plug-in mutual information in nats; zero-count cells contribute nothing."""
    p, px, py = _marginals(h)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = p * (np.log(p) - np.log(px[:, None] * py[None, :]))
    t[p == 0] = 0.0
    # summing t + t.T keeps the result identical under argument transposition
    return 0.5 * float((t + t.T).sum())


def nmi(x: np.ndarray, y: np.ndarray, spec: HistogramSpec = HistogramSpec()) -> float:
    """Normalized mutual information 2*I/(H_x + H_y) in [0, 1]; 0 for two constant patches."""
    h = joint_histogram(x, y, spec)
    _, px, py = _marginals(h)
    hx = entropy(px)
    hy = entropy(py)
    denom = hx + hy
    if denom == 0.0:
        return 0.0
    support = h.counts > 0
    if (support.sum(axis=0) <= 1).all() and (support.sum(axis=1) <= 1).all():
        # bijective bin relationship: I = H_x = H_y holds identically, so NMI is 1
        return 1.0
    val = 2.0 * mutual_information(h) / denom
    return min(max(val, 0.0), 1.0)


def pcc(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation of pixel intensities (population statistics), in [-1, 1]."""
    x, y = require_pair(x, y)
    xf = x.astype(np.float64).ravel()
    yf = y.astype(np.float64).ravel()
    dx = xf - xf.mean()
    dy = yf - yf.mean()
    vx = float((dx * dx).mean())
    vy = float((dy * dy).mean())
    if vx == 0.0 or vy == 0.0:
        raise ZeroVarianceError("zero variance input")
    r = float((dx * dy).mean()) / (math.sqrt(vx) * math.sqrt(vy))
    return min(max(r, -1.0), 1.0)


def rbf(x: np.ndarray, y: np.ndarray, params: RbfParams = RbfParams()) -> float:
    """Gaussian radial-basis similarity exp(-||x - y||^2 / (2 gamma^2)) in (0, 1]."""
    x, y = require_pair(x, y)
    d = x.astype(np.float64) - y.astype(np.float64)
    d2 = float((d * d).sum())
    gamma = params.gamma if params.gamma is not None else math.sqrt(x.size) / 2.0
    return math.exp(-d2 / (2.0 * gamma * gamma))


def similarity(
    kind: SimilarityKind,
    x: np.ndarray,
    y: np.ndarray,
    *,
    hist: HistogramSpec = HistogramSpec(),
    rbf_params: RbfParams = RbfParams(),
) -> float:
    if kind is SimilarityKind.NMI:
        return nmi(x, y, hist)
    if kind is SimilarityKind.PCC:
        return pcc(x, y)
    if kind is SimilarityKind.RBF:
        return rbf(x, y, rbf_params)
    raise ValueError(f"unknown similarity kind: {kind}")


def to_weight(kind: SimilarityKind, score: float) -> float:
    """Map a raw similarity score onto a [0, 1] pair weight (PCC clamps negatives to 0)."""
    if kind is SimilarityKind.PCC:
        return max(0.0, score)
    return score
