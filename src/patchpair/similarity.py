"""Similarity metrics between equally sized images: NMI, PCC, RBF.

NMI uses plug-in estimates from a uniform joint histogram and natural
logarithms throughout. Each of H_x, H_y and H_xy is computed from the sorted
nonzero counts of the joint table, so it depends only on the multiset of
counts: every metric here is *bitwise* symmetric in its two arguments, and
nmi(x, x) is exactly 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .imgvol import require_pair
from .losses import _REDUCE_BLOCK


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
        if not -math.inf < lo < hi < math.inf:
            raise ValueError(f"degenerate histogram range: need finite lo < hi, got {self.value_range!r}")


@dataclass(frozen=True)
class RbfParams:
    """gamma=None picks sqrt(n_pixels)/2 for the patch at hand."""

    gamma: float | None = None

    def __post_init__(self):
        # rbf divides by 2 * gamma * gamma, which underflows to 0 for tiny gamma
        if self.gamma is not None and not (0 < self.gamma < math.inf and 2.0 * self.gamma * self.gamma > 0):
            raise ValueError(f"gamma must be positive and finite with 2 * gamma**2 > 0, got {self.gamma!r}")


def _codes(img: np.ndarray, spec: HistogramSpec) -> np.ndarray:
    """Flat bin index of every pixel; x * bins + y codes the joint bin of a pair."""
    lo, hi = spec.value_range
    scaled = (np.asarray(img, dtype=np.float64).ravel() - lo) * (spec.bins / (hi - lo))
    idx = np.floor(scaled).astype(np.int64)
    # out-of-range values land in the edge bins
    return np.minimum(np.maximum(idx, 0, out=idx), spec.bins - 1, out=idx)  # np.clip's integers, without its wrapper


def joint_histogram(x: np.ndarray, y: np.ndarray, spec: HistogramSpec = HistogramSpec()) -> np.ndarray:
    """Read-only (bins, bins) int64 counts of co-occurring bin pairs over all pixels."""
    x, y = require_pair(x, y)
    flat = _codes(x, spec) * spec.bins + _codes(y, spec)
    counts = np.bincount(flat, minlength=spec.bins * spec.bins).reshape(spec.bins, spec.bins)
    counts.setflags(write=False)
    return counts


def entropy(marginal) -> float:
    """Shannon entropy in nats of a probability vector, with 0*ln(0) := 0."""
    p = np.asarray(marginal, dtype=np.float64).ravel()
    if p.size == 0 or (p < 0).any():
        raise ValueError("invalid distribution: negative or empty")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError(f"invalid distribution: sums to {float(p.sum())!r}")
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


_TABLE_MAX_N = 2**20  # a table holds 8 (n + 1) bytes; a larger n takes its terms per count


@functools.lru_cache(maxsize=4)
def _plogp_table(n) -> np.ndarray:
    """Read-only (c/n) ln(c/n) for c = 0 ... n (entry 0 is 0): each count's entropy term, bit for bit."""
    p = np.arange(1, n + 1) / n
    table = np.concatenate(([0.0], p * np.log(p)))
    table.setflags(write=False)
    return table


def _count_entropy(counts: np.ndarray, n) -> float:
    """Entropy of counts / n from the sorted nonzero counts, so it depends only on their multiset."""
    c = np.sort(counts[counts > 0])
    terms = _plogp_table(n)[c] if n <= _TABLE_MAX_N else (c / n) * np.log(c / n)
    return float(-terms.sum())


def _code_entropy(codes: np.ndarray) -> float:
    """Entropy of the empirical distribution of a code vector."""
    return _count_entropy(np.bincount(codes), codes.size)


def _entropies(counts: np.ndarray):
    """H_x, H_y and H_xy of a joint count table."""
    n = counts.sum()
    return tuple(_count_entropy(c, n) for c in (counts.sum(axis=1), counts.sum(axis=0), counts.ravel()))


def mutual_information(counts: np.ndarray) -> float:
    """Plug-in mutual information H_x + H_y - H_xy in nats of a joint count table."""
    if counts.dtype.kind not in "iu" or (counts < 0).any():
        raise ValueError(f"counts must be nonnegative integers, got a {counts.dtype} table")
    hx, hy, hxy = _entropies(counts)
    return hx + hy - hxy


def _nmi(hx: float, hy: float, hxy: float) -> float:
    """2*I/(H_x + H_y) clamped to [0, 1]; 0 when both marginals are constant."""
    if hx + hy == 0.0:
        return 0.0
    return min(max(2.0 * (hx + hy - hxy) / (hx + hy), 0.0), 1.0)


def nmi(x: np.ndarray, y: np.ndarray, spec: HistogramSpec = HistogramSpec()) -> float:
    """Normalized mutual information 2*I/(H_x + H_y) in [0, 1]; 0 for two constant patches."""
    x, y = require_pair(x, y)
    bx, by = _codes(x, spec), _codes(y, spec)
    return _nmi(_code_entropy(bx), _code_entropy(by), _code_entropy(bx * spec.bins + by))


def _centred_rows(images):
    """(d, v, screenable) of equally shaped images: row k of the (n, P) float64 stack d holds images[k]'s
    deviations from its mean and v[k] their mean square; screenable[k] says whether every nonzero |d[k]|
    lies in [2**-400, 2**400], so that no product of two deviations underflows or overflows and matching's
    PCC screen bound holds. Rows go through in blocks of about _REDUCE_BLOCK elements, so each temporary
    is one block; a row's mean and mean square are numpy's pairwise sums over the contiguous row."""
    d = np.array(images, dtype=np.float64).reshape(len(images), -1)
    n, p = d.shape
    v, screenable = np.empty(n), np.empty(n, dtype=bool)
    k = max(1, _REDUCE_BLOCK // p)
    buf = np.empty((min(k, n), p))
    for lo in range(0, n, k):
        b = d[lo : lo + k]
        b -= b.mean(axis=1)[:, None]
        a = np.multiply(b, b, out=buf[: len(b)])
        v[lo : lo + k] = a.mean(axis=1)
        a = np.abs(b, out=a)
        a[a == 0.0] = 1.0  # a zero deviation is exact in every product
        screenable[lo : lo + k] = (a.min(axis=1) >= 2.0**-400) & (a.max(axis=1) <= 2.0**400)
    return d, v, screenable


def pcc(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation of pixel intensities (population statistics), in [-1, 1]."""
    (dx, dy), (vx, vy), _ = _centred_rows(require_pair(x, y))
    if vx == 0.0 or vy == 0.0:
        raise ZeroVarianceError("zero variance input")
    return _pcc_centred(dx, vx, dy, vy)


def _pcc_centred(dx: np.ndarray, vx: float, dy: np.ndarray, vy: float) -> float:
    """pcc from two images' ``_centred_rows`` deviations and nonzero mean squares."""
    r = float((dx * dy).mean()) / (math.sqrt(vx) * math.sqrt(vy))
    return min(max(r, -1.0), 1.0)


def rbf(x: np.ndarray, y: np.ndarray, params: RbfParams = RbfParams()) -> float:
    """Gaussian radial-basis similarity exp(-||x - y||^2 / (2 gamma^2)) in (0, 1]."""
    x, y = require_pair(x, y)
    d = x.astype(np.float64) - y.astype(np.float64)
    return _rbf_d2(float((d * d).sum()), x.size, params)


def _rbf_d2(d2: float, pixels: int, params: RbfParams) -> float:
    """rbf from a pair's squared distance ||x - y||^2 and its pixel count."""
    gamma = params.gamma if params.gamma is not None else math.sqrt(pixels) / 2.0
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
