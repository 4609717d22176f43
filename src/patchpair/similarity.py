"""Similarity metrics between equally sized images: NMI, PCC, RBF, and the
prepared candidate sets (``_Candidates``) that matching scores with them.

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

from .imgvol import _REDUCE_BLOCK, require_pair


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
    scaled = np.subtract(img, lo, dtype=np.float64, order="C").ravel()  # a new array: img is never written
    scaled *= spec.bins / (hi - lo)
    idx = np.floor(scaled, out=scaled).astype(np.int64)
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
    """Entropy of counts / n from the sorted nonzero counts, so it depends only on their multiset. Sorts the 1-D
    counts in place: callers pass an array of their own."""
    counts.sort()  # integers: any sort algorithm gives the same array, zeros first
    c = counts[counts.size - np.count_nonzero(counts) :]
    terms = _plogp_table(n)[c] if n <= _TABLE_MAX_N else (c / n) * np.log(c / n)
    return float(-np.add.reduce(terms))


def _code_entropy(codes: np.ndarray) -> float:
    """Entropy of the empirical distribution of a code vector."""
    return _count_entropy(np.bincount(codes), codes.size)


def _entropies(counts: np.ndarray):
    """H_x, H_y and H_xy of a joint count table."""
    n = counts.sum()
    return tuple(_count_entropy(c, n) for c in (counts.sum(axis=1), counts.sum(axis=0), counts.flatten()))


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


def _centred_rows(images, out=None):
    """(d, v) of equally shaped images: row k of the (n, P) float64 stack d holds images[k]'s deviations
    from its mean and v[k] their mean square. A constant image's deviations are exact zeros, although
    its float64 mean need not round to its value. d is out when given, a C-contiguous float64 array of
    n * P elements, and a new array otherwise. Rows go through in blocks of about _REDUCE_BLOCK
    elements, and one reused block holds each block's squares; a row's mean and mean square are
    numpy's pairwise sums over the contiguous row. PCC is scale-free: a row whose largest magnitude lies
    outside [2**-300, 2**300) is first multiplied by the power of two that takes it into [0.5, 1)."""
    shape = (len(images), *np.shape(images[0]))
    d = np.stack(images, out=np.empty(shape) if out is None else out.reshape(shape)).reshape(len(images), -1)
    n, p = d.shape
    v = np.empty(n)
    k = max(1, _REDUCE_BLOCK // p)
    sq = np.empty((min(k, n), p))
    for lo in range(0, n, k):
        b = d[lo : lo + k]
        hi, low = b.max(axis=1), b.min(axis=1)
        e = np.frexp(np.maximum(hi, -low))[1]  # largest magnitude f * 2**e, 0.5 <= f < 1; a zero row has e = 0
        far = (e < -299) | (e > 300)  # outside [2**-300, 2**300)
        if far.any():
            b[far] = np.ldexp(b[far], -e[far, None])
        b -= np.where(hi == low, b[:, 0], b.mean(axis=1))[:, None]
        v[lo : lo + k] = np.multiply(b, b, out=sq[: len(b)]).mean(axis=1)
    return d, v


def pcc(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation of pixel intensities (population statistics), in [-1, 1]."""
    x, y = require_pair(x, y)
    (dx, dy), (vx, vy) = _centred_rows((x, y))
    if vx == 0.0 or vy == 0.0:
        raise ZeroVarianceError("zero variance input")
    r = float((dx * dy).mean()) / (math.sqrt(vx) * math.sqrt(vy))
    return min(max(r, -1.0), 1.0)


def rbf(x: np.ndarray, y: np.ndarray, params: RbfParams = RbfParams()) -> float:
    """Gaussian radial-basis similarity exp(-||x - y||^2 / (2 gamma^2)) in (0, 1]."""
    x, y = require_pair(x, y)
    d = x - y
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


class _Candidates:
    """One match level's (key, image) candidates, prepared once and queried for many LR images:
    ``best_many(queries)`` is each query's first most similar (key, score), bit for bit as ``similarity``.

    NMI bins each candidate and takes its marginal entropy once, so a pair
    costs one joint bincount. PCC keeps each candidate's centred pixels and
    mean square, screens a whole batch of queries with one matrix product and
    scores, from those cached rows, only the candidates the screen cannot
    rule out. RBF keeps each candidate's pixels as one float64 row and sums a
    pair's squared distance over the row, as ``rbf`` does.

    ``cfg`` is a ``matching.MatchConfig``; only its metric, hist and rbf are
    read. Every image is a Volume's slice, a window of one or a mean image, so
    it is finite and 2-D, and matching has checked that every shape is the same.
    """

    def __init__(self, candidates, cfg):
        self.keys, images = map(list, zip(*candidates))
        self.cfg = cfg
        if cfg.metric is SimilarityKind.NMI:
            self.codes = [_codes(img, cfg.hist) for img in images]
            self.entropies = [_code_entropy(c) for c in self.codes]
        elif cfg.metric is SimilarityKind.PCC:
            self.d, v = _centred_rows(images)
            self.flat = v == 0.0
            self.sy = np.sqrt(np.where(self.flat, 1.0, v))
            self.query_block = np.empty((0, self.d.shape[1]))  # reused by every chunk of queries
        else:
            self.rows = np.array(images, dtype=np.float64).reshape(len(images), -1)

    def best_many(self, queries):
        queries = list(queries)
        if self.cfg.metric is SimilarityKind.PCC:
            cap = min(self.d.shape)  # a chunk's centred queries and screen scores never outgrow the stack
            return [r for lo in range(0, len(queries), cap) for r in self._best_pcc(queries[lo : lo + cap])]
        scores = self._nmi_scores if self.cfg.metric is SimilarityKind.NMI else self._rbf_scores
        return [self._first_max(scores(query)) for query in queries]

    def _first_max(self, scores):  # one query's scores in key order
        k = int(np.argmax(scores))  # the first maximum: ties go to the smallest key
        return self.keys[k], float(scores[k])

    def _nmi_scores(self, query: np.ndarray):
        bx = _codes(query, self.cfg.hist)
        hx, jx = _code_entropy(bx), bx * self.cfg.hist.bins
        return [_nmi(hx, hy, _code_entropy(jx + by)) for by, hy in zip(self.codes, self.entropies)]

    def _rbf_scores(self, query: np.ndarray):
        n, p = self.rows.shape
        x, d2 = query.astype(np.float64).ravel(), np.empty(n)
        k = max(1, _REDUCE_BLOCK // p)  # rows per block, so each temporary is one block
        for lo in range(0, n, k):
            d = x - self.rows[lo : lo + k]
            d2[lo : lo + k] = (d * d).sum(axis=1)  # numpy's pairwise sum over each contiguous row, as rbf's
        return [_rbf_d2(float(t), p, self.cfg.rbf) for t in d2]

    def _best_pcc(self, queries):
        if len(queries) > len(self.query_block):  # the block has as many rows as the largest chunk so far
            self.query_block = np.empty((len(queries), self.d.shape[1]))
        dq, vq = _centred_rows(queries, out=self.query_block[: len(queries)])
        # Screen bound (u = eps / 2, P < 2**60 pixels; a flat candidate or query scores -1). _centred_rows puts each
        # row's largest magnitude in [2**-300, 2**300), so a non-flat row has 2**-768 < v < 2**602: its range is at
        # least 2**-353 and below 2**301. pcc's cross term is numpy's pairwise mean of dx * dy, the screen's
        # a BLAS dot in any order, maybe with FMA. No product or partial sum overflows: |d_i| < 2**301. Each sum is
        # within P u / (1 - P u) times sum |dx_i dy_i| of the exact one, which Cauchy-Schwarz bounds by P sqrt(vx vy)
        # up to 1 + O(P u): about P eps in r units. A product, FMA or add that underflows, is flushed or reads a flushed
        # subnormal loses at most 2**-1022 (1 + |dx_i| + |dy_i|) more: by Cauchy-Schwarz under 2**-250 in r units per
        # sum, as vx, vy > 2**-768. Dividing by P and by sqrt(vx) sqrt(vy) adds two roundings per side (2 eps);
        # clamping does not widen the gap. So each screen score is within delta = (P + 5) eps of pcc's, and an exact
        # maximiser m has s~_m >= s_m - delta >= s_j - delta >= s~_j - 2 delta for the screen's best j: scoring, in key
        # order, every candidate within 2 delta of it gives the exact maximum.
        p, sq = self.d.shape[1], np.sqrt(np.where(vq == 0.0, 1.0, vq))
        s = self.d @ dq.T  # one GEMM screens the chunk; a flat query's column is 0
        s /= p  # then / (sy sq) in place, a quarter block of denominators at a time: no candidates x chunk temporary
        k = max(1, _REDUCE_BLOCK // (4 * len(queries)))
        for lo in range(0, len(s), k):
            s[lo : lo + k] /= self.sy[lo : lo + k, None] * sq
        np.clip(s, -1.0, 1.0, out=s)
        s[self.flat] = s[:, vq == 0.0] = -1.0
        tol = 2.0 * (p + 5) * np.finfo(np.float64).eps
        band = (s >= s.max(axis=0) - tol).T
        del s
        flat = band & (self.flat | (vq == 0.0)[:, None])  # pcc raises ZeroVarianceError: such a pair scores -1.0
        best = np.where(flat.any(axis=1), -1.0, -np.inf)  # each query's first maximum so far, and its key
        first = flat.argmax(axis=1)
        band &= ~flat
        del flat
        # Score the other band pairs exactly, in (query, key) order and m pairs at a time: one reused block
        # of about _REDUCE_BLOCK elements holds a block's query rows and candidate rows, and np.add.reduce
        # over each contiguous row of their products is numpy's pairwise sum, as pcc's mean. np.nonzero
        # lists the pairs of a group of queries whose bands end within m pairs of each other (a group may be
        # empty), so no index array outgrows m + candidates.
        m = max(1, _REDUCE_BLOCK // (2 * p))
        ends = np.cumsum(band.sum(axis=1))
        cuts = np.searchsorted(ends, np.arange(m, ends[-1] + m, m), side="right")
        buf = np.empty((2, min(m, ends[-1]), p))
        for a, b in zip([0, *cuts[:-1]], cuts):
            rows, cols = np.nonzero(band[a:b])
            for lo in range(0, rows.size, m):
                q, c = rows[lo : lo + m] + a, cols[lo : lo + m]
                g = np.take(dq, q, axis=0, out=buf[0, : q.size], mode="clip")  # "clip" takes straight into out
                g *= np.take(self.d, c, axis=0, out=buf[1, : q.size], mode="clip")
                r = np.add.reduce(g, axis=1) / p / (sq[q] * self.sy[c])
                r = np.minimum(np.maximum(r, -1.0, out=r), 1.0, out=r)
                lead = np.concatenate(([True], q[1:] != q[:-1]))
                win = np.lexsort((-r, q))[lead]  # each query's first maximum here: a stable sort keeps key order
                q, c, r = q[win], c[win], r[win]
                up = (r > best[q]) | ((r == best[q]) & (c < first[q]))  # ties go to the smaller key
                best[q[up]], first[q[up]] = r[up], c[up]
        return [(self.keys[i], score) for i, score in zip(first.tolist(), best.tolist())]
