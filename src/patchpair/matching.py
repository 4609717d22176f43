"""Three-level LR/HR patch matching, manifests, and weight statistics.

Matching proceeds patient -> slice -> patch, each level an argmax of the
configured similarity metric; the patient and/or slice levels can be dropped,
down to the exhaustive search over every candidate patch. All ties break
lexicographically by (patient_id, slice, row, col), so identical inputs give
byte-identical manifests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .imgvol import Dataset, PatchRef, Volume, require_image
from .similarity import (
    HistogramSpec,
    RbfParams,
    SimilarityKind,
    ZeroVarianceError,
    _centred,
    _code_entropy,
    _codes,
    _nmi,
    similarity,
    to_weight,
)

MANIFEST_FORMAT = "patchpair-manifest/1"


class MatchLevels(Enum):
    HIERARCHICAL = "hierarchical"
    SLICE_AND_PATCH = "slice-patch"
    PATCH_ONLY = "patch-only"


class FingerprintMismatchWarning(UserWarning):
    """A manifest was recorded against different dataset content."""


@dataclass(frozen=True)
class MatchConfig:
    patch_size: int = 128
    stride: int = 64
    metric: SimilarityKind = SimilarityKind.NMI
    hist: HistogramSpec = HistogramSpec()
    rbf: RbfParams = RbfParams()
    threshold: float = 0.4
    levels: MatchLevels = MatchLevels.HIERARCHICAL

    def __post_init__(self):
        if not 0 < self.stride <= self.patch_size:
            raise ValueError("need 0 < stride <= patch_size")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")

    def to_dict(self) -> dict:
        return {
            "patch_size": self.patch_size,
            "stride": self.stride,
            "metric": self.metric.value,
            "bins": self.hist.bins,
            "value_range": list(self.hist.value_range),
            "gamma": self.rbf.gamma,
            "threshold": self.threshold,
            "levels": self.levels.value,
        }

    @staticmethod
    def from_dict(d: dict) -> "MatchConfig":
        return MatchConfig(
            patch_size=int(d["patch_size"]),
            stride=int(d["stride"]),
            metric=SimilarityKind(d["metric"]),
            hist=HistogramSpec(bins=int(d["bins"]), value_range=tuple(d["value_range"])),
            rbf=RbfParams(gamma=d["gamma"]),
            threshold=float(d["threshold"]),
            levels=MatchLevels(d["levels"]),
        )


@dataclass(frozen=True)
class MatchRecord:
    lr: PatchRef
    hr: PatchRef
    weight: float

    def __post_init__(self):
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"weight {self.weight} outside [0, 1]")


@dataclass
class Manifest:
    records: list
    config: MatchConfig
    lr_fingerprint: str
    hr_fingerprint: str


@dataclass(frozen=True, eq=False)
class MatchStats:
    bin_edges: np.ndarray  # (bins + 1,)
    counts: np.ndarray  # (bins,)
    mean: float
    weights: np.ndarray

    def fraction_in(self, lo: float, hi: float) -> float:
        """Fraction of weights in the closed interval [lo, hi]."""
        return float(((self.weights >= lo) & (self.weights <= hi)).mean())


def dataset_fingerprint(ds: Dataset) -> str:
    """Content hash over label, patient ids, dimensions and raw pixel bytes."""
    h = hashlib.sha256()
    h.update(ds.label.encode())
    for v in ds.volumes:
        h.update(v.patient_id.encode())
        h.update(np.int64(v.data.shape).tobytes())
        h.update(v.data.astype("<f4").tobytes())
    return "sha256:" + h.hexdigest()


def patch_grid(h: int, w: int, size: int, stride: int):
    """Top-left corners covering the image: stride multiples plus a final
    flush-to-border position on each axis, deduplicated and sorted."""
    if size > h or size > w:
        raise ValueError(f"patch size {size} exceeds image dims {h}x{w}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    rows = sorted(set(range(0, h - size + 1, stride)) | {h - size})
    cols = sorted(set(range(0, w - size + 1, stride)) | {w - size})
    return [(r, c) for r in rows for c in cols]


def _windows(img: np.ndarray, grid, size: int):
    """((row, col), view) of the size x size window of img at each grid position."""
    return [((r, c), img[r : r + size, c : c + size]) for r, c in grid]


def _hr_windows(patient_id: str, slice_index: int, img: np.ndarray, grid, size: int):
    """(PatchRef, view) of each grid window of one HR slice."""
    return [(PatchRef(patient_id, slice_index, r, c, size), win) for (r, c), win in _windows(img, grid, size)]


def _argmax(query: np.ndarray, candidates, cfg: MatchConfig):
    """(key, score) of the candidate image most similar to the query.

    Candidates are (key, image) pairs in lexicographic key order; keeping the
    first strict maximum sends every tie to the smallest key.
    """
    best_key, best = None, -np.inf
    for key, image in candidates:
        try:
            s = float(similarity(cfg.metric, query, image, hist=cfg.hist, rbf_params=cfg.rbf))
        except ZeroVarianceError:
            s = -1.0  # degenerate PCC candidates rank below every valid correlation
        if s > best:
            best_key, best = key, s
    return best_key, best


def _screenable(d: np.ndarray) -> bool:
    """Whether every nonzero |d| lies in [2**-400, 2**400], so that no product
    of two deviations underflows or overflows and the screen's bound holds."""
    a = np.abs(d[d != 0.0])
    return a.size == 0 or (a.min() >= 2.0**-400 and a.max() <= 2.0**400)


class _Candidates:
    """One match level's (key, image) candidates, prepared once and queried
    for many LR images; ``best(query)`` is ``_argmax``'s (key, score), bit for bit.

    NMI bins each candidate and takes its marginal entropy once, so a pair
    costs one joint bincount. PCC keeps each candidate's centred pixels and
    variance, screens every candidate with one matrix-vector product and
    re-scores through ``_argmax`` only those the screen cannot rule out.
    RBF runs the scalar loop.
    """

    def __init__(self, candidates, cfg: MatchConfig):
        self.keys, self.images = map(list, zip(*candidates))
        shape = require_image(self.images[0]).shape
        for img in self.images[1:]:
            if require_image(img).shape != shape:
                raise ValueError(f"dimension mismatch: {shape} vs {np.shape(img)}")
        self.cfg = cfg
        if cfg.metric is SimilarityKind.NMI:
            self.codes = [_codes(img, cfg.hist) for img in self.images]
            self.entropies = [_code_entropy(c) for c in self.codes]
        elif cfg.metric is SimilarityKind.PCC:
            self.d = np.empty((len(self.images), self.images[0].size))
            vy = np.empty(len(self.images))
            for k, img in enumerate(self.images):
                self.d[k], vy[k] = _centred(img)
            self.flat = vy == 0.0  # pcc raises ZeroVarianceError: the pair scores -1
            self.sy = np.sqrt(np.where(self.flat, 1.0, vy))
            self.screenable = all(map(_screenable, self.d))  # row by row: no stack-sized copy

    def best(self, query: np.ndarray):
        query = require_image(query)  # __init__ validated every candidate
        if query.shape != self.images[0].shape:
            raise ValueError(f"dimension mismatch: {query.shape} vs {self.images[0].shape}")
        if self.cfg.metric is SimilarityKind.NMI:
            bx = _codes(query, self.cfg.hist)
            hx, jx = _code_entropy(bx), bx * self.cfg.hist.bins
            scores = np.array([_nmi(hx, hy, _code_entropy(jx + by)) for by, hy in zip(self.codes, self.entropies)])
            k = int(np.argmax(scores))  # the first maximum: ties go to the smallest key
            return self.keys[k], float(scores[k])
        if self.cfg.metric is SimilarityKind.PCC:
            dx, vx = _centred(query)
            if vx == 0.0:
                return self.keys[0], -1.0  # every pair raises ZeroVarianceError and scores -1
            if self.screenable and _screenable(dx):
                # Screen bound (u = eps / 2, P pixels). pcc's cross term is numpy's
                # pairwise mean of dx * dy; the screen's is a BLAS dot, in any order
                # and perhaps with FMA. Each sum is within P u / (1 - P u) times
                # sum |dx_i dy_i| of the exact one, and Cauchy-Schwarz bounds that
                # sum by P sqrt(vx vy), up to 1 + O(P u) from rounding vx and vy. So
                # the cross terms differ by about P eps in r units; the divisions by
                # P and by sqrt(vx) sqrt(vy) add two roundings per side (2 eps), and
                # clamping to [-1, 1] does not widen the gap. Each screened score is
                # thus within delta = (P + 4) eps of pcc's, with room for the O(P u)
                # factors, while no product underflows or overflows (_screenable).
                # An exact maximiser m has s~_m >= s_m - delta >= s_j - delta >=
                # s~_j - 2 delta for the screen's best j, so re-scoring, in key order,
                # every candidate within 2 delta of the screen's best gives _argmax's
                # key and score.
                s = np.clip((self.d @ dx) / dx.size / (math.sqrt(vx) * self.sy), -1.0, 1.0)
                s[self.flat] = -1.0
                band = np.flatnonzero(s >= s.max() - 2.0 * (dx.size + 4) * np.finfo(np.float64).eps)
                return _argmax(query, [(self.keys[k], self.images[k]) for k in band], self.cfg)
        return _argmax(query, zip(self.keys, self.images), self.cfg)


def _mean_image(vol: Volume) -> np.ndarray:
    return vol.data.mean(axis=0, dtype=np.float64)


def _patients(hr_set: Dataset, cfg: MatchConfig) -> _Candidates:
    return _Candidates([(v.patient_id, _mean_image(v)) for v in hr_set.volumes], cfg)


def _slices(hr_vol: Volume):
    return [((hr_vol.patient_id, i), img) for i, img in enumerate(hr_vol.data)]


def match_patient(lr_vol: Volume, hr_set: Dataset, cfg: MatchConfig) -> str:
    """HR patient whose mean image (pixel-wise over slices) is most similar to
    the LR volume's mean image; ties go to the smallest patient_id."""
    return _patients(hr_set, cfg).best(_mean_image(lr_vol))[0]


def match_slice(lr_slice: np.ndarray, hr_vol: Volume, cfg: MatchConfig) -> int:
    """Index of the most similar slice in the HR volume; ties go to the smallest index."""
    return _Candidates(enumerate(hr_vol.data), cfg).best(lr_slice)[0]


def match_patch(
    lr_patch: np.ndarray,
    hr_slice: np.ndarray,
    cfg: MatchConfig,
    *,
    patient_id: str = "",
    slice_index: int = 0,
):
    """Best grid-position window of hr_slice for the query patch.

    Returns (PatchRef, weight) with ties broken by smallest (row, col).
    """
    size = lr_patch.shape[0]
    if lr_patch.shape[0] != lr_patch.shape[1]:
        raise ValueError("query patch must be square")
    h, w = hr_slice.shape
    grid = patch_grid(h, w, size, cfg.stride)
    ref, best = _Candidates(_hr_windows(patient_id, slice_index, hr_slice, grid, size), cfg).best(lr_patch)
    return ref, to_weight(cfg.metric, best)


def _patch_records(lr_vol: Volume, s_idx: int, windows: _Candidates, grid, cfg: MatchConfig):
    """One record per grid patch of LR slice s_idx, matched to its best HR window."""
    size = cfg.patch_size
    records = []
    for (r, c), patch in _windows(lr_vol.data[s_idx], grid, size):
        ref, best = windows.best(patch)
        records.append(MatchRecord(PatchRef(lr_vol.patient_id, s_idx, r, c, size), ref, to_weight(cfg.metric, best)))
    return records


def _validate_sets(lr_set: Dataset, hr_set: Dataset, cfg: MatchConfig):
    dims = {(v.height, v.width) for v in lr_set.volumes} | {(v.height, v.width) for v in hr_set.volumes}
    if len(dims) != 1:
        raise ValueError(f"datasets must have uniform dimensions, got {sorted(dims)}")
    if cfg.metric is SimilarityKind.NMI:
        lo, hi = cfg.hist.value_range
        for ds in (lr_set, hr_set):
            for v in ds.volumes:
                if v.data.min() < lo or v.data.max() > hi:
                    raise ValueError(
                        f"{ds.label} volume {v.patient_id!r} has pixels outside the histogram range [{lo}, {hi}]"
                    )
    return next(iter(dims))


def _manifest(records, cfg, lr_set, hr_set) -> Manifest:
    return Manifest(
        records=records,
        config=cfg,
        lr_fingerprint=dataset_fingerprint(lr_set),
        hr_fingerprint=dataset_fingerprint(hr_set),
    )


def match_hierarchical(lr_set: Dataset, hr_set: Dataset, cfg: MatchConfig) -> Manifest:
    """Run the matching workflow at the configured levels and collect all
    pre-threshold records, sorted by LR patch reference."""
    if cfg.levels is MatchLevels.PATCH_ONLY:
        return match_exhaustive(lr_set, hr_set, cfg)
    h, w = _validate_sets(lr_set, hr_set, cfg)
    size = cfg.patch_size
    grid = patch_grid(h, w, size, cfg.stride)
    # each level's candidates are prepared for the queries that use them, then dropped
    if cfg.levels is MatchLevels.HIERARCHICAL:
        patients = _patients(hr_set, cfg)
    else:  # SLICE_AND_PATCH: best slice across every HR patient
        slices = _Candidates([s for v in hr_set.volumes for s in _slices(v)], cfg)

    records = []
    for lr_vol in lr_set.volumes:
        if cfg.levels is MatchLevels.HIERARCHICAL:
            slices = _Candidates(_slices(hr_set.volume(patients.best(_mean_image(lr_vol))[0])), cfg)
        for s_idx, lr_slice in enumerate(lr_vol.data):
            (h_pid, h_idx), _ = slices.best(lr_slice)
            windows = _Candidates(_hr_windows(h_pid, h_idx, hr_set.volume(h_pid).data[h_idx], grid, size), cfg)
            records += _patch_records(lr_vol, s_idx, windows, grid, cfg)
    return _manifest(records, cfg, lr_set, hr_set)


def match_exhaustive(lr_set: Dataset, hr_set: Dataset, cfg: MatchConfig) -> Manifest:
    """Argmax over every HR patient, slice and grid position for each LR patch."""
    cfg = dataclasses.replace(cfg, levels=MatchLevels.PATCH_ONLY)  # the header records the search run
    h, w = _validate_sets(lr_set, hr_set, cfg)
    size = cfg.patch_size
    grid = patch_grid(h, w, size, cfg.stride)
    hr_windows = _Candidates(
        [win for v in hr_set.volumes for i, img in enumerate(v.data) for win in _hr_windows(v.patient_id, i, img, grid, size)],
        cfg,
    )
    records = []
    for lr_vol in lr_set.volumes:
        for s_idx in range(lr_vol.n_slices):
            records += _patch_records(lr_vol, s_idx, hr_windows, grid, cfg)
    return _manifest(records, cfg, lr_set, hr_set)


def filter_threshold(m: Manifest, tau: float) -> Manifest:
    """Keep records with weight strictly greater than tau; order preserved."""
    return dataclasses.replace(
        m,
        config=dataclasses.replace(m.config, threshold=tau),  # MatchConfig rejects tau outside [0, 1]
        records=[r for r in m.records if r.weight > tau],
    )


def weight_stats(m: Manifest, bins: int = 20) -> MatchStats:
    """Uniform weight histogram over [0, 1] plus the mean and range queries."""
    if not m.records:
        raise ValueError("no records")
    w = np.array([r.weight for r in m.records], dtype=np.float64)
    w.setflags(write=False)
    counts, edges = np.histogram(w, bins=bins, range=(0.0, 1.0))
    return MatchStats(bin_edges=edges, counts=counts, mean=float(w.mean()), weights=w)


# PatchRef field -> manifest key, in PatchRef field order
_REF_KEYS = {"patient_id": "patient", "slice_index": "slice", "row": "row", "col": "col", "size": "size"}


def _ref_to_json(ref: PatchRef) -> str:
    return json.dumps({key: getattr(ref, field) for field, key in _REF_KEYS.items()})


def _ref_from_obj(obj: dict) -> PatchRef:
    patient, *ints = (obj[key] for key in _REF_KEYS.values())
    return PatchRef(patient, *map(int, ints))


def manifest_to_bytes(m: Manifest) -> bytes:
    """Line-delimited serialization: one header line, then one record per line.

    Weights carry 17 significant digits so every float64 round-trips bit-exactly.
    """
    header = {
        "format": MANIFEST_FORMAT,
        "config": m.config.to_dict(),
        "lr_fingerprint": m.lr_fingerprint,
        "hr_fingerprint": m.hr_fingerprint,
    }
    lines = [json.dumps(header)]
    for r in m.records:
        lines.append(
            '{"lr": %s, "hr": %s, "weight": %s}'
            % (_ref_to_json(r.lr), _ref_to_json(r.hr), format(r.weight, ".17g"))
        )
    return ("\n".join(lines) + "\n").encode("ascii")


def write_manifest(m: Manifest, path) -> None:
    Path(path).write_bytes(manifest_to_bytes(m))


def read_manifest(path, *, lr_fingerprint: str = None, hr_fingerprint: str = None) -> Manifest:
    """Parse a manifest file; malformed lines raise with their line number.

    Every record's LR and HR patches have the header's patch size, and the LR
    refs strictly increase by (patient, slice, row, col): no repeats, in order.

    When expected fingerprints are supplied, a mismatch emits
    FingerprintMismatchWarning rather than failing.
    """
    path = Path(path)
    text = path.read_text()
    lines = text.splitlines()
    if not lines:
        raise ValueError(f"{path}: parse error at line 1: empty manifest file")
    try:
        header = json.loads(lines[0])
        config = MatchConfig.from_dict(header["config"])
        lr_fp = header["lr_fingerprint"]
        hr_fp = header["hr_fingerprint"]
        if header.get("format") != MANIFEST_FORMAT:
            raise KeyError("format")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
        raise ValueError(f"{path}: parse error at line 1: bad header ({e})") from e
    records = []
    last = None  # the previous record's LR (patient, slice, row, col)
    for n, line in enumerate(lines[1:], start=2):
        try:
            obj = json.loads(line)
            rec = MatchRecord(
                lr=_ref_from_obj(obj["lr"]),
                hr=_ref_from_obj(obj["hr"]),
                weight=float(obj["weight"]),
            )
            for side, ref in (("lr", rec.lr), ("hr", rec.hr)):
                if ref.size != config.patch_size:
                    raise ValueError(f"{side} size {ref.size} differs from the header's patch_size {config.patch_size}")
            key = (rec.lr.patient_id, rec.lr.slice_index, rec.lr.row, rec.lr.col)
            if last is not None and key <= last:
                raise ValueError(f"LR ref {key} is not after the previous record's {last}")
            last = key
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
            raise ValueError(f"{path}: parse error at line {n}: {e}") from e
        records.append(rec)
    if lr_fingerprint is not None and lr_fingerprint != lr_fp:
        warnings.warn(f"{path}: LR dataset fingerprint mismatch", FingerprintMismatchWarning)
    if hr_fingerprint is not None and hr_fingerprint != hr_fp:
        warnings.warn(f"{path}: HR dataset fingerprint mismatch", FingerprintMismatchWarning)
    return Manifest(records=records, config=config, lr_fingerprint=lr_fp, hr_fingerprint=hr_fp)
