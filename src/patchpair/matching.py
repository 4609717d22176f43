"""Three-level LR/HR patch matching, manifests, and weight statistics.

Matching proceeds patient -> slice -> patch, each level an argmax of the
configured similarity metric; the patient and/or slice levels can be dropped,
down to the exhaustive search over every candidate patch. All ties break
lexicographically by (patient_id, slice, row, col), so identical inputs give
byte-identical manifests.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import operator
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .imgvol import Dataset, PatchRef, Volume, _write_atomic, require_int, require_number
from .similarity import (
    HistogramSpec,
    RbfParams,
    SimilarityKind,
    _Candidates,
    similarity,  # not called here: perfbench's tracer counts evaluations at matching.similarity
    to_weight,
)

MANIFEST_FORMAT = "patchpair-manifest/1"


class MatchLevels(Enum):
    HIERARCHICAL = "hierarchical"
    SLICE_AND_PATCH = "slice-patch"
    PATCH_ONLY = "patch-only"


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
        value_range = tuple(require_number(v, "value_range") for v in d["value_range"])
        return MatchConfig(
            patch_size=require_int(d["patch_size"], "patch_size"),
            stride=require_int(d["stride"], "stride"),
            metric=SimilarityKind(d["metric"]),
            hist=HistogramSpec(bins=require_int(d["bins"], "bins"), value_range=value_range),
            rbf=RbfParams(gamma=None if d["gamma"] is None else require_number(d["gamma"], "gamma")),
            threshold=float(require_number(d["threshold"], "threshold")),
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
        h.update(np.ascontiguousarray(v.data, dtype="<f4"))  # C-order bytes, copied only when v.data is not
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


def _windows(vol: Volume, slices, grid, size: int):
    """(PatchRef, view) of the size x size window at each grid position of each of vol's given slices."""
    pid = vol.patient_id
    return [(PatchRef(pid, i, r, c, size), vol.data[i, r : r + size, c : c + size]) for i in slices for r, c in grid]


def _mean_image(vol: Volume) -> np.ndarray:
    return vol.data.mean(axis=0, dtype=np.float64)


def _slices(hr_vol: Volume):
    return [((hr_vol, i), img) for i, img in enumerate(hr_vol.data)]


def _patch_records(lr_vol: Volume, slices, windows: _Candidates, grid, cfg: MatchConfig):
    """One record per grid patch of each of lr_vol's slices, matched to its best HR window."""
    refs, views = zip(*_windows(lr_vol, slices, grid, cfg.patch_size))
    return [MatchRecord(lr, hr, to_weight(cfg.metric, best)) for lr, (hr, best) in zip(refs, windows.best_many(views))]


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


def match_hierarchical(lr_set: Dataset, hr_set: Dataset, cfg: MatchConfig) -> Manifest:
    """Run the matching workflow at the configured levels and collect all
    pre-threshold records, sorted by LR patch reference."""
    h, w = _validate_sets(lr_set, hr_set, cfg)
    size = cfg.patch_size
    grid = patch_grid(h, w, size, cfg.stride)
    # each level's candidates are prepared for the queries that use them, then dropped
    if cfg.levels is MatchLevels.HIERARCHICAL:
        hr_means = [(v, _mean_image(v)) for v in hr_set.volumes]
        patients = _Candidates(hr_means, cfg).best_many(_mean_image(v) for v in lr_set.volumes)
    elif cfg.levels is MatchLevels.SLICE_AND_PATCH:  # best slice across every HR patient
        slices = _Candidates([s for v in hr_set.volumes for s in _slices(v)], cfg)
    else:  # PATCH_ONLY: best window across every HR slice
        windows = _Candidates([win for v in hr_set.volumes for win in _windows(v, range(v.n_slices), grid, size)], cfg)

    records = []
    for i, lr_vol in enumerate(lr_set.volumes):
        if cfg.levels is MatchLevels.PATCH_ONLY:  # one batch of queries per LR volume
            records += _patch_records(lr_vol, range(lr_vol.n_slices), windows, grid, cfg)
            continue
        if cfg.levels is MatchLevels.HIERARCHICAL:
            slices = _Candidates(_slices(patients[i][0]), cfg)
        for s_idx, ((hr_vol, h_idx), _) in enumerate(slices.best_many(lr_vol.data)):
            windows = _Candidates(_windows(hr_vol, [h_idx], grid, size), cfg)
            records += _patch_records(lr_vol, [s_idx], windows, grid, cfg)
    return Manifest(records, cfg, dataset_fingerprint(lr_set), dataset_fingerprint(hr_set))


def match_exhaustive(lr_set: Dataset, hr_set: Dataset, cfg: MatchConfig) -> Manifest:
    """Argmax over every HR patient, slice and grid position for each LR patch:
    the patch-only level, which the manifest header records."""
    return match_hierarchical(lr_set, hr_set, dataclasses.replace(cfg, levels=MatchLevels.PATCH_ONLY))


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


def _ref_to_json(ref: PatchRef, quote=json.dumps) -> str:
    """json.dumps of the ref's _REF_KEYS object, for a str patient id and int fields, without the dict;
    quote(patient_id) is the id's JSON string."""
    return '{"patient": %s, "slice": %d, "row": %d, "col": %d, "size": %d}' % (
        quote(ref.patient_id), ref.slice_index, ref.row, ref.col, ref.size
    )


_ref_fields = operator.itemgetter(*_REF_KEYS.values())
_REF_TYPES = (str, int, int, int, int)  # exact types: a bool or a float fails, as in require_int


def _ref_from_obj(obj: dict) -> PatchRef:
    try:
        fields = _ref_fields(obj)
    except KeyError:
        fields = ()
    if tuple(map(type, fields)) == _REF_TYPES:
        return PatchRef(*fields)
    # a missing key or a wrong type: read the keys in order and raise for the first that fails
    patient, *int_keys = _REF_KEYS.values()
    if not isinstance(obj[patient], str):
        raise ValueError(f"{patient} must be a JSON string, got {obj[patient]!r}")
    return PatchRef(obj[patient], *(require_int(obj[key], key) for key in int_keys))


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
    quote = functools.lru_cache(maxsize=None)(json.dumps)  # one json.dumps per distinct patient id, for this call
    for r in m.records:  # + 0.0 makes a -0.0 weight 0.0: "-0" would read back as 0.0 and be rewritten as "0"
        lines.append(
            '{"lr": %s, "hr": %s, "weight": %s}'
            % (_ref_to_json(r.lr, quote), _ref_to_json(r.hr, quote), format(r.weight + 0.0, ".17g"))
        )
    return ("\n".join(lines) + "\n").encode("ascii")


def write_manifest(m: Manifest, path) -> None:
    _write_atomic(Path(path), manifest_to_bytes(m))


def read_manifest(path) -> Manifest:
    """Parse a manifest file; malformed lines raise with their line number.

    Every record's LR and HR patches have the header's patch size, and the LR
    refs strictly increase by (patient, slice, row, col): no repeats, in order.
    """
    path = Path(path)
    raw = path.read_bytes()
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        n = len((raw[: e.start].decode("utf-8") + "x").splitlines())  # the line that holds byte e.start
        raise ValueError(f"{path}: parse error at line {n}: {e}") from e
    if not lines:
        raise ValueError(f"{path}: parse error at line 1: empty manifest file")
    try:
        header = json.loads(lines[0])
        config = MatchConfig.from_dict(header["config"])
        lr_fp = header["lr_fingerprint"]
        hr_fp = header["hr_fingerprint"]
        if header.get("format") != MANIFEST_FORMAT:
            raise KeyError("format")
    except (KeyError, TypeError, ValueError, OverflowError) as e:  # OverflowError: a number past float's range
        raise ValueError(f"{path}: parse error at line 1: bad header ({e})") from e
    records = []
    last = None  # the previous record's LR (patient, slice, row, col)
    for n, line in enumerate(lines[1:], start=2):
        try:
            obj = json.loads(line)
            weight = float(require_number(obj["weight"], "weight"))  # the writer emits 1.0 and 0.0 as 1 and 0
            rec = MatchRecord(lr=_ref_from_obj(obj["lr"]), hr=_ref_from_obj(obj["hr"]), weight=weight)
            for side, ref in (("lr", rec.lr), ("hr", rec.hr)):
                if ref.size != config.patch_size:
                    raise ValueError(f"{side} size {ref.size} differs from the header's patch_size {config.patch_size}")
            key = (rec.lr.patient_id, rec.lr.slice_index, rec.lr.row, rec.lr.col)
            if last is not None and key <= last:
                raise ValueError(f"LR ref {key} is not after the previous record's {last}")
            last = key
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise ValueError(f"{path}: parse error at line {n}: {e}") from e
        records.append(rec)
    return Manifest(records=records, config=config, lr_fingerprint=lr_fp, hr_fingerprint=hr_fp)
