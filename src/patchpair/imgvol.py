"""Image/volume data model, raw-volume file I/O, and patch addressing.

A 2D image is a plain ``(H, W)`` float ndarray. Volumes stack slices into a
``(S, H, W)`` float32 array, the canonical on-disk precision. All containers
are immutable after construction.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

VALID_LABELS = ("LR", "HR")
# float64 elements per block: items in losses._mean_abs; rows in similarity._centred_rows and
# _Candidates._rbf_scores; (query, candidate) pairs in _Candidates._best_pcc
_REDUCE_BLOCK = 1 << 16


def require_image(img: np.ndarray) -> np.ndarray:
    """A 2D image as a float64 array, checked for two dims, at least one pixel and finite values. An input
    that is already a float64 array comes back as itself, not as a copy, so callers only read it."""
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"expected a non-empty 2D image, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("image contains non-finite values")
    return arr


def require_int(value, name: str) -> int:
    """Validate a JSON integer field: an int, not a bool, a float or a string."""
    if type(value) is not int:  # bool is a subclass of int; json gives 1.0 as float
        raise ValueError(f"{name} must be a JSON integer, got {value!r}")
    return value


def require_number(value, name: str):
    """Validate a JSON number field: an int or a float, not a bool or a string."""
    if type(value) not in (int, float):  # json gives a whole number such as 1 as int
        raise ValueError(f"{name} must be a JSON number, got {value!r}")
    return value


def require_pair(x: np.ndarray, y: np.ndarray):
    """Two images whose shapes agree, each as ``require_image`` returns it."""
    x, y = require_image(x), require_image(y)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return x, y


@dataclass(frozen=True, eq=False)
class Volume:
    """Ordered slices of one patient, stored as a read-only (S, H, W) float32 array."""

    patient_id: str
    data: np.ndarray

    def __post_init__(self):
        self._keep(np.array(self.data, dtype=np.float32, copy=True))

    @classmethod
    def _owning(cls, patient_id: str, arr: np.ndarray) -> "Volume":
        """A volume that keeps arr itself, a new native float32 array that no caller holds, checked as a copy is."""
        v = object.__new__(cls)
        object.__setattr__(v, "patient_id", patient_id)
        v._keep(arr)
        return v

    def _keep(self, arr: np.ndarray) -> None:
        if not isinstance(self.patient_id, str) or not self.patient_id:
            raise ValueError(f"patient id must be a non-empty string, got {self.patient_id!r}")
        # save_dataset names the file after the id, so it must stay inside its directory
        if "/" in self.patient_id or "\\" in self.patient_id or self.patient_id in (".", ".."):
            raise ValueError(f"patient id must be a plain file name, got {self.patient_id!r}")
        if arr.ndim != 3 or arr.shape[0] < 1 or arr.shape[1] < 1 or arr.shape[2] < 1:
            raise ValueError(f"volume data must be (slices, height, width), got {arr.shape}")
        if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):  # both take NaN; no full-size temporary
            raise ValueError(f"volume {self.patient_id!r} contains non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def n_slices(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Volume):
            return NotImplemented
        return self.patient_id == other.patient_id and bool(np.array_equal(self.data, other.data))


@dataclass(frozen=True)
class Dataset:
    """One domain's worth of volumes (label "LR" or "HR"): at least one volume,
    unique patient ids, stored in patient-id order."""

    label: str
    volumes: tuple

    def __post_init__(self):
        if self.label not in VALID_LABELS:
            raise ValueError(f"dataset label must be one of {VALID_LABELS}, got {self.label!r}")
        if not self.volumes:
            raise ValueError(f"empty {self.label} dataset: need at least one volume")
        vols = tuple(sorted(self.volumes, key=lambda v: v.patient_id))
        ids = [v.patient_id for v in vols]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate patient ids in dataset")
        object.__setattr__(self, "volumes", vols)


@dataclass(frozen=True)
class PatchRef:
    """Addressable square patch: (patient, slice, top-left row/col, edge size)."""

    patient_id: str
    slice_index: int
    row: int
    col: int
    size: int

    def __post_init__(self):
        if self.slice_index < 0 or self.row < 0 or self.col < 0 or self.size < 1:
            raise ValueError(f"invalid patch reference {self}")


def normalize_volume(v: Volume) -> Volume:
    """Affine min-max rescale of the whole volume to [0, 1]; constant volumes map to zeros."""
    lo = float(v.data.min())
    hi = float(v.data.max())
    if hi == lo:
        return Volume(v.patient_id, np.zeros_like(v.data))
    out = v.data.astype(np.float64)
    out -= lo
    out /= hi - lo
    return Volume(v.patient_id, out)


def _header_path(path: Path) -> Path:
    return path.with_name(path.name + ".json")


def _write_atomic(path: Path, data) -> None:
    """Write bytes or a C-contiguous buffer to a new, uniquely named file beside path (``.<name>.<hex>.tmp``, which
    no ``*.vol`` glob matches), then os.replace it onto path: readers see the old file or the whole new one, and a
    write that fails leaves the old file and no temporary file behind. A path that exists and is not a regular
    file, such as a pipe or /dev/stdout, is written to in place, not replaced."""
    if path.exists() and not path.is_file():
        path.write_bytes(data)
        return
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    f = open(tmp, "xb")  # "x": never another's file; the mode a plain write would give
    try:
        with f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink()
        raise


def save_volume(v: Volume, path) -> None:
    """Write ``<path>`` (little-endian float32 payload) plus the ``<path>.json`` sidecar."""
    path = Path(path)
    header = {
        "patient_id": v.patient_id,
        "height": v.height,
        "width": v.width,
        "slices": v.n_slices,
    }
    _write_atomic(path, np.ascontiguousarray(v.data, dtype="<f4"))  # the array's own buffer, no bytes copy
    _write_atomic(_header_path(path), (json.dumps(header, sort_keys=True) + "\n").encode())


def load_volume(path) -> Volume:
    """Read a raw volume file and its sidecar header; inverse of save_volume, bit-exact."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"volume file not found: {path}")
    hpath = _header_path(path)
    if not hpath.exists():
        raise FileNotFoundError(f"missing sidecar header: {hpath}")
    try:
        header = json.loads(hpath.read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"unreadable sidecar header {hpath}: {e}") from e
    try:
        pid = header["patient_id"]
        h, w, s = (require_int(header[key], key) for key in ("height", "width", "slices"))
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"contradictory or incomplete header {hpath}: {e}") from e
    if h < 1 or w < 1 or s < 1:
        raise ValueError(f"contradictory header {hpath}: non-positive dimensions")
    expected = h * w * s * 4
    with open(path, "rb") as f:  # the payload goes straight into the array the volume keeps
        size = os.fstat(f.fileno()).st_size
        if size == expected:
            arr = np.empty((s, h, w), dtype="<f4")
            size = f.readinto(arr)
    if size != expected:
        raise ValueError(f"length mismatch for {path}: payload {size} bytes, header implies {expected}")
    try:
        return Volume._owning(pid, arr.astype(np.float32, copy=False))  # a copy only on a big-endian host
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e


def load_dataset(dir_path, label: str) -> Dataset:
    """Load every ``*.vol`` under a directory (sorted by filename) as one dataset."""
    dir_path = Path(dir_path)
    paths = sorted(dir_path.glob("*.vol"))
    if not paths:
        raise ValueError(f"no *.vol files in {dir_path}")
    vols = tuple(load_volume(p) for p in paths)  # each names its own file on error
    try:
        ds = Dataset(label, vols)
    except ValueError as e:
        raise ValueError(f"{dir_path}: {e}") from e
    for p, v in zip(paths, vols):  # save_dataset names each file after its volume's id
        if v.patient_id != p.stem:
            raise ValueError(f"{p}: sidecar patient_id {v.patient_id!r} differs from the file name {p.stem!r}")
    return ds


def save_dataset(ds: Dataset, dir_path) -> None:
    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)
    for v in ds.volumes:
        save_volume(v, dir_path / f"{v.patient_id}.vol")

