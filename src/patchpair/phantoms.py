"""Synthetic head-like phantoms: smooth elliptical blobs inside a skull-like ring.

Every draw is a pure function of the spec seed, so datasets are bit-reproducible.
Blob parameters are interpolated between two per-patient keyframes across the
slice index, giving smoothly varying slices that make slice-level matching
meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .imgvol import Dataset, Volume

_BASE_STREAM = 1
_JITTER_STREAM = 2
_MIN_BLOBS = 2
_MAX_BLOBS = 5
_RADIUS_RANGE = (0.06, 0.18)  # blob semi-axes, fraction of image size
_INTENSITY_RANGE = (0.35, 0.9)
_PATIENT_ID = "P{:03d}".format


@dataclass(frozen=True)
class PhantomSpec:
    seed: int = 0
    patients: int = 2
    slices_per_patient: int = 4
    size: int = 64

    def __post_init__(self):
        if self.patients < 1 or self.slices_per_patient < 1:
            raise ValueError("patients and slices_per_patient must be >= 1")
        if self.size < 32:
            raise ValueError("size must be >= 32")


@dataclass
class _PatientParams:
    ring: np.ndarray  # (3,): radius, sigma, amplitude
    blobs_start: np.ndarray  # (n, 5): ci, cj, ri, rj, amplitude
    blobs_end: np.ndarray  # (n, 5)


def _sample_patient_params(spec: PhantomSpec, idx: int) -> _PatientParams:
    rng = np.random.default_rng([spec.seed, _BASE_STREAM, idx])
    size = float(spec.size)
    n = int(rng.integers(_MIN_BLOBS, _MAX_BLOBS + 1))
    ring = np.array(
        [
            size * rng.uniform(0.38, 0.46),
            size * rng.uniform(0.03, 0.05),
            rng.uniform(0.35, 0.6),
        ]
    )
    centre = (size - 1) / 2.0
    keyframes = []
    for _ in range(2):
        kf = np.empty((n, 5))
        kf[:, 0] = centre + size * rng.uniform(-0.22, 0.22, size=n)
        kf[:, 1] = centre + size * rng.uniform(-0.22, 0.22, size=n)
        kf[:, 2] = size * rng.uniform(*_RADIUS_RANGE, size=n)
        kf[:, 3] = size * rng.uniform(*_RADIUS_RANGE, size=n)
        kf[:, 4] = rng.uniform(*_INTENSITY_RANGE, size=n)
        keyframes.append(kf)
    return _PatientParams(ring, keyframes[0], keyframes[1])


def _jitter_params(params: _PatientParams, perturbation: float, spec: PhantomSpec, idx: int) -> _PatientParams:
    rng = np.random.default_rng([spec.seed, _JITTER_STREAM, idx])
    size = float(spec.size)
    n = params.blobs_start.shape[0]
    u_ring = rng.uniform(-1.0, 1.0, size=3)
    u_blob = rng.uniform(-1.0, 1.0, size=(n, 5))
    ring = params.ring * (1.0 + perturbation * np.array([0.1, 0.3, 0.3]) * u_ring)
    ring[1] = max(ring[1], 0.8)
    ring[2] = min(max(ring[2], 0.05), 1.0)

    def jitter_blobs(kf):
        out = kf.copy()
        out[:, 0:2] = out[:, 0:2] + perturbation * 0.15 * size * u_blob[:, 0:2]
        out[:, 2:4] = np.maximum(out[:, 2:4] * (1.0 + perturbation * 0.5 * u_blob[:, 2:4]), 1.5)
        out[:, 4] = np.clip(out[:, 4] * (1.0 + perturbation * 0.4 * u_blob[:, 4]), 0.05, 1.0)
        return out

    return _PatientParams(ring, jitter_blobs(params.blobs_start), jitter_blobs(params.blobs_end))


def _render_volume(spec: PhantomSpec, params: _PatientParams, patient_id: str) -> Volume:
    """Render every slice: the ring, which the slice index does not move, is
    drawn once; the blobs are interpolated between the keyframes per slice."""
    size = spec.size
    centre = (size - 1) / 2.0
    j = np.arange(size, dtype=np.float64)  # a column's index; i = j[:, None] is a row's
    i = j[:, None]
    r0, sg, amp = params.ring
    ring = amp * np.exp(-0.5 * ((np.hypot(i - centre, j - centre) - r0) / sg) ** 2)
    s = spec.slices_per_patient
    ts = [k / (s - 1) if s > 1 else 0.0 for k in range(s)]
    data = np.empty((s, size, size))
    blob = np.empty((size, size))  # contiguous and full size, so np.exp runs the inner loop a grid would
    for img, t in zip(data, ts):
        img[...] = ring
        blobs = params.blobs_start + (params.blobs_end - params.blobs_start) * t
        for ci, cj, ri, rj, a in blobs:
            # a * exp(-0.5 * (((i - ci) / ri) ** 2 + ((j - cj) / rj) ** 2)), each row and column term once
            np.add(((i - ci) / ri) ** 2, ((j - cj) / rj) ** 2, out=blob)
            blob *= -0.5
            np.exp(blob, out=blob)
            blob *= a
            img += blob
        np.clip(img, 0.0, 1.0, out=img)
    return Volume(patient_id, data)


def generate_dataset(spec: PhantomSpec, label: str = "HR") -> Dataset:
    """Render one phantom dataset, deterministic in spec.seed."""
    vols = [
        _render_volume(spec, _sample_patient_params(spec, p), _PATIENT_ID(p))
        for p in range(spec.patients)
    ]
    return Dataset(label, tuple(vols))


def generate_similar_pair(spec: PhantomSpec, perturbation: float):
    """Return (base, jittered) datasets labeled (HR, LR).

    The second dataset re-renders the first one's anatomy with every blob/ring
    parameter jittered by the given perturbation fraction; perturbation 0 gives
    a pixel-identical copy.
    """
    if not 0.0 <= perturbation <= 1.0:
        raise ValueError("perturbation must be in [0, 1]")
    base = generate_dataset(spec)
    jittered = (
        _render_volume(spec, _jitter_params(_sample_patient_params(spec, p), perturbation, spec, p), _PATIENT_ID(p))
        for p in range(spec.patients)
    )
    return base, Dataset("LR", tuple(jittered))
