"""Golden outputs: suite9 manifests and resampled phantom slices.

``tests/golden/suite9.json`` holds ``[hr_patient, hr_slice, hr_row, hr_col, weight]``
per record, in LR order, for the hierarchical and slice-patch levels on the
acceptance suite's data; the refs must stay identical and the weights within
1e-15. ``tests/golden/manifests.json`` holds the SHA-256 of ``manifest_to_bytes``
for every metric at every level on a small seeded pair; those bytes must not
change at all. ``tests/golden/resample.json`` holds, per seeded 64-px phantom
slice and per resampling output, ``[sum, sum of squares, ramp-weighted sum, min,
max]``; each must stay within 1e-12 (relative above 1). Regenerate all three
(only from a commit whose outputs are the reference) with::

    PYTHONPATH=src python -m tests.test_golden
"""

import hashlib
import json
from pathlib import Path

import pytest

import numpy as np

from patchpair import (
    HistogramSpec,
    MatchConfig,
    MatchLevels,
    PhantomSpec,
    SimilarityKind,
    bicubic_resize,
    generate_dataset,
    generate_similar_pair,
    match_hierarchical,
    rotation_correct,
)
from patchpair.matching import manifest_to_bytes

GOLDEN = Path(__file__).with_name("golden") / "suite9.json"
GOLDEN_RESAMPLE = GOLDEN.with_name("resample.json")
GOLDEN_MANIFESTS = GOLDEN.with_name("manifests.json")
LEVELS = (MatchLevels.HIERARCHICAL, MatchLevels.SLICE_AND_PATCH)
WEIGHT_TOL = 1e-15
RESAMPLE_TOL = 1e-12
RESAMPLINGS = {
    "resize48": lambda s: bicubic_resize(s, 48, 48),
    "resize80": lambda s: bicubic_resize(s, 80, 80),
    "rotation": rotation_correct,
}


def _records(levels):
    hr, lr = generate_similar_pair(PhantomSpec(seed=909, patients=8, slices_per_patient=16, size=64), 0.25)
    cfg = MatchConfig(patch_size=32, stride=16, hist=HistogramSpec(bins=64), levels=levels)
    return [
        [r.hr.patient_id, r.hr.slice_index, r.hr.row, r.hr.col, r.weight]
        for r in match_hierarchical(lr, hr, cfg).records
    ]


@pytest.mark.parametrize("levels", LEVELS, ids=lambda lv: lv.value)
def test_suite9_manifest_matches_golden(levels):
    want = json.loads(GOLDEN.read_text())[levels.value]
    got = _records(levels)
    assert len(got) == len(want)
    assert [g[:4] for g in got] == [w[:4] for w in want]
    worst = max(abs(g[4] - w[4]) for g, w in zip(got, want))
    assert worst <= WEIGHT_TOL, f"max |dweight| = {worst!r}"


def _manifest_digest(metric, levels):
    hr, lr = generate_similar_pair(PhantomSpec(seed=919, patients=3, slices_per_patient=4, size=64), 0.25)
    cfg = MatchConfig(patch_size=32, stride=16, metric=metric, levels=levels)
    return hashlib.sha256(manifest_to_bytes(match_hierarchical(lr, hr, cfg))).hexdigest()


def _manifest_digests():
    return {f"{m.value}/{lv.value}": _manifest_digest(m, lv) for m in SimilarityKind for lv in MatchLevels}


@pytest.mark.parametrize("levels", MatchLevels, ids=lambda lv: lv.value)
@pytest.mark.parametrize("metric", SimilarityKind, ids=lambda m: m.value)
def test_manifest_bytes_match_golden(metric, levels):
    want = json.loads(GOLDEN_MANIFESTS.read_text())[f"{metric.value}/{levels.value}"]
    assert _manifest_digest(metric, levels) == want


def _summary(img):
    h, w = img.shape
    ramp = np.arange(h * w, dtype=np.float64).reshape(h, w) / (h * w)
    return [float(img.sum()), float((img * img).sum()), float((img * ramp).sum()), float(img.min()), float(img.max())]


def _resampled(name):
    ds = generate_dataset(PhantomSpec(seed=917, patients=2, slices_per_patient=3, size=64))
    return [_summary(RESAMPLINGS[name](s)) for v in ds.volumes for s in v.data]


@pytest.mark.parametrize("name", RESAMPLINGS)
def test_resampling_matches_golden(name):
    want = np.array(json.loads(GOLDEN_RESAMPLE.read_text())[name])
    got = np.array(_resampled(name))
    assert got.shape == want.shape
    assert (np.abs(got - want) <= RESAMPLE_TOL * np.maximum(1.0, np.abs(want))).all(), np.abs(got - want).max()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    # json writes each float with repr, so the weights round-trip exactly
    GOLDEN.write_text(json.dumps({lv.value: _records(lv) for lv in LEVELS}) + "\n")
    GOLDEN_RESAMPLE.write_text(json.dumps({name: _resampled(name) for name in RESAMPLINGS}) + "\n")
    GOLDEN_MANIFESTS.write_text(json.dumps(_manifest_digests(), indent=1) + "\n")
