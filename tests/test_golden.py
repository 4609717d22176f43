"""Golden suite9 manifests: the refs must stay identical and the weights within 1e-15.

``tests/golden/suite9.json`` holds ``[hr_patient, hr_slice, hr_row, hr_col, weight]``
per record, in LR order, for the hierarchical and slice-patch levels on the
acceptance suite's data. Regenerate it (only from a commit whose manifests are
the reference) with::

    PYTHONPATH=src python -m tests.test_golden
"""

import json
from pathlib import Path

import pytest

from patchpair import HistogramSpec, MatchConfig, MatchLevels, PhantomSpec, generate_similar_pair, match_hierarchical

GOLDEN = Path(__file__).with_name("golden") / "suite9.json"
LEVELS = (MatchLevels.HIERARCHICAL, MatchLevels.SLICE_AND_PATCH)
WEIGHT_TOL = 1e-15


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


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    # json writes each float with repr, so the weights round-trip exactly
    GOLDEN.write_text(json.dumps({lv.value: _records(lv) for lv in LEVELS}) + "\n")
