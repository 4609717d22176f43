import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from patchpair import (
    Dataset,
    HistogramSpec,
    Manifest,
    MatchConfig,
    MatchLevels,
    MatchRecord,
    PatchRef,
    PhantomSpec,
    SimilarityKind,
    Volume,
    dataset_fingerprint,
    filter_threshold,
    generate_dataset,
    generate_similar_pair,
    match_exhaustive,
    match_hierarchical,
    match_patch,
    match_patient,
    match_slice,
    nmi,
    patch_grid,
    read_manifest,
    weight_stats,
    write_manifest,
)
from patchpair.matching import FingerprintMismatchWarning, _argmax, _Candidates, manifest_to_bytes
from .oracles import manifest_tuples, triple_loop_exhaustive

SMALL_CFG = MatchConfig(patch_size=16, stride=16, hist=HistogramSpec(bins=16))


def tiny_pair(seed=17, patients=2, slices=3, size=48, pert=0.3):
    spec = PhantomSpec(seed=seed, patients=patients, slices_per_patient=slices, size=size)
    return generate_similar_pair(spec, pert)


class TestPatchGrid:
    def test_nine_positions_for_default_constants(self):
        grid = patch_grid(256, 256, 128, 64)
        assert grid == [(r, c) for r in (0, 64, 128) for c in (0, 64, 128)]
        assert len(grid) == 9

    def test_single_position(self):
        assert patch_grid(128, 128, 128, 64) == [(0, 0)]

    def test_stride_equals_size(self):
        assert patch_grid(256, 256, 128, 128) == [(0, 0), (0, 128), (128, 0), (128, 128)]

    def test_flush_to_border(self):
        grid = patch_grid(250, 250, 128, 64)
        assert grid == [(r, c) for r in (0, 64, 122) for c in (0, 64, 122)]

    def test_every_pixel_reachable(self):
        for h, size, stride in ((100, 32, 24), (65, 16, 16), (33, 32, 7)):
            rows = sorted({r for r, _ in patch_grid(h, h, size, stride)})
            covered = np.zeros(h, dtype=bool)
            for r in rows:
                covered[r : r + size] = True
            assert covered.all()

    def test_errors(self):
        with pytest.raises(ValueError, match="exceeds"):
            patch_grid(64, 64, 128, 64)
        with pytest.raises(ValueError, match="stride"):
            patch_grid(64, 64, 32, 0)


class TestMatchPatient:
    def test_exact_copy_selected(self, small_dataset):
        lr_vol = small_dataset.volumes[1]
        assert match_patient(lr_vol, small_dataset, SMALL_CFG) == lr_vol.patient_id

    def test_single_patient(self, small_dataset):
        one = Dataset("HR", (small_dataset.volumes[0],))
        assert match_patient(small_dataset.volumes[1], one, SMALL_CFG) == small_dataset.volumes[0].patient_id

    def test_empty_set(self, small_dataset):
        with pytest.raises(ValueError, match="empty"):
            match_patient(small_dataset.volumes[0], Dataset("HR", ()), SMALL_CFG)

    def test_matches_bruteforce_argmax(self):
        hr = generate_dataset(PhantomSpec(seed=5, patients=3, slices_per_patient=2, size=48))
        lr = generate_dataset(PhantomSpec(seed=6, patients=1, slices_per_patient=2, size=48), label="LR")
        lr_mean = lr.volumes[0].data.mean(axis=0, dtype=np.float64)
        scores = {
            v.patient_id: nmi(lr_mean, v.data.mean(axis=0, dtype=np.float64), SMALL_CFG.hist)
            for v in hr.volumes
        }
        expected = max(sorted(scores), key=lambda pid: scores[pid])
        assert match_patient(lr.volumes[0], hr, SMALL_CFG) == expected


class TestMatchSlice:
    def test_verbatim_slice_found(self, rng):
        slices = rng.random((6, 32, 32))
        vol = Volume("h", slices)
        assert match_slice(slices[3], vol, SMALL_CFG) == 3

    def test_single_slice(self, rng):
        vol = Volume("h", rng.random((1, 32, 32)))
        assert match_slice(rng.random((32, 32)), vol, SMALL_CFG) == 0

    def test_matches_exhaustive_argmax(self):
        hr = generate_dataset(PhantomSpec(seed=8, patients=1, slices_per_patient=6, size=48))
        query = generate_dataset(
            PhantomSpec(seed=9, patients=1, slices_per_patient=1, size=48), label="LR"
        ).volumes[0].data[0]
        vol = hr.volumes[0]
        scores = [nmi(query, vol.data[i], SMALL_CFG.hist) for i in range(6)]
        assert match_slice(query, vol, SMALL_CFG) == int(np.argmax(scores))


class TestMatchPatch:
    def test_verbatim_patch_found(self, rng):
        hr_slice = rng.random((48, 48))
        query = hr_slice[16:32, 16:32].copy()
        ref, weight = match_patch(query, hr_slice, SMALL_CFG, patient_id="h", slice_index=2)
        assert (ref.row, ref.col, ref.size) == (16, 16, 16)
        assert (ref.patient_id, ref.slice_index) == ("h", 2)
        assert weight == 1.0

    def test_constant_query_first_position_weight_zero(self, rng):
        ref, weight = match_patch(np.full((16, 16), 0.5), rng.random((48, 48)), SMALL_CFG)
        assert weight == 0.0
        assert (ref.row, ref.col) == (0, 0)

    def test_matches_bruteforce(self, rng):
        hr_slice = rng.random((64, 64))
        query = rng.random((16, 16))
        best = None
        for r, c in patch_grid(64, 64, 16, 16):
            s = nmi(query, hr_slice[r : r + 16, c : c + 16], SMALL_CFG.hist)
            if best is None or s > best[0]:
                best = (s, r, c)
        ref, weight = match_patch(query, hr_slice, SMALL_CFG)
        assert (ref.row, ref.col) == best[1:]
        assert weight == best[0]


@st.composite
def query_and_candidates(draw):
    """A query and candidate images with the cases a prepared set must get right:
    constant images, duplicates, affine copies (PCC ties up to rounding), 1-ulp
    neighbours and tiny magnitudes."""
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    pixels = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
    image = hnp.arrays(np.float64, shape, elements=pixels)
    images = draw(st.lists(image, min_size=1, max_size=6))
    kinds = st.sampled_from(["constant", "duplicate", "affine", "ulp"])
    for kind in draw(st.lists(kinds, max_size=6)):
        img = images[draw(st.integers(0, len(images) - 1))].copy()
        if kind == "constant":
            img[...] = draw(st.sampled_from([0.0, 0.3, 1.0]))
        elif kind == "affine":
            img = img * draw(st.sampled_from([-1.0, 0.1, 1.0, 3.0])) + draw(st.sampled_from([0.0, 1.0]))
        elif kind == "ulp":
            i = draw(st.integers(0, img.size - 1))
            img.flat[i] = np.nextafter(img.flat[i], draw(st.sampled_from([-1.0, 2.0])))
        images.insert(draw(st.integers(0, len(images))), img)
    query = draw(st.one_of(image, st.sampled_from(images).map(np.copy)))
    # at 1e-160 the products of deviations underflow, which the PCC screen must not trust
    scale = draw(st.sampled_from([1.0, 1e-3, 1e-160]))
    return query * scale, [img * scale for img in images]


# Two equal candidates that a BLAS matrix-vector product may score 1 ulp apart
# (seen with OpenBLAS: rows at different offsets); the re-score must pick the first.
_TWIN = np.array([[0.0, 0.5, 0.5, 0.5], [0.5, 0.5, 0.5, 0.5]]) * 1e-3


class TestPreparedCandidates:
    @given(query_and_candidates(), st.sampled_from(list(SimilarityKind)), st.integers(2, 16))
    @example((_TWIN, [np.zeros((2, 4)), _TWIN.copy(), _TWIN.copy()]), SimilarityKind.PCC, 2)
    # a constant candidate (-1) must lose to a negative correlation
    @example((np.array([[0.0, 1.0, 0.5]]), [np.full((1, 3), 0.3), np.array([[1.0, 0.0, 0.0]])]), SimilarityKind.PCC, 2)
    @settings(max_examples=400, deadline=None)
    def test_equals_scalar_argmax_bit_for_bit(self, case, metric, bins):
        query, images = case
        cfg = MatchConfig(metric=metric, hist=HistogramSpec(bins=bins))
        candidates = list(enumerate(images))
        assert _Candidates(candidates, cfg).best(query) == _argmax(query, candidates, cfg)

    @pytest.mark.parametrize("metric", list(SimilarityKind))
    def test_wrong_shaped_candidate_refused(self, metric):
        images = [np.zeros((4, 4)), np.ones((4, 4)), np.zeros((4, 5))]
        with pytest.raises(ValueError, match=r"dimension mismatch: \(4, 4\) vs \(4, 5\)"):
            _Candidates(enumerate(images), MatchConfig(metric=metric))

    @pytest.mark.parametrize("metric", list(SimilarityKind))
    @pytest.mark.parametrize("position", [0, 2])
    def test_non_finite_candidate_refused(self, metric, position):
        images = [np.zeros((4, 4)), np.ones((4, 4)), np.full((4, 4), 0.5)]
        images[position][1, 2] = np.nan
        with pytest.raises(ValueError, match="image contains non-finite values"):
            _Candidates(enumerate(images), MatchConfig(metric=metric))


class TestHierarchical:
    def test_self_match_identity(self, small_dataset):
        cfg = MatchConfig(patch_size=32, stride=16, hist=HistogramSpec(bins=32))
        m = match_hierarchical(small_dataset, small_dataset, cfg)
        assert len(m.records) == len(small_dataset.volumes) * 3 * 9
        assert all(r.weight == 1.0 for r in m.records)
        assert all(r.hr == r.lr for r in m.records)

    def test_patch_only_equals_exhaustive(self):
        hr, lr = tiny_pair()
        cfg_po = MatchConfig(
            patch_size=16, stride=16, hist=HistogramSpec(bins=16), levels=MatchLevels.PATCH_ONLY
        )
        a = match_hierarchical(lr, hr, cfg_po)
        b = match_exhaustive(lr, hr, cfg_po)
        assert a == b
        assert manifest_to_bytes(a) == manifest_to_bytes(b)

    def test_records_lie_within_upper_level_choices(self):
        hr, lr = tiny_pair(seed=23)
        m = match_hierarchical(lr, hr, SMALL_CFG)
        for lr_vol in lr.volumes:
            pid = match_patient(lr_vol, hr, SMALL_CFG)
            for s_idx in range(lr_vol.n_slices):
                expected_slice = match_slice(lr_vol.data[s_idx], hr.volume(pid), SMALL_CFG)
                recs = [
                    r for r in m.records
                    if r.lr.patient_id == lr_vol.patient_id and r.lr.slice_index == s_idx
                ]
                assert recs
                assert all(r.hr.patient_id == pid and r.hr.slice_index == expected_slice for r in recs)

    def test_slice_and_patch_level(self):
        hr, lr = tiny_pair(seed=29)
        cfg = MatchConfig(
            patch_size=16, stride=16, hist=HistogramSpec(bins=16), levels=MatchLevels.SLICE_AND_PATCH
        )
        m = match_hierarchical(lr, hr, cfg)
        # slice choice must be the global argmax over all HR volumes and slices
        for lr_vol in lr.volumes:
            for s_idx in range(lr_vol.n_slices):
                best = None
                for hv in sorted(hr.volumes, key=lambda v: v.patient_id):
                    for h_idx in range(hv.n_slices):
                        s = nmi(lr_vol.data[s_idx], hv.data[h_idx], cfg.hist)
                        if best is None or s > best[0]:
                            best = (s, hv.patient_id, h_idx)
                recs = [
                    r for r in m.records
                    if r.lr.patient_id == lr_vol.patient_id and r.lr.slice_index == s_idx
                ]
                assert all((r.hr.patient_id, r.hr.slice_index) == best[1:] for r in recs)

    def test_sorted_and_unique(self):
        hr, lr = tiny_pair(seed=31)
        m = match_hierarchical(lr, hr, SMALL_CFG)
        keys = [(r.lr.patient_id, r.lr.slice_index, r.lr.row, r.lr.col) for r in m.records]
        assert keys == sorted(keys)
        assert len(set(r.lr for r in m.records)) == len(m.records)

    def test_dimension_mismatch_rejected(self):
        a = generate_dataset(PhantomSpec(seed=1, patients=1, slices_per_patient=1, size=48))
        b = generate_dataset(PhantomSpec(seed=1, patients=1, slices_per_patient=1, size=64), label="LR")
        with pytest.raises(ValueError, match="uniform"):
            match_hierarchical(b, a, SMALL_CFG)

    @pytest.mark.parametrize("levels", list(MatchLevels))
    def test_nmi_refuses_pixels_outside_histogram_range(self, levels):
        hr, lr = tiny_pair(seed=73, patients=1, slices=1)
        data = lr.volumes[0].data.copy()
        data[0, 0, 0] = -1e-6
        cfg = dataclasses.replace(SMALL_CFG, levels=levels)
        with pytest.raises(ValueError, match=r"LR volume 'Q' has pixels outside the histogram range \[0\.0, 1\.0\]"):
            match_hierarchical(Dataset("LR", (Volume("Q", data),)), hr, cfg)
        data[0, 0, 0], data[0, 0, 1] = 0.0, 1.0  # both ends of the range are inside it
        assert match_hierarchical(Dataset("LR", (Volume("Q", data),)), hr, cfg).records


class TestExhaustive:
    def test_triple_loop_oracle_equality(self):
        hr, lr = tiny_pair(seed=37, patients=2, slices=2)
        m = match_exhaustive(lr, hr, SMALL_CFG)
        assert manifest_tuples(m) == triple_loop_exhaustive(lr, hr, SMALL_CFG)

    def test_oracle_equality_with_pcc_and_rbf(self):
        hr, lr = tiny_pair(seed=43, patients=2, slices=2)
        for metric in (SimilarityKind.PCC, SimilarityKind.RBF):
            cfg = MatchConfig(patch_size=16, stride=16, metric=metric)
            m = match_exhaustive(lr, hr, cfg)
            assert manifest_tuples(m) == triple_loop_exhaustive(lr, hr, cfg)

    def test_dominates_hierarchical(self):
        hr, lr = tiny_pair(seed=47)
        exh = {r.lr: r.weight for r in match_exhaustive(lr, hr, SMALL_CFG).records}
        hie = {r.lr: r.weight for r in match_hierarchical(lr, hr, SMALL_CFG).records}
        assert exh.keys() == hie.keys()
        assert all(exh[k] >= hie[k] for k in exh)

    def test_header_records_patch_only(self):
        hr, lr = tiny_pair(seed=37, patients=1, slices=1)
        assert SMALL_CFG.levels is MatchLevels.HIERARCHICAL
        assert match_exhaustive(lr, hr, SMALL_CFG).config.levels is MatchLevels.PATCH_ONLY

    def test_verbatim_patch_weight_one(self, small_dataset):
        cfg = MatchConfig(patch_size=32, stride=16, hist=HistogramSpec(bins=32))
        m = match_exhaustive(small_dataset, small_dataset, cfg)
        assert all(r.weight == 1.0 for r in m.records)


class TestDeterminism:
    def test_repeat_runs_byte_identical(self):
        hr, lr = tiny_pair(seed=53)
        a = manifest_to_bytes(match_hierarchical(lr, hr, SMALL_CFG))
        b = manifest_to_bytes(match_hierarchical(lr, hr, SMALL_CFG))
        assert a == b

    def test_exhaustive_repeat_runs_byte_identical(self):
        hr, lr = tiny_pair(seed=59)
        a = manifest_to_bytes(match_exhaustive(lr, hr, SMALL_CFG))
        b = manifest_to_bytes(match_exhaustive(lr, hr, SMALL_CFG))
        assert a == b

    @pytest.mark.parametrize("levels", list(MatchLevels))
    def test_cross_patient_ties_go_to_smallest_id(self, levels):
        hr, _ = tiny_pair(seed=71)
        twin, other = hr.volumes[0].data, hr.volumes[1].data
        # the same volume under two ids, neither first in insertion order
        hr_set = Dataset("HR", (Volume("P2", other), Volume("P1", twin), Volume("P0", twin)))
        lr_set = Dataset("LR", (Volume("Q", twin),))
        cfg = dataclasses.replace(SMALL_CFG, levels=levels)
        m = match_hierarchical(lr_set, hr_set, cfg)
        assert m.records
        assert all(r.hr.patient_id == "P0" for r in m.records)


def fabricated_manifest(weights, threshold=0.4):
    cfg = MatchConfig(patch_size=16, stride=16, threshold=threshold)
    records = [
        MatchRecord(PatchRef("a", 0, 0, 16 * i, 16), PatchRef("b", 0, 0, 0, 16), w)
        for i, w in enumerate(weights)
    ]
    return Manifest(records, cfg, "sha256:lr", "sha256:hr")


class TestFilterThreshold:
    def test_zero_keeps_positive_weights(self):
        m = fabricated_manifest([0.0, 0.2, 0.9])
        assert [r.weight for r in filter_threshold(m, 0.0).records] == [0.2, 0.9]

    def test_one_empties(self):
        m = fabricated_manifest([0.3, 1.0])
        assert filter_threshold(m, 1.0).records == []

    def test_strict_comparison_at_threshold(self):
        m = fabricated_manifest([0.3, 0.4, 0.45])
        kept = filter_threshold(m, 0.4)
        assert [r.weight for r in kept.records] == [0.45]
        assert kept.config.threshold == 0.4

    def test_monotone_in_tau(self):
        m = fabricated_manifest([0.1, 0.3, 0.5, 0.7, 0.9])
        counts = [len(filter_threshold(m, t).records) for t in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)]
        assert counts == sorted(counts, reverse=True)

    @pytest.mark.parametrize("tau", [-0.1, 1.5, float("nan")])
    def test_out_of_range_tau_is_match_config_error(self, tau):
        with pytest.raises(ValueError, match=r"threshold must be in \[0, 1\]"):
            filter_threshold(fabricated_manifest([0.5]), tau)


class TestWeightStats:
    def test_all_ones_top_bin(self):
        stats = weight_stats(fabricated_manifest([1.0, 1.0, 1.0]), bins=10)
        assert stats.counts.tolist() == [0] * 9 + [3]
        assert stats.mean == 1.0

    def test_hand_binning(self):
        stats = weight_stats(fabricated_manifest([0.2, 0.4, 0.6, 0.8]), bins=4)
        assert stats.counts.tolist() == [1, 1, 1, 1]
        assert stats.mean == pytest.approx(0.5, abs=1e-15)
        assert stats.fraction_in(0.35, 0.65) == 0.5
        assert stats.counts.sum() == 4

    def test_empty_manifest(self):
        with pytest.raises(ValueError, match="no records"):
            weight_stats(fabricated_manifest([]), bins=4)


class TestManifestIO:
    def test_roundtrip(self, tmp_path):
        hr, lr = tiny_pair(seed=61)
        m = match_hierarchical(lr, hr, SMALL_CFG)
        path = tmp_path / "m.jsonl"
        write_manifest(m, path)
        assert read_manifest(path) == m

    def test_weight_precision_roundtrip(self, tmp_path):
        m = fabricated_manifest([0.4500000000000001])
        path = tmp_path / "m.jsonl"
        write_manifest(m, path)
        loaded = read_manifest(path)
        assert loaded.records[0].weight == 0.4500000000000001

    def test_truncated_file_names_line(self, tmp_path):
        m = fabricated_manifest([0.5, 0.6])
        raw = manifest_to_bytes(m)
        path = tmp_path / "m.jsonl"
        path.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(ValueError, match="line 3"):
            read_manifest(path)

    def test_bad_header_names_line_one(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="line 1"):
            read_manifest(path)

    def test_infinite_histogram_range_names_line_one(self, tmp_path):
        raw = manifest_to_bytes(fabricated_manifest([0.5])).decode()
        path = tmp_path / "m.jsonl"
        path.write_text(raw.replace('"value_range": [0.0, 1.0]', '"value_range": [0.0, Infinity]', 1))
        with pytest.raises(ValueError, match="line 1.*histogram range"):
            read_manifest(path)

    @pytest.mark.parametrize("side", ["lr", "hr"])
    def test_record_size_other_than_patch_size_names_line(self, tmp_path, side):
        head, first, second = manifest_to_bytes(fabricated_manifest([0.5, 0.6])).decode().splitlines()
        obj = json.loads(second)
        obj[side]["size"] = 17
        path = tmp_path / "m.jsonl"
        path.write_text("\n".join([head, first, json.dumps(obj)]) + "\n")
        with pytest.raises(ValueError, match=f"parse error at line 3: {side} size 17 differs from the header's patch_size 16"):
            read_manifest(path)

    @pytest.mark.parametrize("order", [[2, 1], [1, 1]], ids=["swapped", "repeated"])
    def test_lr_refs_out_of_order_or_repeated_name_line(self, tmp_path, order):
        head, *records = manifest_to_bytes(fabricated_manifest([0.5, 0.6, 0.7])).decode().splitlines()
        path = tmp_path / "m.jsonl"
        path.write_text("\n".join([head, records[0]] + [records[i] for i in order]) + "\n")
        with pytest.raises(ValueError, match=r"parse error at line 4: LR ref \('a', 0, 0, 16\) is not after the previous"):
            read_manifest(path)

    def test_fingerprint_mismatch_warns(self, tmp_path):
        hr, lr = tiny_pair(seed=67, patients=1, slices=1)
        m = match_hierarchical(lr, hr, SMALL_CFG)
        path = tmp_path / "m.jsonl"
        write_manifest(m, path)
        with pytest.warns(FingerprintMismatchWarning):
            read_manifest(path, lr_fingerprint="sha256:other")
        assert m.lr_fingerprint == dataset_fingerprint(lr)
        assert m.hr_fingerprint == dataset_fingerprint(hr)
