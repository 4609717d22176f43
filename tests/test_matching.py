import dataclasses
import hashlib
import importlib
import json
import os
import re
import stat
import tempfile
import threading
import tracemalloc
from pathlib import Path

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
    RbfParams,
    SimilarityKind,
    Volume,
    dataset_fingerprint,
    filter_threshold,
    generate_dataset,
    generate_similar_pair,
    match_exhaustive,
    match_hierarchical,
    nmi,
    patch_grid,
    read_manifest,
    to_weight,
    weight_stats,
    write_manifest,
)
from patchpair.matching import (
    _ref_to_json,
    _slices,
    _windows,
    manifest_to_bytes,
)
from patchpair.similarity import _V_MAX, _V_MIN, _Candidates, _centred_rows
from .oracles import argmax, centred, manifest_tuples, ref_to_json_dict, triple_loop_exhaustive

scoring = importlib.import_module("patchpair.similarity")  # the package binds patchpair.similarity to the function
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


def hr_patients(lr_vol, hr_set, cfg):
    """The HR patient ids that match_hierarchical's records give lr_vol's patches."""
    return {r.hr.patient_id for r in match_hierarchical(Dataset("LR", (lr_vol,)), hr_set, cfg).records}


def best_slice(query, hr_vol, cfg):
    """The slice level: index of hr_vol's slice most similar to the query."""
    (_, index), _ = _Candidates(_slices(hr_vol), cfg).best_many([query])[0]
    return index


def best_window(query, hr_vol, slice_index, cfg):
    """The patch level: (PatchRef, weight) of the best grid window of hr_vol's slice for the query."""
    size = query.shape[0]
    grid = patch_grid(hr_vol.height, hr_vol.width, size, cfg.stride)
    ref, score = _Candidates(_windows(hr_vol, [slice_index], grid, size), cfg).best_many([query])[0]
    return ref, to_weight(cfg.metric, score)


class TestMatchPatient:
    def test_exact_copy_selected(self, small_dataset):
        lr_vol = small_dataset.volumes[1]
        assert hr_patients(lr_vol, small_dataset, SMALL_CFG) == {lr_vol.patient_id}

    def test_single_patient(self, small_dataset):
        one = Dataset("HR", (small_dataset.volumes[0],))
        assert hr_patients(small_dataset.volumes[1], one, SMALL_CFG) == {small_dataset.volumes[0].patient_id}

    def test_matches_bruteforce_argmax(self):
        hr = generate_dataset(PhantomSpec(seed=5, patients=3, slices_per_patient=2, size=48))
        lr = generate_dataset(PhantomSpec(seed=6, patients=1, slices_per_patient=2, size=48), label="LR")
        lr_mean = lr.volumes[0].data.mean(axis=0, dtype=np.float64)
        scores = {
            v.patient_id: nmi(lr_mean, v.data.mean(axis=0, dtype=np.float64), SMALL_CFG.hist)
            for v in hr.volumes
        }
        expected = max(sorted(scores), key=lambda pid: scores[pid])
        assert hr_patients(lr.volumes[0], hr, SMALL_CFG) == {expected}


class TestMatchSlice:
    def test_verbatim_slice_found(self, rng):
        vol = Volume("h", rng.random((6, 32, 32)))
        assert best_slice(vol.data[3], vol, SMALL_CFG) == 3

    def test_single_slice(self, rng):
        vol = Volume("h", rng.random((1, 32, 32)))
        assert best_slice(rng.random((32, 32)), vol, SMALL_CFG) == 0

    def test_matches_exhaustive_argmax(self):
        hr = generate_dataset(PhantomSpec(seed=8, patients=1, slices_per_patient=6, size=48))
        query = generate_dataset(
            PhantomSpec(seed=9, patients=1, slices_per_patient=1, size=48), label="LR"
        ).volumes[0].data[0]
        vol = hr.volumes[0]
        scores = [nmi(query, vol.data[i], SMALL_CFG.hist) for i in range(6)]
        assert best_slice(query, vol, SMALL_CFG) == int(np.argmax(scores))


class TestMatchPatch:
    def test_verbatim_patch_found(self, rng):
        vol = Volume("h", rng.random((3, 48, 48)))
        query = vol.data[2, 16:32, 16:32].copy()
        ref, weight = best_window(query, vol, 2, SMALL_CFG)
        assert (ref.row, ref.col, ref.size) == (16, 16, 16)
        assert (ref.patient_id, ref.slice_index) == ("h", 2)
        assert weight == 1.0

    def test_constant_query_first_position_weight_zero(self, rng):
        ref, weight = best_window(np.full((16, 16), 0.5), Volume("h", rng.random((1, 48, 48))), 0, SMALL_CFG)
        assert weight == 0.0
        assert (ref.row, ref.col) == (0, 0)

    def test_matches_bruteforce(self, rng):
        vol = Volume("h", rng.random((1, 64, 64)))
        hr_slice, query = vol.data[0], rng.random((16, 16))
        best = None
        for r, c in patch_grid(64, 64, 16, 16):
            s = nmi(query, hr_slice[r : r + 16, c : c + 16], SMALL_CFG.hist)
            if best is None or s > best[0]:
                best = (s, r, c)
        ref, weight = best_window(query, vol, 0, SMALL_CFG)
        assert (ref.row, ref.col) == best[1:]
        assert weight == best[0]


@st.composite
def query_and_candidates(draw, batch=False):
    """A query and candidate images with the cases a prepared set must get right:
    constant images, duplicates, affine copies (PCC ties up to rounding), 1-ulp
    neighbours and tiny magnitudes. With ``batch``, a list of 1-12 queries."""
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
    query = st.one_of(image, st.sampled_from(images).map(np.copy))
    queries = draw(st.lists(query, min_size=1, max_size=12)) if batch else [draw(query)]
    # at 1e-160 the products of deviations underflow, which the PCC screen must not trust
    scale = draw(st.sampled_from([1.0, 1e-3, 1e-160]))
    queries = [q * scale for q in queries]
    return queries if batch else queries[0], [img * scale for img in images]


# Two equal candidates that a BLAS matrix-vector product may score 1 ulp apart
# (seen with OpenBLAS: rows at different offsets); the re-score must pick the first.
_TWIN = np.array([[0.0, 0.5, 0.5, 0.5], [0.5, 0.5, 0.5, 0.5]]) * 1e-3


def result_bits(results):
    """(key, score) pairs with each score as its exact bits, so -0.0 and 0.0 differ."""
    return [(key, float(score).hex()) for key, score in results]


# RBF's gamma: None picks sqrt(P) / 2; at 1e-3 most scores underflow to 0, at 1e3 all lie within 1e-4 of 1
GAMMAS = st.sampled_from([None, 1e-3, 0.5, 1e3])


class TestPreparedCandidates:
    @given(query_and_candidates(), st.sampled_from(list(SimilarityKind)), st.integers(2, 16), GAMMAS)
    @example((_TWIN, [np.zeros((2, 4)), _TWIN.copy(), _TWIN.copy()]), SimilarityKind.PCC, 2, None)
    # a constant candidate (-1) must lose to a negative correlation
    @example((np.array([[0.0, 1.0, 0.5]]), [np.full((1, 3), 0.3), np.array([[1.0, 0.0, 0.0]])]), SimilarityKind.PCC, 2, None)
    # every RBF score underflows to 0: the first key wins with 0.0
    @example((np.zeros((2, 2)), [np.ones((2, 2)), np.full((2, 2), 0.5), np.eye(2)]), SimilarityKind.RBF, 2, 1e-3)
    @settings(max_examples=400, deadline=None)
    def test_equals_scalar_argmax_bit_for_bit(self, case, metric, bins, gamma):
        query, images = case
        cfg = MatchConfig(metric=metric, hist=HistogramSpec(bins=bins), rbf=RbfParams(gamma))
        candidates = list(enumerate(images))
        assert result_bits(_Candidates(candidates, cfg).best_many([query])) == result_bits([argmax(query, candidates, cfg)])

    @given(query_and_candidates(batch=True), st.sampled_from(list(SimilarityKind)), st.integers(2, 16), GAMMAS)
    @example(([_TWIN, _TWIN[::-1].copy(), _TWIN.copy(), -_TWIN], [np.zeros((2, 4)), _TWIN.copy(), _TWIN.copy()]), SimilarityKind.PCC, 2, None)
    @settings(max_examples=300, deadline=None)
    def test_batch_equals_scalar_argmax_bit_for_bit(self, case, metric, bins, gamma):
        queries, images = case
        cfg = MatchConfig(metric=metric, hist=HistogramSpec(bins=bins), rbf=RbfParams(gamma))
        candidates = list(enumerate(images))
        expected = [argmax(q, candidates, cfg) for q in queries]
        assert result_bits(_Candidates(candidates, cfg).best_many(queries)) == result_bits(expected)

    @pytest.mark.parametrize("metric", list(SimilarityKind))
    def test_batch_mixing_flat_unscreenable_and_normal_queries(self, rng, metric):
        images = [rng.random((6, 5)) for _ in range(7)]
        images[2][...] = 0.25  # a flat candidate scores -1 under PCC
        images[5] = images[3].copy()  # a tie, settled by the smaller key
        queries = [
            images[3].copy(),
            np.full((6, 5), 0.5),  # flat query: every PCC pair scores -1, so the first key wins
            rng.random((6, 5)) * 1e-160,  # its deviations underflow in products: PCC scores every candidate
            rng.random((6, 5)),
            np.zeros((6, 5)),
            images[0] * 1e-160,
        ]
        cfg = MatchConfig(metric=metric)
        # with one candidate at 1e-160 the PCC stack cannot be screened: every query scores every candidate
        for tiny_candidate in (False, True):
            candidates = list(enumerate(images[:6] + [images[6] * (1e-160 if tiny_candidate else 1.0)]))
            prepared = _Candidates(candidates, cfg)
            got = prepared.best_many(queries)
            assert result_bits(got) == result_bits([argmax(q, candidates, cfg) for q in queries])
            assert got[0][0] == 3
            if metric is SimilarityKind.PCC:
                assert got[1] == got[4] == (0, -1.0)
                assert prepared.screenable is not tiny_candidate

    def test_pcc_batch_over_cap_mixing_flat_and_unscreenable_queries(self, rng):
        images = [rng.random((4, 4)) for _ in range(20)]  # cap min(20, 16): 40 queries take 3 products
        images[4][...] = 0.75
        queries = [rng.random((4, 4)) * rng.choice([1.0, 1e-160]) for _ in range(40)]
        queries[7] = np.full((4, 4), 0.5)
        queries[30] = images[9] * 1e-160
        cfg = MatchConfig(metric=SimilarityKind.PCC)
        candidates = list(enumerate(images))
        got = _Candidates(candidates, cfg).best_many(queries)
        assert result_bits(got) == result_bits([argmax(q, candidates, cfg) for q in queries])
        assert got[7] == (0, -1.0) and got[30][0] == 9

    @pytest.mark.parametrize("shape", [(8, 8), (32, 32), (5, 7)])
    def test_pcc_constant_float64_candidate_and_query_are_flat(self, rng, shape):
        # P copies of 0.1 have a float64 mean other than 0.1: the image is still flat, as pcc has it
        a = rng.random(shape)
        cfg = MatchConfig(metric=SimilarityKind.PCC)
        candidates = [(0, a), (1, np.full(shape, 0.1)), (2, rng.random(shape))]
        prepared = _Candidates(candidates, cfg)
        assert prepared.flat.tolist() == [False, True, False]
        assert _Candidates(candidates[1:2], cfg).best_many([a]) == [(1, -1.0)]
        # beside a zero image, the constant candidate ties at -1 and loses to the first key
        assert _Candidates([(0, np.zeros(shape)), candidates[1]], cfg).best_many([a]) == [(0, -1.0)]
        queries = [np.full(shape, 0.1), -a, rng.random(shape)]
        got = prepared.best_many(queries)
        assert got[0] == (0, -1.0)
        assert result_bits(got) == result_bits([argmax(q, candidates, cfg) for q in queries])


@st.composite
def image_stacks(draw):
    """1-6 equally shaped float32 or float64 images: rows of 1 px, of 16,384 px (a 256-px
    match's patch), of 65,536 px (more than one block) or small; random, flat, sparse or
    mixed-magnitude rows at scales down to 2**-401, where products of deviations underflow."""
    shape = draw(st.one_of(st.sampled_from([(1, 1), (128, 128), (256, 256)]), st.tuples(st.integers(1, 24), st.integers(1, 24))))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    images = []
    for kind in draw(st.lists(st.sampled_from(["random", "flat", "sparse", "mixed"]), min_size=1, max_size=6)):
        img = rng.random(shape) * draw(st.sampled_from([1.0, 1e3, 1e-160, 2.0**-401]))
        if kind == "flat":
            img[...] = img.flat[0]
        elif kind == "sparse":
            img[rng.random(shape) < 0.9] = 0.0
        elif kind == "mixed":
            img[rng.random(shape) < 0.5] *= 2.0**-401
        images.append(img.astype(dtype))
    return images


class TestCentredRows:
    @given(image_stacks())
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_centred(self, images):
        d, v = _centred_rows(images)
        assert d.shape == (len(images), images[0].size) and d.dtype == np.float64
        for k, img in enumerate(images):
            dk, vk = centred(img)
            assert np.array_equal(d[k].view(np.int64), dk.view(np.int64))
            assert float(v[k]).hex() == vk.hex()


class TestBlockBoundaries:
    @pytest.mark.parametrize("block", [1, 99, 150, scoring._REDUCE_BLOCK])
    def test_every_block_boundary_matches_oracles(self, monkeypatch, block):
        # 49-px rows: block 1 takes one row per block, 99 and 150 take 2 and 3 with a short last block;
        # 65,792-px rows outgrow every block, the default included
        monkeypatch.setattr(scoring, "_REDUCE_BLOCK", block)
        rng = np.random.default_rng(block)
        for shape, n in (((7, 7), 8), ((256, 257), 3)):
            images = [rng.random(shape) for _ in range(n)]
            images[1][...] = 0.5  # flat: PCC scores -1
            images[-1] = images[0].copy()  # a tie, settled by the smaller key
            rows = images + [images[0] * 2.0**-401, images[0] * 1e-160, np.full(shape, 0.1)]
            d, v = _centred_rows(rows)
            for k, img in enumerate(rows):
                dk, vk = centred(img)
                assert np.array_equal(d[k].view(np.int64), dk.view(np.int64)) and float(v[k]).hex() == vk.hex()
            queries = [images[0] * 0.5 + 0.1, rng.random(shape), np.full(shape, 0.25), images[2] * 1e-160]
            candidates = list(enumerate(images))
            for metric in (SimilarityKind.PCC, SimilarityKind.RBF):
                cfg = MatchConfig(metric=metric)
                got = _Candidates(candidates, cfg).best_many(queries)
                assert result_bits(got) == result_bits([argmax(q, candidates, cfg) for q in queries])


class TestPccBandRescore:
    @pytest.mark.parametrize("block", [1, 64, 96, scoring._REDUCE_BLOCK])
    def test_several_member_bands_across_blocks_match_oracle(self, monkeypatch, block):
        # 16-px rows, two per pair: blocks 1, 64 and 96 hold 1, 2 and 3 pairs, so a band of duplicates and affine copies
        # (PCC 1 up to rounding, all within the screen's rounding band) spans two or more blocks
        monkeypatch.setattr(scoring, "_REDUCE_BLOCK", block)
        rng = np.random.default_rng(block)
        base = [rng.random((4, 4)) for _ in range(4)]
        images = [base[0], base[1], 2.0 * base[2] + 1.0, np.full((4, 4), 0.3), base[2].copy(), base[3],
                  base[2] * 0.5 - 0.25, base[2].copy(), 3.0 * base[0] - 1.0, base[0].copy()]
        queries = [base[2], rng.random((4, 4)), np.full((4, 4), 0.5), 0.5 * base[0] + 0.1, base[2] * 1e-160,
                   -base[3], base[2] * 4.0 + 2.0, rng.random((4, 4)) * 1e-160, base[1]]
        cfg = MatchConfig(metric=SimilarityKind.PCC)
        # with one candidate at 1e-160 the stack is unscreenable: every band holds all ten candidates
        for tiny_candidate in (False, True):
            candidates = list(enumerate(images[:-1] + [images[-1] * (1e-160 if tiny_candidate else 1.0)]))
            got = _Candidates(candidates, cfg).best_many(queries)
            assert result_bits(got) == result_bits([argmax(q, candidates, cfg) for q in queries])
            assert got[2] == (0, -1.0)  # a flat query scores -1 against every candidate: the first key wins

    def test_unscreenable_full_chunk_stays_within_readme_bound(self):
        # README: besides the stack, a chunk holds its centred queries and screened scores in float64,
        # a band mask of one byte per pair, and one block of _REDUCE_BLOCK float64 for the exact re-score
        rng = np.random.default_rng(12)
        n, side = 2048, 8
        images = [rng.random((side, side)) for _ in range(n)]
        images[7] = images[7] * 1e-160
        prepared = _Candidates(list(enumerate(images)), MatchConfig(metric=SimilarityKind.PCC))
        assert not prepared.screenable
        chunk = min(n, side * side)  # the cap: every pair of the chunk lies in the band
        queries = [rng.random((side, side)) for _ in range(chunk)]
        prepared.best_many(queries[:2])  # numpy's first calls allocate caches of their own
        tracemalloc.start()
        try:
            got = prepared.best_many(queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 8 * (chunk * side * side + n * chunk) + n * chunk + 8 * scoring._REDUCE_BLOCK
        assert peak <= bound, f"traced peak {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"
        candidates = list(enumerate(images))
        for i in (0, chunk - 1):
            assert result_bits([got[i]]) == result_bits([argmax(queries[i], candidates, prepared.cfg)])


def _tiny_pixel_row(rng, tiny):
    """A 4 x 4 image of +-pairs plus one tiny pixel and a 0 as its partner: its mean is tiny / 16, so the tiny
    pixel's deviation is nonzero and far below 2**-400 while its mean square is of order 1."""
    h = rng.random(7) - 0.5
    return np.concatenate((h, [tiny], -h, [0.0])).reshape(4, 4)


def _in_range(v):
    return (v >= _V_MIN) & (v <= _V_MAX)


class TestScreenPrecondition:
    @pytest.mark.parametrize("block", [1, 64, 96, scoring._REDUCE_BLOCK])
    def test_rows_with_tiny_deviations_screen_and_match_oracle(self, monkeypatch, block):
        # every row here has a nonzero deviation below 2**-400, so a mask on single deviations would refuse it;
        # its mean square lies in [_V_MIN, _V_MAX], so it screens. Products of deviations underflow, gradually
        # or to 0 (1e-200 * 1e-200, 5e-310 * 0.3, 2**-421 * 1e-200).
        monkeypatch.setattr(scoring, "_REDUCE_BLOCK", block)
        rng = np.random.default_rng(block)
        tiny = [_tiny_pixel_row(rng, t) for t in (1e-200, 5e-310, 1e-200, 5e-310)]
        scaled = [rng.random((4, 4)) * 2.0**-420 for _ in range(2)]
        images = [tiny[0], scaled[0], tiny[1], tiny[0] * 0.5, scaled[1], tiny[2], scaled[0] * 3.0, tiny[3], tiny[0].copy()]
        queries = [tiny[0], scaled[0] * 0.5, -tiny[1], tiny[3], scaled[1], tiny[2] * 2.0**-400,
                   _tiny_pixel_row(rng, 1e-200), np.full((4, 4), 0.1), rng.random((4, 4)) * 2.0**-420]
        d, v = _centred_rows(images)
        assert ((d != 0.0) & (np.abs(d) < 2.0**-400)).any(axis=1).all()
        dq, vq = _centred_rows(queries)
        assert ((dq != 0.0) & (np.abs(dq) < 2.0**-400)).any(axis=1).sum() == len(queries) - 1  # all but the flat one
        assert _in_range(v).all() and (_in_range(vq) == (vq != 0.0)).all()
        cfg = MatchConfig(metric=SimilarityKind.PCC)
        candidates = list(enumerate(images))
        prepared = _Candidates(candidates, cfg)
        assert prepared.screenable
        got = prepared.best_many(queries)
        assert result_bits(got) == result_bits([argmax(q, candidates, cfg) for q in queries])
        assert got[0][0] == 0 and got[7] == (0, -1.0)

    @pytest.mark.parametrize(
        "scale, screens",
        [(2.0**-450, True), (2.0**-451, False), (2.0**350, True), (2.0**351, False)],
        ids=["2**-450", "2**-451", "2**350", "2**351"],
    )
    def test_bounds_are_inclusive(self, rng, scale, screens):
        edge = np.array([[1.0, -1.0], [-1.0, 1.0]]) * scale  # mean 0 and mean square scale**2, exactly
        assert _centred_rows([edge])[1][0] == scale * scale
        images = [rng.random((2, 2)) for _ in range(4)]
        cfg = MatchConfig(metric=SimilarityKind.PCC)
        candidates = list(enumerate(images[:2] + [edge] + images[2:]))
        prepared = _Candidates(candidates, cfg)
        assert prepared.screenable is screens
        queries = [edge, -edge, images[0], images[3] * scale]
        got = prepared.best_many(queries)
        assert result_bits(got) == result_bits([argmax(q, candidates, cfg) for q in queries])
        assert got[0][0] == 2

    @pytest.mark.parametrize("scale", [2.0**-455, 2.0**356], ids=["2**-455", "2**356"])
    def test_row_outside_the_bounds_leaves_the_stack_unscreenable(self, rng, scale):
        images = [rng.random((4, 4)) for _ in range(6)]
        images[4] = images[4] * scale  # a mean square below 2**-900 or above 2**700
        assert not _in_range(_centred_rows([images[4]])[1]).any()
        cfg = MatchConfig(metric=SimilarityKind.PCC)
        candidates = list(enumerate(images))
        prepared = _Candidates(candidates, cfg)
        assert not prepared.screenable
        queries = [images[1], images[4], images[2] * scale, rng.random((4, 4))]
        got = prepared.best_many(queries)
        assert result_bits(got) == result_bits([argmax(q, candidates, cfg) for q in queries])
        assert [key for key, _ in got[:3]] == [1, 4, 2]

    def test_random_stacks_of_tiny_and_scaled_rows_match_oracle(self):
        rng = np.random.default_rng(19)
        cfg = MatchConfig(metric=SimilarityKind.PCC)
        refused = 0
        for _ in range(150):
            rows = []
            for kind in rng.integers(0, 4, size=10):
                if kind == 0:
                    img = _tiny_pixel_row(rng, rng.choice([1e-200, 5e-310, 1e-320]))
                elif kind == 1:
                    img = rng.random((4, 4)) * 2.0 ** float(rng.integers(-440, -379))
                elif kind == 2:
                    img = rows[rng.integers(len(rows))] * rng.choice([1.0, -2.0, 0.5]) if rows else rng.random((4, 4))
                else:
                    img = rng.random((4, 4))
                rows.append(img)
            candidates = list(enumerate(rows[:6]))
            d, _ = _centred_rows(rows[:6])
            refused += bool(((d != 0.0) & (np.abs(d) < 2.0**-400)).any())
            got = _Candidates(candidates, cfg).best_many(rows[6:])
            assert result_bits(got) == result_bits([argmax(q, candidates, cfg) for q in rows[6:]])
        assert refused > 50


class TestFingerprint:
    @pytest.mark.parametrize("layout", ["C", "F", "transposed"])
    def test_digest_equals_c_order_little_endian_bytes(self, rng, layout):
        data = rng.random((3, 5, 7)).astype(np.float32)
        data = {"C": data, "F": np.asfortranarray(data), "transposed": data.transpose(0, 2, 1)}[layout]
        ds = Dataset("HR", (Volume("b", data), Volume("a", data[::-1])))
        assert ds.volumes[1].data.flags.c_contiguous == (layout == "C")  # the layout reaches the volume
        h = hashlib.sha256(b"HR")
        for v in ds.volumes:  # the digest as first defined: two payload copies per volume
            h.update(v.patient_id.encode())
            h.update(np.int64(v.data.shape).tobytes())
            h.update(v.data.astype("<f4").tobytes())
        assert dataset_fingerprint(ds) == "sha256:" + h.hexdigest()


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
            means = [(v, v.data.mean(axis=0, dtype=np.float64)) for v in hr.volumes]
            hr_vol, _ = argmax(lr_vol.data.mean(axis=0, dtype=np.float64), means, SMALL_CFG)
            pid = hr_vol.patient_id
            for s_idx in range(lr_vol.n_slices):
                expected_slice = best_slice(lr_vol.data[s_idx], hr_vol, SMALL_CFG)
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

    @pytest.mark.parametrize("levels", list(MatchLevels), ids=lambda lv: lv.value)
    @pytest.mark.parametrize("metric", list(SimilarityKind), ids=lambda m: m.value)
    def test_dimension_mismatch_rejected(self, metric, levels):
        a = generate_dataset(PhantomSpec(seed=1, patients=1, slices_per_patient=1, size=48))
        b = generate_dataset(PhantomSpec(seed=1, patients=1, slices_per_patient=1, size=64), label="LR")
        cfg = dataclasses.replace(SMALL_CFG, metric=metric, levels=levels)
        with pytest.raises(ValueError, match=r"uniform dimensions, got \[\(48, 48\), \(64, 64\)\]"):
            match_hierarchical(b, a, cfg)
        # one odd volume among same-shaped ones, in either set
        mixed = (Volume("A", a.volumes[0].data), Volume("B", b.volumes[0].data), Volume("C", a.volumes[0].data))
        with pytest.raises(ValueError, match=r"uniform dimensions, got \[\(48, 48\), \(64, 64\)\]"):
            match_hierarchical(Dataset("LR", mixed), a, cfg)
        with pytest.raises(ValueError, match=r"uniform dimensions, got \[\(48, 48\), \(64, 64\)\]"):
            match_hierarchical(Dataset("LR", a.volumes), Dataset("HR", mixed), cfg)

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

    def test_pcc_volume_batches_with_blank_and_tiny_slices_equal_oracle(self, rng):
        # float32 volumes never reach PCC's scalar fallback (their products of deviations stay in
        # float64 range), so the tiny volume here is subnormal float32 and the 1e-160 case is
        # TestPreparedCandidates's; a blank LR slice is a batch's flat queries
        a, b, c = (rng.random((2, 12, 12)) for _ in range(3))
        a[1] = 0.0
        hr_a, hr_b = rng.random((2, 12, 12)), rng.random((2, 12, 12))
        hr_a[1] = 0.0  # a flat HR slice: its windows score -1
        hr_b[0] = c[0]  # an LR slice found verbatim
        lr = Dataset("LR", (Volume("A", a), Volume("B", b * 2.0**-140), Volume("C", c)))
        hr = Dataset("HR", (Volume("P", hr_a), Volume("Q", hr_b)))
        cfg = MatchConfig(patch_size=6, stride=3, metric=SimilarityKind.PCC)
        m = match_exhaustive(lr, hr, cfg)
        assert manifest_tuples(m) == triple_loop_exhaustive(lr, hr, cfg)
        assert all(r.weight == 0.0 for r in m.records if (r.lr.patient_id, r.lr.slice_index) == ("A", 1))
        assert all(r.weight > 1.0 - 1e-12 for r in m.records if (r.lr.patient_id, r.lr.slice_index) == ("C", 0))

    def test_pcc_batch_larger_than_cap_is_split_and_equals_oracle(self, rng, monkeypatch):
        hr_data = rng.random((2, 12, 12))
        hr_data[1] = hr_data[0]  # ties across slices go to the smaller slice
        hr = Dataset("HR", (Volume("P", hr_data), Volume("R", rng.random((1, 12, 12)))))
        lr_data = rng.random((2, 12, 12))
        lr_data[1, :6] = 0.5  # flat patches inside a batch
        lr = Dataset("LR", (Volume("A", lr_data), Volume("B", hr_data[:1])))
        cfg = MatchConfig(patch_size=4, stride=2, metric=SimilarityKind.PCC)  # 25 patches of P = 16 px per slice
        sizes, best_pcc = [], _Candidates._best_pcc
        monkeypatch.setattr(_Candidates, "_best_pcc", lambda self, qs: sizes.append(len(qs)) or best_pcc(self, qs))
        m = match_exhaustive(lr, hr, cfg)
        assert sizes == [16, 16, 16, 2, 16, 9]  # 50 and 25 queries, at most min(75 candidates, 16 px) per product
        assert manifest_tuples(m) == triple_loop_exhaustive(lr, hr, cfg)


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
    @given(
        st.text(st.characters(exclude_categories=()), max_size=12) | st.sampled_from(['"', "\\", "\u00e9", "\x00\n\x1f", "\ud800"]),
        st.integers(0, 2**70),
        st.integers(0, 2**70),
        st.integers(0, 2**70),
        st.integers(1, 2**70),
    )
    @settings(max_examples=300, deadline=None)
    def test_ref_json_equals_dict_dumps(self, patient, slice_index, row, col, size):
        ref = PatchRef(patient, slice_index, row, col, size)
        assert _ref_to_json(ref) == ref_to_json_dict(ref)

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

    @pytest.mark.parametrize("edit, message", [
        (lambda header: "", "empty manifest file"),
        (lambda header: header.replace('"patchpair-manifest/1"', '"patchpair-manifest/2"'), "bad header \\('format'\\)"),
        (lambda header: header.replace('"format": "patchpair-manifest/1", ', ""), "bad header \\('format'\\)"),
    ], ids=["empty", "other-format", "no-format"])
    def test_empty_file_or_other_format_names_line_one(self, tmp_path, edit, message):
        header = manifest_to_bytes(fabricated_manifest([])).decode()
        assert header.startswith('{"format": "patchpair-manifest/1", ') and header.count("\n") == 1
        path = tmp_path / "m.jsonl"
        path.write_text(edit(header))
        with pytest.raises(ValueError, match=f"m.jsonl: parse error at line 1: {message}"):
            read_manifest(path)

    @pytest.mark.parametrize("weight", [1.5, -0.25, float("nan")])
    def test_record_weight_outside_unit_interval_rejected(self, weight):
        ref = PatchRef("a", 0, 0, 0, 16)
        with pytest.raises(ValueError, match=r"weight .* outside \[0, 1\]"):
            MatchRecord(ref, ref, weight)

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

    @pytest.mark.parametrize(
        "side, key, value, message",
        [
            ("lr", "row", 1.9, "row must be a JSON integer, got 1.9"),
            ("lr", "slice", True, "slice must be a JSON integer, got True"),
            ("hr", "col", 0.0, "col must be a JSON integer, got 0.0"),
            ("hr", "size", 16.5, "size must be a JSON integer, got 16.5"),
            ("hr", "patient", 7, "patient must be a JSON string, got 7"),
            (None, "weight", "0.5", "weight must be a JSON number, got '0.5'"),
            (None, "weight", False, "weight must be a JSON number, got False"),
        ],
    )
    def test_mistyped_record_field_names_line(self, tmp_path, side, key, value, message):
        head, first, second = manifest_to_bytes(fabricated_manifest([0.5, 0.6])).decode().splitlines()
        obj = json.loads(second)
        (obj if side is None else obj[side])[key] = value
        path = tmp_path / "m.jsonl"
        path.write_text("\n".join([head, first, json.dumps(obj)]) + "\n")
        with pytest.raises(ValueError, match=f"parse error at line 3: {message}$"):
            read_manifest(path)

    @pytest.mark.parametrize(
        "side, key", [(None, "weight"), (None, "lr"), (None, "hr"), ("lr", "patient"), ("hr", "size"), ("lr", "slice")]
    )
    def test_record_missing_key_names_line(self, tmp_path, side, key):
        head, first, second = manifest_to_bytes(fabricated_manifest([0.5, 0.6])).decode().splitlines()
        obj = json.loads(second)
        del (obj if side is None else obj[side])[key]
        path = tmp_path / "m.jsonl"
        path.write_text("\n".join([head, first, json.dumps(obj)]) + "\n")
        with pytest.raises(ValueError, match=f"parse error at line 3: '{key}'$"):
            read_manifest(path)

    @pytest.mark.parametrize(
        "edits, message",
        [
            ({"slice": True, "row": None}, "slice must be a JSON integer, got True"),
            ({"patient": 7, "slice": None}, "patient must be a JSON string, got 7"),
            ({"row": None, "col": 0.5}, "'row'"),
            ({"col": "0", "size": 1.0}, "col must be a JSON integer, got '0'"),
        ],
        ids=["mistyped-then-missing", "patient-then-missing", "missing-then-mistyped", "two-mistyped"],
    )
    def test_first_failing_ref_key_in_key_order_is_named(self, tmp_path, edits, message):
        # a ref's keys are read in the order patient, slice, row, col, size; None deletes the key
        head, first, second = manifest_to_bytes(fabricated_manifest([0.5, 0.6])).decode().splitlines()
        obj = json.loads(second)
        for key, value in edits.items():
            if value is None:
                del obj["hr"][key]
            else:
                obj["hr"][key] = value
        path = tmp_path / "m.jsonl"
        path.write_text("\n".join([head, first, json.dumps(obj)]) + "\n")
        with pytest.raises(ValueError, match=f"parse error at line 3: {message}$"):
            read_manifest(path)

    def test_each_patient_id_written_as_json_dumps(self):
        # manifest_to_bytes quotes each distinct id once per call; every record must still be the dict's json.dumps
        ids = ["a", 'q"', "\u00e9", "b\\", "a"]
        records = [
            MatchRecord(PatchRef(ids[i % 5], i, 0, 0, 16), PatchRef(ids[(3 * i + 1) % 5], 0, i, 1, 16), w)
            for i, w in enumerate([0.5, 0.25, 1.0, 0.0, 0.75, 0.5, 0.125])
        ]
        m = dataclasses.replace(fabricated_manifest([]), records=records)
        lines = manifest_to_bytes(m).decode().splitlines()[1:]
        assert len(lines) == len(records)
        for line, r in zip(lines, records):
            weight = int(r.weight) if r.weight in (0.0, 1.0) else r.weight  # the writer's .17g drops ".0"
            obj = {"lr": json.loads(ref_to_json_dict(r.lr)), "hr": json.loads(ref_to_json_dict(r.hr)), "weight": weight}
            assert line == json.dumps(obj)

    @pytest.mark.parametrize("key, value", [("patch_size", 16.0), ("stride", True), ("bins", "64")])
    def test_mistyped_header_integer_names_line_one(self, tmp_path, key, value):
        head, *records = manifest_to_bytes(fabricated_manifest([0.5])).decode().splitlines()
        header = json.loads(head)
        header["config"][key] = value
        path = tmp_path / "m.jsonl"
        path.write_text("\n".join([json.dumps(header)] + records) + "\n")
        with pytest.raises(ValueError, match=f"line 1: bad header \\({key} must be a JSON integer"):
            read_manifest(path)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("threshold", "0.4", "threshold must be a JSON number, got '0.4'"),
            ("threshold", True, "threshold must be a JSON number, got True"),
            ("gamma", True, "gamma must be a JSON number, got True"),
            ("value_range", [True, 2], "value_range must be a JSON number, got True"),
            ("value_range", [0.0, "1"], "value_range must be a JSON number, got '1'"),
        ],
    )
    def test_mistyped_header_number_names_line_one(self, tmp_path, key, value, message):
        head, *records = manifest_to_bytes(fabricated_manifest([0.5])).decode().splitlines()
        header = json.loads(head)
        header["config"][key] = value
        path = tmp_path / "m.jsonl"
        path.write_text("\n".join([json.dumps(header)] + records) + "\n")
        with pytest.raises(ValueError, match=f"parse error at line 1: bad header \\({message}\\)$"):
            read_manifest(path)

    def test_integer_weights_read_as_floats(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write_manifest(fabricated_manifest([0.0, 1.0]), path)
        assert path.read_text().count('"weight": 0}') == path.read_text().count('"weight": 1}') == 1
        assert [r.weight for r in read_manifest(path).records] == [0.0, 1.0]

    def test_manifest_carries_dataset_fingerprints(self, tmp_path):
        hr, lr = tiny_pair(seed=67, patients=1, slices=1)
        m = match_hierarchical(lr, hr, SMALL_CFG)
        path = tmp_path / "m.jsonl"
        write_manifest(m, path)
        assert m.lr_fingerprint == dataset_fingerprint(lr)
        assert m.hr_fingerprint == dataset_fingerprint(hr)
        back = read_manifest(path)
        assert (back.lr_fingerprint, back.hr_fingerprint) == (dataset_fingerprint(lr), dataset_fingerprint(hr))
        assert dataset_fingerprint(lr) != dataset_fingerprint(hr)

    def test_record_weight_past_float_range_names_line(self, tmp_path):
        head, first, second = manifest_to_bytes(fabricated_manifest([0.5, 0.6])).decode().splitlines()
        obj = json.loads(second)
        obj["weight"] = int("1" * 401)  # a JSON integer that float() cannot hold
        path = tmp_path / "m.jsonl"
        path.write_text("\n".join([head, first, json.dumps(obj)]) + "\n")
        with pytest.raises(ValueError, match="parse error at line 3: int too large to convert to float$"):
            read_manifest(path)

    @pytest.mark.parametrize("key", ["threshold", "gamma"])
    def test_header_number_past_float_range_names_line_one(self, tmp_path, key):
        head, *records = manifest_to_bytes(fabricated_manifest([0.5])).decode().splitlines()
        header = json.loads(head)
        header["config"][key] = int("1" * 401)
        path = tmp_path / "m.jsonl"
        path.write_text("\n".join([json.dumps(header)] + records) + "\n")
        with pytest.raises(ValueError, match=r"parse error at line 1: bad header \(int too large to convert to float\)$"):
            read_manifest(path)

    @pytest.mark.parametrize("line, offset", [(1, 0), (3, 40), (3, -1)], ids=["header", "record", "newline"])
    def test_byte_that_is_not_utf8_names_line(self, tmp_path, line, offset):
        lines = manifest_to_bytes(fabricated_manifest([0.5, 0.6])).splitlines(keepends=True)
        raw = bytearray(lines[line - 1])
        raw[offset] = 0xFF
        path = tmp_path / "m.jsonl"
        path.write_bytes(b"".join(lines[: line - 1] + [bytes(raw)] + lines[line:]))
        with pytest.raises(ValueError, match=f"parse error at line {line}: 'utf-8' codec can't decode byte 0xff"):
            read_manifest(path)

    def test_failed_write_leaves_the_old_file_and_no_temporary_file(self, tmp_path, monkeypatch):
        path = tmp_path / "m.jsonl"
        write_manifest(fabricated_manifest([0.5]), path)
        old = path.read_bytes()

        def refuse(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="no space left"):
            write_manifest(fabricated_manifest([0.5, 0.6]), path)
        assert [p.name for p in tmp_path.iterdir()] == ["m.jsonl"]
        assert path.read_bytes() == old

    def test_write_to_a_pipe_goes_through_it(self, tmp_path):
        # a pipe, like /dev/stdout, is written to, not replaced by a regular file
        path = tmp_path / "fifo"
        os.mkfifo(path)
        got = []
        reader = threading.Thread(target=lambda: got.append(path.read_bytes()), daemon=True)
        reader.start()
        write_manifest(fabricated_manifest([0.5]), path)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == [manifest_to_bytes(fabricated_manifest([0.5]))]
        assert stat.S_ISFIFO(path.stat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["fifo"]


@st.composite
def manifests(draw):
    """A manifest as the writer can emit it: any config, fingerprint text and patient ids, weights in [0, 1], and
    LR refs in strictly increasing (patient, slice, row, col) order."""
    size = draw(st.integers(1, 2**40))
    gamma = draw(st.none() | st.floats(1e-150, 1e300))
    value_range = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2, unique=True))
    cfg = MatchConfig(
        patch_size=size,
        stride=draw(st.integers(1, size)),
        metric=draw(st.sampled_from(SimilarityKind)),
        hist=HistogramSpec(bins=draw(st.integers(2, 2**40)), value_range=tuple(sorted(value_range))),
        rbf=RbfParams(gamma=gamma),
        threshold=draw(st.floats(0.0, 1.0)),
        levels=draw(st.sampled_from(MatchLevels)),
    )
    ints = st.integers(0, 2**40)
    keys = sorted(draw(st.lists(st.tuples(st.text(max_size=4), ints, ints, ints), unique=True, max_size=5)))
    records = [
        MatchRecord(PatchRef(*key, size), PatchRef(draw(st.text(max_size=4)), *draw(st.tuples(ints, ints, ints)), size),
                    draw(st.floats(0.0, 1.0) | st.just(-0.0)))
        for key in keys
    ]
    return Manifest(records, cfg, draw(st.text(max_size=8)), draw(st.text(max_size=8)))


class TestManifestProperties:
    @given(manifests())
    @settings(max_examples=200, deadline=None)
    def test_write_and_read_keep_every_byte(self, m):
        raw = manifest_to_bytes(m)
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "m.jsonl"
            write_manifest(m, path)
            assert path.read_bytes() == raw
            back = read_manifest(path)
        assert back == m
        assert manifest_to_bytes(back) == raw

    @given(manifests(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_manifest_parses_or_names_a_line(self, m, data):
        # a cut at a line boundary still parses: the /1 format does not carry its record count
        raw = manifest_to_bytes(m)
        how = data.draw(st.sampled_from(["cut", "flip", "drop"]))
        if how == "drop":
            lines = raw.splitlines(keepends=True)
            k = data.draw(st.integers(0, len(lines) - 1))
            fuzzed = b"".join(lines[:k] + lines[k + 1 :])
        else:
            k = data.draw(st.integers(0, len(raw) - 1))
            flipped = bytes([raw[k] ^ data.draw(st.integers(1, 255))])
            fuzzed = raw[:k] if how == "cut" else raw[:k] + flipped + raw[k + 1 :]
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "m.jsonl"
            path.write_bytes(fuzzed)
            try:
                read_manifest(path)
            except ValueError as e:  # any other exception fails the test
                named = re.match(f"{re.escape(str(path))}: parse error at line ([0-9]+): ", str(e))
                assert named, str(e)
                assert 1 <= int(named[1]) <= max(1, len(fuzzed.decode("utf-8", "replace").splitlines()))
