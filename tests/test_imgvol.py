import json
import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from patchpair import (
    Dataset,
    PatchRef,
    Volume,
    gaussian_blur,
    load_dataset,
    load_volume,
    normalize_volume,
    rmse,
    save_dataset,
    save_volume,
)
from patchpair.imgvol import require_image


def test_volume_validation():
    with pytest.raises(ValueError):
        Volume("p", np.zeros((4, 4)))  # not 3D
    with pytest.raises(ValueError):
        Volume("p", np.full((1, 2, 2), np.nan))
    v = Volume("p", np.zeros((2, 4, 4)))
    assert (v.n_slices, v.height, v.width) == (2, 4, 4)
    assert not v.data.flags.writeable


def test_dataset_unique_ids():
    v = Volume("p", np.zeros((1, 4, 4)))
    with pytest.raises(ValueError):
        Dataset("LR", (v, v))
    with pytest.raises(ValueError):
        Dataset("XX", (v,))
    ds = Dataset("LR", (v,))
    assert ds.volumes[0] is v


def test_dataset_needs_a_volume():
    with pytest.raises(ValueError, match="empty HR dataset"):
        Dataset("HR", ())


@pytest.mark.parametrize("pid", [5, "", None])
def test_patient_id_must_be_nonempty_string(pid):
    with pytest.raises(ValueError, match="patient id must be a non-empty string"):
        Volume(pid, np.zeros((1, 2, 2)))


@pytest.mark.parametrize("pid", ["../escaped", "a/b", "a\\b", ".", ".."])
def test_patient_id_must_be_plain_file_name(pid):
    with pytest.raises(ValueError, match="patient id must be a plain file name"):
        Volume(pid, np.zeros((1, 2, 2)))


def test_numeric_sidecar_patient_id_names_file(tmp_path):
    save_volume(Volume("n", np.zeros((1, 2, 2))), tmp_path / "n.vol")
    (tmp_path / "n.vol.json").write_text('{"patient_id": 5, "height": 2, "width": 2, "slices": 1}')
    with pytest.raises(ValueError, match=r"n\.vol: patient id must be a non-empty string, got 5"):
        load_volume(tmp_path / "n.vol")


def test_duplicate_ids_across_files_name_directory(tmp_path):
    v = Volume("p", np.zeros((1, 2, 2)))
    save_volume(v, tmp_path / "a.vol")
    save_volume(v, tmp_path / "b.vol")
    with pytest.raises(ValueError, match="duplicate patient ids") as info:
        load_dataset(tmp_path, "LR")
    assert str(info.value).startswith(f"{tmp_path}: ")


def test_sidecar_id_must_equal_the_file_name(tmp_path):
    save_volume(Volume("P000", np.zeros((1, 2, 2))), tmp_path / "P000.vol")
    save_volume(Volume("P001", np.zeros((1, 2, 2))), tmp_path / "Q.vol")
    with pytest.raises(ValueError) as info:
        load_dataset(tmp_path, "HR")
    assert str(info.value) == f"{tmp_path / 'Q.vol'}: sidecar patient_id 'P001' differs from the file name 'Q'"


def test_constant_volume_roundtrip(tmp_path):
    v = Volume("c", np.full((2, 256, 256), 0.5, dtype=np.float32))
    path = tmp_path / "c.vol"
    save_volume(v, path)
    loaded = load_volume(path)
    assert loaded.n_slices == 2
    assert np.all(loaded.data == 0.5)
    assert loaded == v


def test_roundtrip_bit_exact(tmp_path, rng):
    v = Volume("r", rng.random((3, 17, 23)))
    save_volume(v, tmp_path / "r.vol")
    loaded = load_volume(tmp_path / "r.vol")
    assert loaded.patient_id == "r"
    assert np.array_equal(loaded.data, v.data)
    assert loaded.data.dtype == np.float32


@pytest.mark.parametrize("layout", ["fortran", "transposed"])
def test_payload_is_row_major_for_any_layout(tmp_path, rng, layout):
    data = rng.random((3, 17, 23)).astype(np.float32)
    given = np.asfortranarray(data) if layout == "fortran" else data.transpose(0, 2, 1).copy().transpose(0, 2, 1)
    v = Volume("r", given)
    assert not v.data.flags.c_contiguous
    save_volume(v, tmp_path / "r.vol")
    assert (tmp_path / "r.vol").read_bytes() == data.astype("<f4").tobytes()
    assert np.array_equal(load_volume(tmp_path / "r.vol").data, data)


def test_payload_length_mismatch(tmp_path):
    v = Volume("m", np.zeros((2, 8, 8)))
    path = tmp_path / "m.vol"
    save_volume(v, path)
    header = (tmp_path / "m.vol.json").read_text().replace('"slices": 2', '"slices": 3')
    (tmp_path / "m.vol.json").write_text(header)
    with pytest.raises(ValueError, match=f"^length mismatch for {path}: payload 512 bytes, header implies 768$"):
        load_volume(path)


def test_load_holds_the_payload_once(tmp_path):
    v = Volume("p", np.random.default_rng(3).random((32, 256, 256), dtype=np.float32))  # 8 MiB
    save_volume(v, tmp_path / "p.vol")
    tracemalloc.start()
    try:
        loaded = load_volume(tmp_path / "p.vol")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * v.data.nbytes, f"traced peak {peak / 2**20:.2f} MiB"
    assert loaded == v
    assert loaded.data.dtype == np.float32 and loaded.data.dtype.isnative and not loaded.data.flags.writeable


def test_missing_and_bad_headers(tmp_path):
    path = tmp_path / "x.vol"
    with pytest.raises(FileNotFoundError):
        load_volume(path)
    path.write_bytes(b"\x00" * 4)
    with pytest.raises(FileNotFoundError, match="sidecar"):
        load_volume(path)
    (tmp_path / "x.vol.json").write_text('{"patient_id": "x", "height": 0, "width": 1, "slices": 1}')
    with pytest.raises(ValueError, match="contradictory"):
        load_volume(path)
    (tmp_path / "x.vol.json").write_text('{"patient_id": "x"}')
    with pytest.raises(ValueError):
        load_volume(path)


@pytest.mark.parametrize("text", ["", "{", '{"patient_id": "u", "height": 2,}', "not json"])
def test_unparsable_sidecar_names_file(tmp_path, text):
    save_volume(Volume("u", np.zeros((1, 2, 2))), tmp_path / "u.vol")
    hpath = tmp_path / "u.vol.json"
    hpath.write_text(text)
    with pytest.raises(ValueError, match=f"^unreadable sidecar header {hpath}: "):
        load_volume(tmp_path / "u.vol")


@pytest.mark.parametrize("check", [lambda img: rmse(img, img), lambda img: gaussian_blur(img, 1.0)],
                         ids=["rmse", "gaussian_blur"])
@pytest.mark.parametrize("img, message", [
    (np.zeros((2, 3, 4)), r"expected a non-empty 2D image, got shape \(2, 3, 4\)"),
    (np.zeros((0, 4)), r"expected a non-empty 2D image, got shape \(0, 4\)"),
    (np.array([[0.5, np.nan], [0.1, 0.2]]), "image contains non-finite values"),
], ids=["3-D", "empty", "nan"])
def test_require_image_refuses(check, img, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        check(img)


@pytest.mark.parametrize("order", ["C", "F"])
def test_require_image_hands_a_float64_array_back_as_itself(order):
    img = np.asarray(np.arange(12.0).reshape(3, 4) / 11.0, order=order)
    assert require_image(img) is img


@pytest.mark.parametrize("img", [np.full((2, 3), 0.25, dtype=np.float32), np.arange(6).reshape(2, 3),
                                 [[0.0, 0.5], [1.0, 0.25]]], ids=["float32", "int", "list"])
def test_require_image_converts_other_inputs_to_a_new_float64_array(img):
    out = require_image(img)
    assert out.dtype == np.float64 and out is not img and not np.shares_memory(out, img)
    assert np.array_equal(out, np.asarray(img, dtype=np.float64))


@pytest.mark.parametrize("fields", [(-1, 0, 0, 4), (0, -1, 0, 4), (0, 0, -1, 4), (0, 0, 0, 0)],
                         ids=["slice", "row", "col", "size"])
def test_patch_ref_refuses_negative_position_or_empty_size(fields):
    with pytest.raises(ValueError, match="^invalid patch reference PatchRef"):
        PatchRef("p", *fields)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"slices": 2.9, "height": True, "width": 12}, "height must be a JSON integer, got True"),
        ({"slices": 2.0}, "slices must be a JSON integer, got 2.0"),
        ({"width": "4"}, "width must be a JSON integer, got '4'"),
    ],
)
def test_sidecar_dimensions_must_be_json_integers(tmp_path, fields, message):
    save_volume(Volume("i", np.zeros((2, 3, 4))), tmp_path / "i.vol")
    hpath = tmp_path / "i.vol.json"
    hpath.write_text(json.dumps({**json.loads(hpath.read_text()), **fields}))
    with pytest.raises(ValueError, match=f"contradictory or incomplete header {hpath}: {message}$"):
        load_volume(tmp_path / "i.vol")


def test_single_pixel_payload(tmp_path):
    save_volume(Volume("t", np.full((1, 1, 1), 0.25)), tmp_path / "t.vol")
    raw = (tmp_path / "t.vol").read_bytes()
    assert raw == np.float32(0.25).tobytes()
    assert len(raw) == 4


def test_nonfinite_payload_rejected(tmp_path):
    path = tmp_path / "n.vol"
    path.write_bytes(np.array([np.inf], dtype="<f4").tobytes())
    (tmp_path / "n.vol.json").write_text('{"patient_id": "n", "height": 1, "width": 1, "slices": 1}')
    with pytest.raises(ValueError, match="non-finite") as info:
        load_volume(path)
    assert str(info.value).startswith(f"{path}: ")


def test_save_unwritable_path(tmp_path):
    v = Volume("u", np.zeros((1, 2, 2)))
    with pytest.raises(OSError):
        save_volume(v, tmp_path / "no" / "such" / "dir" / "u.vol")


def test_normalize_volume():
    v = Volume("n", np.array([[[2.0, 4.0]], [[6.0, 4.0]]]))
    out = normalize_volume(v)
    assert np.array_equal(out.data, np.array([[[0.0, 0.5]], [[1.0, 0.5]]], dtype=np.float32))

    already = Volume("a", np.array([[[0.0, 0.25], [0.75, 1.0]]]))
    assert normalize_volume(already) == already

    const = Volume("c", np.full((2, 3, 3), 7.0))
    assert np.all(normalize_volume(const).data == 0.0)


def test_normalize_range_property(rng):
    v = Volume("p", rng.random((2, 9, 9)) * 13 - 5)
    out = normalize_volume(v).data
    assert float(out.min()) == 0.0
    assert float(out.max()) == 1.0


def test_dataset_dir_roundtrip(tmp_path, small_dataset):
    save_dataset(small_dataset, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds", "HR")
    assert loaded == small_dataset
    with pytest.raises(ValueError, match="no .*vol"):
        load_dataset(tmp_path, "HR")


def files(d):
    return {p.name: p.read_bytes() for p in Path(d).iterdir()}


@given(
    st.text(min_size=1, max_size=12).filter(lambda s: "/" not in s and "\\" not in s and s not in (".", "..")),
    hnp.arrays(np.float32, hnp.array_shapes(min_dims=3, max_dims=3, max_side=5), elements=st.floats(width=32, allow_nan=False, allow_infinity=False)),
)
@settings(max_examples=150, deadline=None)
def test_volume_survives_a_write_and_a_read_byte_for_byte(pid, data):
    v = Volume(pid, data)
    with tempfile.TemporaryDirectory() as d:
        save_volume(v, Path(d) / "v.vol")
        written = files(d)
        assert sorted(written) == ["v.vol", "v.vol.json"]
        assert written["v.vol"] == data.astype("<f4").tobytes()
        back = load_volume(Path(d) / "v.vol")
        assert back.patient_id == pid
        assert back.data.tobytes() == v.data.tobytes()
        save_volume(back, Path(d) / "v.vol")
        assert files(d) == written


@pytest.mark.parametrize("refused", ["p.vol", "p.vol.json"], ids=["payload", "sidecar"])
def test_failed_save_leaves_the_old_file_and_no_temporary_file(tmp_path, monkeypatch, refused):
    save_volume(Volume("p", np.zeros((1, 2, 2))), tmp_path / "p.vol")
    old = files(tmp_path)
    replace = os.replace

    def refuse(src, dst):
        if Path(dst).name == refused:
            raise OSError("no space left on device")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="no space left"):
        save_volume(Volume("p", np.ones((2, 3, 3))), tmp_path / "p.vol")
    now = files(tmp_path)
    assert sorted(now) == ["p.vol", "p.vol.json"]  # no temporary file left behind
    assert now[refused] == old[refused]


def test_save_interrupted_before_its_renames_leaves_the_dataset_as_it_was(tmp_path, monkeypatch):
    old = Dataset("HR", (Volume("P000", np.zeros((1, 2, 2))),))
    save_dataset(old, tmp_path)
    monkeypatch.setattr(os, "replace", lambda src, dst: None)  # the process stops before each rename
    save_volume(Volume("P000", np.ones((3, 2, 2))), tmp_path / "P000.vol")
    monkeypatch.undo()
    temporary = sorted(set(files(tmp_path)) - {"P000.vol", "P000.vol.json"})
    assert len(temporary) == 2 and all(n.startswith(".P000.vol.") and n.endswith(".tmp") for n in temporary)
    assert load_dataset(tmp_path, "HR") == old  # *.vol matches no temporary file
