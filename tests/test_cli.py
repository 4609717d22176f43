import inspect
import math

import numpy as np
import pytest

from patchpair import (
    DegradeParams,
    HistogramSpec,
    LossBatch,
    LossWeights,
    MatchConfig,
    MatchLevels,
    PhantomSpec,
    SsimParams,
    Volume,
    evaluate_pair,
    filter_threshold,
    load_dataset,
    load_volume,
    match_exhaustive,
    match_hierarchical,
    read_manifest,
    save_volume,
    total_loss,
    weight_stats,
    write_loss_batch,
    write_manifest,
)
from patchpair.cli import build_parser, main
from patchpair.matching import manifest_to_bytes


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def demo_args(out_dir, seed=7):
    return [
        "demo", "--out", str(out_dir), "--patients", "2", "--slices", "2",
        "--size", "64", "--seed", str(seed),
    ]


def tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestDemo:
    def test_writes_lr_hr_tree(self, tmp_path, capsys):
        code, out, _ = run(capsys, *demo_args(tmp_path / "d"))
        assert code == 0
        assert sorted(p.name for p in (tmp_path / "d" / "hr").glob("*.vol")) == ["P000.vol", "P001.vol"]
        assert sorted(p.name for p in (tmp_path / "d" / "lr").glob("*.vol")) == ["P000.vol", "P001.vol"]
        vol = load_volume(tmp_path / "d" / "lr" / "P000.vol")
        assert vol.data.shape == (2, 64, 64)

    def test_same_seed_identical_trees(self, tmp_path, capsys):
        assert run(capsys, *demo_args(tmp_path / "a", seed=7))[0] == 0
        assert run(capsys, *demo_args(tmp_path / "b", seed=7))[0] == 0
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_zero_patients_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "demo", "--out", str(tmp_path), "--patients", "0")
        assert code == 2
        assert "usage" in err


@pytest.fixture
def demo_tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("demo")
    assert main(demo_args(root)) == 0
    return root


class TestPreprocessAndDegrade:
    def test_preprocess_mixed_sizes_to_uniform(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        rng = np.random.default_rng(0)
        save_volume(Volume("Pa", rng.random((2, 32, 32))), src / "Pa.vol")
        save_volume(Volume("Pb", rng.random((2, 48, 48))), src / "Pb.vol")
        code, out, _ = run(capsys, "preprocess", "--input", str(src), "--output",
                           str(tmp_path / "out"), "--target", "64")
        assert code == 0
        for name in ("Pa", "Pb"):
            assert load_volume(tmp_path / "out" / f"{name}.vol").data.shape == (2, 64, 64)

    def test_degrade_defaults(self, demo_tree, tmp_path, capsys):
        code, out, _ = run(capsys, "degrade", "--input", str(demo_tree / "hr"),
                           "--output", str(tmp_path / "deg"))
        assert code == 0
        assert load_volume(tmp_path / "deg" / "P000.vol").data.shape == (2, 64, 64)

    def test_degrade_indivisible_dims_names_volume(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        save_volume(Volume("Podd", np.random.default_rng(0).random((1, 33, 33))), src / "Podd.vol")
        code, _, err = run(capsys, "degrade", "--input", str(src), "--output", str(tmp_path / "o"))
        assert code == 1
        assert "Podd" in err


class TestMatch:
    def test_exhaustive_matches_library(self, demo_tree, tmp_path, capsys):
        out_path = tmp_path / "m.jsonl"
        code, out, _ = run(
            capsys, "match", "--lr", str(demo_tree / "lr"), "--hr", str(demo_tree / "hr"),
            "--out", str(out_path), "--levels", "exhaustive",
            "--patch-size", "32", "--stride", "16", "--bins", "32",
        )
        assert code == 0
        assert "records=" in out and "mean_weight=" in out
        lr_set = load_dataset(demo_tree / "lr", "LR")
        hr_set = load_dataset(demo_tree / "hr", "HR")
        cfg = MatchConfig(
            patch_size=32, stride=16, hist=HistogramSpec(bins=32), levels=MatchLevels.PATCH_ONLY
        )
        expected = match_exhaustive(lr_set, hr_set, cfg)
        assert out_path.read_bytes() == manifest_to_bytes(expected)

    def test_filter_flag_applies_threshold(self, demo_tree, tmp_path, capsys):
        out_path = tmp_path / "m.jsonl"
        code, _, _ = run(
            capsys, "match", "--lr", str(demo_tree / "lr"), "--hr", str(demo_tree / "hr"),
            "--out", str(out_path), "--patch-size", "32", "--stride", "16", "--bins", "32",
            "--threshold", "0.4", "--filter",
        )
        assert code == 0
        from patchpair import read_manifest

        m = read_manifest(out_path)
        assert all(r.weight > 0.4 for r in m.records)

    def test_missing_hr_dir_usage_error(self, demo_tree, tmp_path, capsys):
        code, _, err = run(
            capsys, "match", "--lr", str(demo_tree / "lr"), "--hr", str(tmp_path / "nope"),
            "--out", str(tmp_path / "m.jsonl"),
        )
        assert code == 2
        assert "usage" in err

    @pytest.mark.parametrize("flags, message", [
        (("--threshold", "1.5"), "threshold must be in [0, 1]"),
        (("--bins", "1"), "bins must be >= 2"),
        (("--gamma", "-1"), "gamma must be positive"),
        (("--patch-size", "16", "--stride", "32"), "need 0 < stride <= patch_size"),
        (("--gamma", "1e-300"), "2 * gamma**2 > 0"),
        (("--metric", "rbf", "--gamma", "inf"), "gamma must be positive and finite"),
    ])
    def test_invalid_config_usage_error(self, demo_tree, tmp_path, capsys, flags, message):
        code, _, err = run(
            capsys, "match", "--lr", str(demo_tree / "lr"), "--hr", str(demo_tree / "hr"),
            "--out", str(tmp_path / "m.jsonl"), *flags,
        )
        assert code == 2
        assert message in err
        assert not (tmp_path / "m.jsonl").exists()

    def test_repeat_runs_byte_identical(self, demo_tree, tmp_path, capsys):
        args = [
            "match", "--lr", str(demo_tree / "lr"), "--hr", str(demo_tree / "hr"),
            "--patch-size", "32", "--stride", "16", "--bins", "32",
        ]
        assert run(capsys, *args, "--out", str(tmp_path / "a.jsonl"))[0] == 0
        assert run(capsys, *args, "--out", str(tmp_path / "b.jsonl"))[0] == 0
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


@pytest.fixture
def manifest_path(demo_tree, tmp_path_factory):
    path = tmp_path_factory.mktemp("manifest") / "m.jsonl"
    code = main([
        "match", "--lr", str(demo_tree / "lr"), "--hr", str(demo_tree / "hr"),
        "--out", str(path), "--patch-size", "32", "--stride", "16", "--bins", "32",
    ])
    assert code == 0
    return path


class TestStats:
    def test_csv_rows_equal_bins(self, manifest_path, tmp_path, capsys):
        csv = tmp_path / "h.csv"
        code, out, _ = run(capsys, "stats", "--manifest", str(manifest_path),
                           "--csv", str(csv), "--bins", "12")
        assert code == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count"
        assert len(lines) == 13
        assert "mean=" in out and "fraction_0.45_0.55=" in out

    def test_counts_sum_to_records(self, manifest_path, tmp_path, capsys):
        from patchpair import read_manifest

        csv = tmp_path / "h.csv"
        run(capsys, "stats", "--manifest", str(manifest_path), "--csv", str(csv), "--bins", "8")
        total = sum(int(l.split(",")[2]) for l in csv.read_text().strip().splitlines()[1:])
        assert total == len(read_manifest(manifest_path).records)

    def test_empty_manifest_errors(self, manifest_path, tmp_path, capsys):
        from patchpair import read_manifest

        empty = filter_threshold(read_manifest(manifest_path), 1.0)
        path = tmp_path / "empty.jsonl"
        write_manifest(empty, path)
        code, _, err = run(capsys, "stats", "--manifest", str(path), "--csv", str(tmp_path / "h.csv"))
        assert code == 1
        assert err == f"error: {path}: no records\n"


    @pytest.mark.parametrize("edit", ["swap", "repeat", "size", "float-row"])
    def test_record_invariant_violation_is_data_error(self, manifest_path, tmp_path, capsys, edit):
        head, *records = manifest_path.read_text().splitlines()
        if edit == "swap":
            records[0], records[1] = records[1], records[0]
        elif edit == "repeat":
            records[1] = records[0]
        elif edit == "size":
            records[1] = records[1].replace('"size": 32}, "hr"', '"size": 17}, "hr"', 1)
        else:  # a JSON float where an integer belongs
            records[1] = records[1].replace('"row": 0,', '"row": 0.0,', 1)
            assert '"row": 0.0,' in records[1]
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join([head] + records) + "\n")
        code, out, err = run(capsys, "stats", "--manifest", str(path), "--csv", str(tmp_path / "h.csv"))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {path}: parse error at line 3: ")
        assert not (tmp_path / "h.csv").exists()


class TestMetrics:
    def test_identical_dirs(self, demo_tree, capsys):
        code, out, _ = run(capsys, "metrics", "--reference", str(demo_tree / "hr"),
                           "--estimate", str(demo_tree / "hr"))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "volume,slice,psnr,ssim,rmse"
        for line in lines[1:-1]:
            assert line.endswith(",inf,1,0")
        assert lines[-1].startswith("aggregate,mean,inf,1,0")

    def test_reference_vs_degraded_matches_library(self, demo_tree, capsys):
        code, out, _ = run(capsys, "metrics", "--reference", str(demo_tree / "hr"),
                           "--estimate", str(demo_tree / "lr"))
        assert code == 0
        line = out.strip().splitlines()[1]
        vol, sl, p, s, r = line.split(",")
        ref = load_volume(demo_tree / "hr" / f"{vol}.vol").data[int(sl)]
        est = load_volume(demo_tree / "lr" / f"{vol}.vol").data[int(sl)]
        report = evaluate_pair(ref, est)
        assert float(p) == report.psnr
        assert float(s) == report.ssim
        assert float(r) == report.rmse
        assert math.isfinite(report.psnr)

    def test_dimension_mismatch_names_slice(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        for name, shape in (("ref", (2, 32, 32)), ("est", (2, 48, 48))):
            d = tmp_path / name
            d.mkdir()
            save_volume(Volume("P000", rng.random(shape)), d / "P000.vol")
        code, _, err = run(capsys, "metrics", "--reference", str(tmp_path / "ref"),
                           "--estimate", str(tmp_path / "est"))
        assert code == 1
        assert "P000" in err

    @pytest.mark.parametrize("ref_ids, est_ids", [(["P000", "P001"], ["P000", "Q001"]), (["P000"], ["P000", "P001"])])
    def test_other_volume_ids_are_data_error(self, tmp_path, capsys, ref_ids, est_ids):
        for name, ids in (("ref", ref_ids), ("est", est_ids)):
            (tmp_path / name).mkdir()
            for pid in ids:
                save_volume(Volume(pid, np.zeros((1, 8, 8))), tmp_path / name / f"{pid}.vol")
        code, out, err = run(capsys, "metrics", "--reference", str(tmp_path / "ref"),
                             "--estimate", str(tmp_path / "est"))
        assert code == 1
        assert out == ""
        assert f"error: volume sets differ: {ref_ids} vs {est_ids}" in err

    def test_failure_prints_nothing_on_stdout(self, demo_tree, capsys):
        code, out, err = run(capsys, "metrics", "--reference", str(demo_tree / "hr"),
                             "--estimate", str(demo_tree / "lr"), "--ssim-mode", "windowed",
                             "--window", "100")
        assert code == 1
        assert out == ""
        assert "volume P000 slice 0" in err


@pytest.mark.parametrize("argv, message", [
    (("demo", "--out", "{out}", "--sigma", "-1"), "sigma must be positive"),
    (("demo", "--out", "{out}", "--perturbation", "-5"), "perturbation must be in [0, 1]"),
    (("demo", "--out", "{out}", "--size", "16"), "size must be >= 32"),
    (("demo", "--out", "{out}", "--size", "66", "--factor", "4"), "--size 66 not divisible by --factor 4"),
    (("degrade", "--input", "{hr}", "--output", "{out}", "--sigma", "0"), "sigma must be positive"),
    (("loss-eval", "--batch", "{hr}", "--lambda1", "-1"), "loss weights must be nonnegative"),
    (("degrade", "--input", "{hr}", "--output", "{out}", "--sigma", "inf"), "sigma must be positive and finite"),
    (("demo", "--out", "{out}", "--sigma", "inf"), "sigma must be positive and finite"),
    (("loss-eval", "--batch", "{hr}", "--lambda1", "nan"), "loss weights must be nonnegative and finite"),
    (("loss-eval", "--batch", "{hr}", "--lambda3", "inf"), "loss weights must be nonnegative and finite"),
])
def test_config_error_is_usage_error(demo_tree, tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    code, _, err = run(capsys, *(a.format(out=out, hr=demo_tree / "hr") for a in argv))
    assert code == 2
    assert f"patchpair: error: {message}" in err
    assert not out.exists()


class TestLossEval:
    @staticmethod
    def _write_batch(path, perfect=False, seed=0):
        rng = np.random.default_rng(seed)
        b, h, w = 2, 8, 8
        x = rng.random((b, h, w))
        y = rng.random((b, h, w))
        if perfect:
            batch = LossBatch(
                x=x, y=y, gx=y, fy=x, fgx=x, gfy=y, fx=x, gy=y,
                dy_y=np.ones(b), dy_gx=np.zeros(b), dx_x=np.ones(b), dx_fy=np.zeros(b),
                w=np.ones(b),
            )
        else:
            mk = lambda: rng.random((b, h, w))
            batch = LossBatch(
                x=x, y=y, gx=mk(), fy=mk(), fgx=mk(), gfy=mk(), fx=mk(), gy=mk(),
                dy_y=rng.uniform(0.2, 0.8, b), dy_gx=rng.uniform(0.2, 0.8, b),
                dx_x=rng.uniform(0.2, 0.8, b), dx_fy=rng.uniform(0.2, 0.8, b),
                w=rng.uniform(0, 1, b),
            )
        write_loss_batch(batch, path)

    @staticmethod
    def _components(out):
        vals = {}
        for line in out.strip().splitlines()[2:]:
            name, value = line.split(",")
            vals[name] = float(value)
        return vals

    def test_perfect_batch_all_zero(self, tmp_path, capsys):
        self._write_batch(tmp_path / "b", perfect=True)
        code, out, _ = run(capsys, "loss-eval", "--batch", str(tmp_path / "b"))
        assert code == 0
        vals = self._components(out)
        assert vals == {"adv": 0.0, "cyc": 0.0, "idt": 0.0, "pair": 0.0, "total": 0.0}

    def test_default_lambdas_in_header(self, tmp_path, capsys):
        self._write_batch(tmp_path / "b")
        _, out, _ = run(capsys, "loss-eval", "--batch", str(tmp_path / "b"))
        header = out.splitlines()[0]
        assert header.startswith("#")
        assert "lambda1=1" in header and "lambda2=1" in header and "lambda3=256" in header

    def test_lambda3_zero_drops_pair(self, tmp_path, capsys):
        self._write_batch(tmp_path / "b")
        _, out, _ = run(capsys, "loss-eval", "--batch", str(tmp_path / "b"), "--lambda3", "0")
        vals = self._components(out)
        assert vals["total"] == pytest.approx(vals["adv"] + vals["cyc"] + vals["idt"], abs=1e-12)

    def test_component_algebra(self, tmp_path, capsys):
        self._write_batch(tmp_path / "b")
        _, out, _ = run(capsys, "loss-eval", "--batch", str(tmp_path / "b"),
                        "--lambda1", "2", "--lambda2", "3", "--lambda3", "5")
        vals = self._components(out)
        expected = vals["adv"] + 2 * vals["cyc"] + 3 * vals["idt"] + 5 * vals["pair"]
        assert vals["total"] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("values, message", [
        ('{"dy_y": [0.5, 0.5], "dy_gx": [0.5, 0.5], "dx_x": [0.5, 0.5], "dx_fy": [0.5, 0.5], '
         '"w": [NaN, 0.5]}', "w contains non-finite values"),
        ('{"dy_y": [Infinity, 0.5], "dy_gx": [0.5, 0.5], "dx_x": [0.5, 0.5], "dx_fy": [0.5, 0.5], '
         '"w": [0.5, 0.5]}', "dy_y contains non-finite values"),
        ('{"dy_y": [0.5, ', "unreadable values file"),
        ("[0.5, 0.5]", "expected a JSON object, got list"),
    ], ids=["nan-w", "inf-dy_y", "truncated", "not-object"])
    def test_bad_values_file_is_data_error(self, tmp_path, capsys, values, message):
        self._write_batch(tmp_path / "b")
        (tmp_path / "b" / "values.json").write_text(values)
        for adv in ("least-squares", "log"):
            code, out, err = run(capsys, "loss-eval", "--batch", str(tmp_path / "b"), "--adv", adv)
            assert code == 1
            assert out == ""
            assert err.startswith("error: ") and message in err
            assert str(tmp_path / "b") in err


def test_numeric_sidecar_patient_id_is_data_error(demo_tree, tmp_path, capsys):
    hr = tmp_path / "hr"
    hr.mkdir()
    for p in sorted((demo_tree / "hr").iterdir()):
        (hr / p.name).write_bytes(p.read_bytes())
    (hr / "P001.vol.json").write_text(
        (hr / "P001.vol.json").read_text().replace('"patient_id": "P001"', '"patient_id": 5')
    )
    code, out, err = run(capsys, "match", "--lr", str(demo_tree / "lr"), "--hr", str(hr),
                         "--out", str(tmp_path / "m.jsonl"), "--patch-size", "32", "--stride", "16")
    assert code == 1
    assert out == ""
    assert err == f"error: {hr / 'P001.vol'}: patient id must be a non-empty string, got 5\n"
    assert not (tmp_path / "m.jsonl").exists()


def test_path_escaping_sidecar_patient_id_is_data_error(demo_tree, tmp_path, capsys):
    src = tmp_path / "in"
    src.mkdir()
    for p in sorted((demo_tree / "hr").iterdir()):
        (src / p.name).write_bytes(p.read_bytes())
    (src / "P000.vol.json").write_text(
        (src / "P000.vol.json").read_text().replace('"patient_id": "P000"', '"patient_id": "../escaped"')
    )
    code, out, err = run(capsys, "preprocess", "--input", str(src), "--output", str(tmp_path / "out"),
                         "--target", "64")
    assert code == 1
    assert out == ""
    assert err == f"error: {src / 'P000.vol'}: patient id must be a plain file name, got '../escaped'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in"]


def test_volume_renamed_away_from_its_sidecar_id_is_data_error(demo_tree, tmp_path, capsys):
    hr = tmp_path / "hr"
    hr.mkdir()
    for p in sorted((demo_tree / "hr").iterdir()):
        (hr / p.name.replace("P001", "Q")).write_bytes(p.read_bytes())
    code, out, err = run(capsys, "match", "--lr", str(demo_tree / "lr"), "--hr", str(hr),
                         "--out", str(tmp_path / "m.jsonl"), "--patch-size", "32", "--stride", "16")
    assert code == 1
    assert out == ""
    assert err == f"error: {hr / 'Q.vol'}: sidecar patient_id 'P001' differs from the file name 'Q'\n"
    assert not (tmp_path / "m.jsonl").exists()


def test_nmi_input_outside_histogram_range_is_data_error(demo_tree, tmp_path, capsys):
    hr = tmp_path / "hr"
    hr.mkdir()
    for p in sorted((demo_tree / "hr").iterdir()):
        (hr / p.name).write_bytes(p.read_bytes())
    save_volume(Volume("P001", load_volume(hr / "P001.vol").data * 1000.0), hr / "P001.vol")
    argv = ["match", "--lr", str(demo_tree / "lr"), "--hr", str(hr), "--patch-size", "32", "--stride", "16"]
    for levels in ("hierarchical", "slice-patch", "exhaustive"):
        out_path = tmp_path / f"{levels}.jsonl"
        code, out, err = run(capsys, *argv, "--levels", levels, "--out", str(out_path))
        assert code == 1
        assert out == ""
        assert err == "error: HR volume 'P001' has pixels outside the histogram range [0.0, 1.0]\n"
        assert not out_path.exists()
    # PCC has no histogram, so the same input matches
    code, _, _ = run(capsys, *argv, "--metric", "pcc", "--out", str(tmp_path / "pcc.jsonl"))
    assert code == 0


class TestOneParserPerProcess:
    """main builds its parser once per process; each call must still start from the defaults."""

    def test_built_once(self, demo_tree, tmp_path, capsys):
        assert build_parser() is build_parser()
        build_parser.cache_clear()
        for out in ("a.jsonl", "b.jsonl"):
            assert run(capsys, "match", "--lr", str(demo_tree / "lr"), "--hr", str(demo_tree / "hr"),
                       "--out", str(tmp_path / out), "--patch-size", "32", "--stride", "16")[0] == 0
        assert build_parser.cache_info().misses == 1

    def test_filtered_match_then_plain_match_writes_unfiltered_bytes(self, demo_tree, tmp_path, capsys):
        args = ["match", "--lr", str(demo_tree / "lr"), "--hr", str(demo_tree / "hr"), "--patch-size", "32",
                "--stride", "16"]
        assert run(capsys, *args, "--out", str(tmp_path / "f.jsonl"), "--threshold", "0.9", "--filter")[0] == 0
        assert run(capsys, *args, "--out", str(tmp_path / "m.jsonl"))[0] == 0
        expected = match_hierarchical(load_dataset(demo_tree / "lr", "LR"), load_dataset(demo_tree / "hr", "HR"),
                                      MatchConfig(patch_size=32, stride=16))
        assert (tmp_path / "m.jsonl").read_bytes() == manifest_to_bytes(expected)
        assert len(read_manifest(tmp_path / "f.jsonl").records) < len(expected.records)

    def test_usage_error_then_valid_call(self, demo_tree, tmp_path, capsys):
        code, _, err = run(capsys, "stats", "--manifest", str(tmp_path / "m.jsonl"), "--bins", "0")
        assert code == 2 and "usage" in err
        code, _, err = run(capsys, "match", "--lr", str(demo_tree / "lr"))
        assert code == 2 and "--hr" in err
        assert run(capsys, "match", "--lr", str(demo_tree / "lr"), "--hr", str(demo_tree / "hr"),
                   "--out", str(tmp_path / "m.jsonl"), "--patch-size", "32", "--stride", "16")[0] == 0

    def test_demo_seed_does_not_carry_over(self, tmp_path, capsys):
        small = ["--patients", "1", "--slices", "2", "--size", "32"]
        for out, seed in (("seed3", ["--seed", "3"]), ("default", []), ("seed0", ["--seed", "0"])):
            assert run(capsys, "demo", "--out", str(tmp_path / out), *small, *seed)[0] == 0
        assert tree_bytes(tmp_path / "default") == tree_bytes(tmp_path / "seed0")
        assert tree_bytes(tmp_path / "default") != tree_bytes(tmp_path / "seed3")


def test_every_default_is_read_from_its_library_home():
    """Parsing only the required options gives the defaults of an unconfigured library call: each dataclass
    field's, and weight_stats's and total_loss's parameter defaults. --perturbation and --target have no home."""
    required = {
        "demo": ["--out", "o"],
        "preprocess": ["--input", "i", "--output", "o"],
        "degrade": ["--input", "i", "--output", "o"],
        "match": ["--lr", "l", "--hr", "h", "--out", "o"],
        "stats": ["--manifest", "m", "--csv", "c"],
        "metrics": ["--reference", "r", "--estimate", "e"],
        "loss-eval": ["--batch", "b"],
    }
    cfg, spec, degrade, ssim, lw = MatchConfig(), PhantomSpec(), DegradeParams(), SsimParams(), LossWeights()
    homes = {
        "demo": {"patients": spec.patients, "slices": spec.slices_per_patient, "size": spec.size,
                 "seed": spec.seed, "sigma": degrade.sigma, "factor": degrade.scale_factor, "perturbation": 0.25},
        "preprocess": {"target": 256},
        "degrade": {"sigma": degrade.sigma, "factor": degrade.scale_factor},
        "match": {"metric": cfg.metric.value, "levels": cfg.levels.value, "patch_size": cfg.patch_size,
                  "stride": cfg.stride, "bins": cfg.hist.bins, "gamma": cfg.rbf.gamma,
                  "threshold": cfg.threshold, "filter": False},
        "stats": {"bins": inspect.signature(weight_stats).parameters["bins"].default},
        "metrics": {"ssim_mode": ssim.mode.value, "window": ssim.window},
        "loss-eval": {"lambda1": lw.lambda1, "lambda2": lw.lambda2, "lambda3": lw.lambda3,
                      "adv": inspect.signature(total_loss).parameters["kind"].default.value},
    }
    for command, argv in required.items():
        args = vars(build_parser().parse_args([command, *argv]))
        given = {a.lstrip("-").replace("-", "_") for a in argv[::2]}
        defaults = {k: v for k, v in args.items() if k not in given | {"command", "func"}}
        assert {k: (v, type(v)) for k, v in defaults.items()} == {
            k: (v, type(v)) for k, v in homes[command].items()}, command
