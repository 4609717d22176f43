"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Every tolerance and runtime budget is asserted in-place.
"""

import dataclasses
import time

import numpy as np
import pytest

from patchpair import (
    AdvKind,
    HistogramSpec,
    LossWeights,
    Manifest,
    MatchConfig,
    MatchLevels,
    MatchRecord,
    PatchRef,
    PhantomSpec,
    SsimParams,
    bicubic_resize,
    degrade,
    filter_threshold,
    gaussian_kernel,
    generate_similar_pair,
    loss_grad,
    match_exhaustive,
    match_hierarchical,
    matched_pair_loss,
    nmi,
    patch_grid,
    pcc,
    psnr,
    rbf,
    save_dataset,
    ssim,
    total_loss,
    write_loss_batch,
)
from patchpair.cli import main as cli_main
from patchpair.matching import manifest_to_bytes
from patchpair.quality import _C1
from .oracles import fd_check_gradients, make_fd_safe_batch, triple_loop_exhaustive


def _report(num, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num} {name}: PASS{suffix}")


@pytest.fixture(scope="module")
def suite9(tmp_path_factory):
    """The seeded synthetic pair shared by criteria 9 and 10, persisted to disk."""
    spec = PhantomSpec(seed=909, patients=8, slices_per_patient=16, size=64)
    hr, lr = generate_similar_pair(spec, 0.25)
    root = tmp_path_factory.mktemp("suite9")
    save_dataset(hr, root / "hr")
    save_dataset(lr, root / "lr")
    return hr, lr, root


def test_criterion_1_similarity_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    patches = []
    while len(patches) < 1000:
        p = rng.random((32, 32))
        if p.max() > p.min():
            patches.append(p)
    for x in patches:
        assert abs(nmi(x, x) - 1.0) <= 1e-12
        assert rbf(x, x) == 1.0
        assert abs(pcc(x, 2.0 * x + 1.0) - 1.0) <= 1e-12
    for x, y in zip(patches[0::2], patches[1::2]):
        assert nmi(x, y) == nmi(y, x)
        assert rbf(x, y) == rbf(y, x)
        assert pcc(x, y) == pcc(y, x)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(1, "similarity identities", f"{elapsed:.2f}s")


def test_criterion_2_nmi_hand_cases():
    spec = HistogramSpec(bins=2)
    x = np.array([[0.0, 0.0], [1.0, 1.0]])
    identical = nmi(x, x, spec)
    anti = nmi(x, 1.0 - x, spec)
    indep = nmi(x, np.array([[0.0, 1.0], [0.0, 1.0]]), spec)
    assert abs(identical - 1.0) <= 1e-12
    assert abs(anti - 1.0) <= 1e-12
    assert abs(indep - 0.0) <= 1e-12
    _report(2, "hand-computable NMI cases")


def test_criterion_3_matcher_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    checked = 0
    for trial in range(20):
        if trial < 2:
            patients, slices = 4, 6  # the stated upper bound, exercised directly
        else:
            patients = int(rng.integers(1, 4))
            slices = int(rng.integers(1, 5))
        spec = PhantomSpec(
            seed=5000 + trial, patients=patients, slices_per_patient=slices, size=48
        )
        hr, lr = generate_similar_pair(spec, float(rng.uniform(0.1, 0.6)))
        cfg = MatchConfig(patch_size=16, stride=16, hist=HistogramSpec(bins=16))

        exhaustive = match_exhaustive(lr, hr, cfg)
        oracle_records = [
            MatchRecord(
                PatchRef(lp, ls, row, col, cfg.patch_size),
                PatchRef(*key, cfg.patch_size),
                weight,
            )
            for lp, ls, row, col, key, weight in triple_loop_exhaustive(lr, hr, cfg)
        ]
        oracle = Manifest(
            oracle_records,
            dataclasses.replace(cfg, levels=MatchLevels.PATCH_ONLY),
            exhaustive.lr_fingerprint,
            exhaustive.hr_fingerprint,
        )
        assert manifest_to_bytes(exhaustive) == manifest_to_bytes(oracle)

        hier = match_hierarchical(lr, hr, cfg)
        hw = {r.lr: r.weight for r in hier.records}
        assert all(r.weight >= hw[r.lr] for r in exhaustive.records)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 20
    assert elapsed < 60.0
    _report(3, "matcher oracle equivalence", f"{checked} datasets, {elapsed:.1f}s")


def test_criterion_4_pinned_constants(tmp_path, capsys):
    grid = patch_grid(256, 256, 128, 64)
    assert len(grid) == 9

    cfg = MatchConfig()
    assert cfg.threshold == 0.4
    records = [
        MatchRecord(PatchRef("a", 0, 0, 64 * i, 128), PatchRef("b", 0, 0, 0, 128), w)
        for i, w in enumerate((0.39, 0.4, 0.41))
    ]
    m = Manifest(records, cfg, "sha256:l", "sha256:h")
    kept = filter_threshold(m, cfg.threshold)
    assert [r.weight for r in kept.records] == [0.41]

    lw = LossWeights()
    assert (lw.lambda1, lw.lambda2, lw.lambda3) == (1.0, 1.0, 256.0)
    assert lw.lambda3 == 4.0**4

    rng = np.random.default_rng(4)
    b, h, w = 2, 8, 8
    batch_dir = tmp_path / "batch"
    write_loss_batch(
        make_fd_safe_batch(np.random.default_rng(44), batch_size=b, side=h), batch_dir
    )
    assert cli_main(["loss-eval", "--batch", str(batch_dir)]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert "lambda1=1" in header and "lambda2=1" in header and "lambda3=256" in header
    _report(4, "pinned constants end-to-end")


def test_criterion_5_degradation_model():
    taps = gaussian_kernel(3.0)
    assert taps.size == 19
    assert abs(taps.sum() - 1.0) <= 1e-12

    const = np.full((64, 64), 0.5)
    # partition-of-unity tolerance, per the resampling invariants
    assert np.abs(degrade(const) - 0.5).max() <= 1e-12

    i, j = np.meshgrid(np.arange(256, dtype=float), np.arange(256, dtype=float), indexing="ij")
    ramp = i / 512 + j / 512
    restored = bicubic_resize(bicubic_resize(ramp, 64, 64), 256, 256)
    err = float(np.abs(restored - ramp).max())
    assert err < 1e-2
    _report(5, "degradation model", f"ramp max err {err:.2e}")


def test_criterion_6_loss_gradient_check():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    lw = LossWeights()
    worst = 0.0
    for trial in range(50):
        kind = AdvKind.LEAST_SQUARES if trial % 2 == 0 else AdvKind.LOG
        batch = make_fd_safe_batch(rng, batch_size=4, side=8)
        grads = loss_grad(batch, lw, kind)
        worst = max(worst, fd_check_gradients(batch, lw, kind, grads, eps=1e-4, residual_floor=1e-6))
    elapsed = time.perf_counter() - start
    assert worst < 1e-4
    assert elapsed < 30.0
    _report(6, "loss gradient check", f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_7_supervised_reduction():
    rng = np.random.default_rng(707)
    batch = make_fd_safe_batch(rng, batch_size=4, side=8)
    import dataclasses

    unit = dataclasses.replace(batch, w=np.ones(batch.batch_size))
    supervised = float(np.abs(unit.gx - unit.y).mean() + np.abs(unit.fy - unit.x).mean())
    assert abs(matched_pair_loss(unit) - supervised) <= 1e-12

    r = total_loss(batch, LossWeights(lambda3=0.0), AdvKind.LEAST_SQUARES)
    assert abs(r.total - (r.adv + r.cyc + r.idt)) <= 1e-12
    _report(7, "supervised reduction")


def test_criterion_8_metric_identities():
    rng = np.random.default_rng(808)
    x = rng.random((32, 32))
    assert ssim(x, x) == 1.0

    y = np.ones((16, 16))
    assert abs(psnr(y, y - 0.1) - 20.0) <= 1e-9

    params = SsimParams()
    a, b = 0.3, 0.7
    closed_form = (2 * a * b + _C1) / (a * a + b * b + _C1)
    got = ssim(np.full((8, 8), a), np.full((8, 8), b), params)
    assert abs(got - closed_form) <= 1e-12
    _report(8, "metric identities")


def test_criterion_9_matched_vs_random_nmi(suite9):
    start = time.perf_counter()
    hr, lr, _ = suite9
    cfg = MatchConfig(patch_size=32, stride=16, hist=HistogramSpec(bins=64))
    manifest = match_hierarchical(lr, hr, cfg)
    retained = filter_threshold(manifest, 0.4)
    assert len(retained.records) >= 200
    matched_mean = float(np.mean([r.weight for r in retained.records]))

    rng = np.random.default_rng(909)
    grid = patch_grid(64, 64, cfg.patch_size, cfg.stride)

    def random_patch(ds):
        vol = ds.volumes[rng.integers(len(ds.volumes))]
        s = int(rng.integers(vol.n_slices))
        r, c = grid[rng.integers(len(grid))]
        return vol.data[s][r : r + cfg.patch_size, c : c + cfg.patch_size]

    random_mean = float(
        np.mean([nmi(random_patch(lr), random_patch(hr), cfg.hist) for _ in range(len(retained.records))])
    )
    margin = matched_mean - random_mean
    assert margin >= 0.05

    self_match = match_hierarchical(hr, hr, cfg)
    assert all(r.weight == 1.0 for r in self_match.records)
    assert all(r.hr == r.lr for r in self_match.records)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        9,
        "matched vs random NMI",
        f"{len(retained.records)} pairs, matched {matched_mean:.3f} vs random {random_mean:.3f}, {elapsed:.1f}s",
    )


def test_criterion_10_parallel_determinism(suite9, tmp_path):
    _, _, root = suite9
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / f"manifest_{run}.jsonl"
        code = cli_main([
            "match", "--lr", str(root / "lr"), "--hr", str(root / "hr"),
            "--out", str(out), "--patch-size", "32", "--stride", "16",
        ])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) > 0
    _report(10, "determinism across runs", f"{len(outputs[0])} bytes")
