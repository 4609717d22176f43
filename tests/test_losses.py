import dataclasses
import json
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchpair import (
    AdvKind,
    DistKind,
    LossBatch,
    LossWeights,
    adversarial_loss,
    cycle_loss,
    identity_loss,
    loss_grad,
    matched_pair_loss,
    read_loss_batch,
    total_loss,
    weighted_supervised_loss,
    write_loss_batch,
)
from patchpair import losses
from patchpair.losses import IMAGE_ROLES, SCALAR_ROLES
from .oracles import fd_check_gradients, float64_loss_reference, make_fd_safe_batch


def make_batch(rng, batch=3, side=4, **overrides):
    fields = {name: rng.random((batch, side, side)) for name in
              ("x", "y", "gx", "fy", "fgx", "gfy", "fx", "gy")}
    fields.update(
        dy_y=rng.uniform(0.2, 0.8, batch),
        dy_gx=rng.uniform(0.2, 0.8, batch),
        dx_x=rng.uniform(0.2, 0.8, batch),
        dx_fy=rng.uniform(0.2, 0.8, batch),
        w=rng.uniform(0.0, 1.0, batch),
    )
    fields.update(overrides)
    return LossBatch(**fields)


def perfect_batch(rng, batch=2, side=4):
    x = rng.random((batch, side, side))
    y = rng.random((batch, side, side))
    return LossBatch(
        x=x, y=y, gx=y.copy(), fy=x.copy(), fgx=x.copy(), gfy=y.copy(),
        fx=x.copy(), gy=y.copy(),
        dy_y=np.ones(batch), dy_gx=np.zeros(batch),
        dx_x=np.ones(batch), dx_fy=np.zeros(batch),
        w=np.ones(batch),
    )


class TestBatchValidation:
    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            make_batch(rng, gx=rng.random((3, 5, 5)))

    def test_weight_range(self, rng):
        with pytest.raises(ValueError, match="weights"):
            make_batch(rng, w=np.array([0.5, 1.5, 0.2]))

    @pytest.mark.parametrize("field, value", [("w", np.nan), ("dx_fy", np.inf), ("dy_y", -np.inf)])
    def test_nonfinite_scalars_rejected(self, rng, field, value):
        values = np.full(3, 0.5)
        values[0] = value
        with pytest.raises(ValueError, match=f"{field} contains non-finite values"):
            make_batch(rng, **{field: values})

    def test_scalar_length(self, rng):
        with pytest.raises(ValueError):
            make_batch(rng, dy_y=np.array([0.5, 0.5]))

    @pytest.mark.parametrize("shape", [(0, 4, 4), (3, 0, 4), (3, 4, 0)])
    def test_empty_batch_or_image_rejected(self, rng, shape):
        with pytest.raises(ValueError, match="empty batch or image"):
            make_batch(rng, **{name: np.zeros(shape) for name in IMAGE_ROLES})

    @pytest.mark.parametrize("role", IMAGE_ROLES)
    def test_nonfinite_images_rejected(self, rng, role):
        img = rng.random((3, 4, 4)).astype(np.float32)
        img[1, 2, 3] = (np.nan, np.inf, -np.inf)[IMAGE_ROLES.index(role) % 3]
        with pytest.raises(ValueError, match=f"^{role} contains non-finite values"):
            make_batch(rng, **{role: img})

    @pytest.mark.parametrize("role", ["x", "gy"])
    def test_two_dimensional_role_rejected(self, rng, role):
        with pytest.raises(ValueError, match=rf"^{role} must be \(batch, h, w\), got \(4, 4\)$"):
            make_batch(rng, **{role: rng.random((4, 4))})

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float_images_kept_without_copy(self, rng, dtype):
        img = rng.random((3, 4, 4)).astype(dtype)
        b = make_batch(rng, gx=img)
        assert b.gx is img

    @pytest.mark.parametrize("value", [
        np.arange(48, dtype=np.int64).reshape(3, 4, 4),
        np.ones((3, 4, 4), dtype=np.float16),
        np.zeros((3, 4, 4)).tolist(),
    ], ids=["int64", "float16", "list"])
    def test_other_images_become_float64(self, rng, value):
        b = make_batch(rng, fx=value)
        assert b.fx.dtype == np.float64
        assert np.array_equal(b.fx, np.asarray(value, dtype=np.float64))


class TestAdversarialLoss:
    def test_log_all_half(self, rng):
        half = np.full(3, 0.5)
        b = make_batch(rng, dy_y=half, dy_gx=half, dx_x=half, dx_fy=half)
        assert adversarial_loss(b, AdvKind.LOG) == pytest.approx(4 * math.log(0.5), abs=1e-12)

    def test_least_squares_perfect(self, rng):
        assert adversarial_loss(perfect_batch(rng), AdvKind.LEAST_SQUARES) == 0.0

    def test_least_squares_all_half(self, rng):
        half = np.full(3, 0.5)
        b = make_batch(rng, dy_y=half, dy_gx=half, dx_x=half, dx_fy=half)
        assert adversarial_loss(b, AdvKind.LEAST_SQUARES) == pytest.approx(1.0, abs=1e-12)

    def test_log_clamps_extreme_outputs(self, rng):
        b = make_batch(rng, dy_y=np.zeros(3), dy_gx=np.ones(3), dx_x=np.zeros(3), dx_fy=np.ones(3))
        v = adversarial_loss(b, AdvKind.LOG)
        assert math.isfinite(v)
        assert v == pytest.approx(4 * math.log(1e-7), rel=1e-9)


class TestPixelLosses:
    def test_cycle_zero_and_offset(self, rng):
        b = perfect_batch(rng)
        assert cycle_loss(b) == 0.0
        shifted = dataclasses.replace(b, fgx=b.x + 0.1)
        assert cycle_loss(shifted) == pytest.approx(0.1, abs=1e-12)

    def test_cycle_homogeneity(self, rng):
        b = perfect_batch(rng)
        resid = rng.uniform(-0.2, 0.2, b.x.shape)
        one = cycle_loss(dataclasses.replace(b, fgx=b.x + resid))
        two = cycle_loss(dataclasses.replace(b, fgx=b.x + 2 * resid))
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_identity_zero_and_offset(self, rng):
        b = perfect_batch(rng)
        assert identity_loss(b) == 0.0
        shifted = dataclasses.replace(b, gy=b.y + 0.2)
        assert identity_loss(shifted) == pytest.approx(0.2, abs=1e-12)

    def test_permutation_invariant(self, rng):
        b = make_batch(rng, batch=4)
        perm = [2, 0, 3, 1]
        fields = {name: getattr(b, name)[perm] for name in
                  ("x", "y", "gx", "fy", "fgx", "gfy", "fx", "gy",
                   "dy_y", "dy_gx", "dx_x", "dx_fy", "w")}
        shuffled = LossBatch(**fields)
        for fn in (cycle_loss, identity_loss, matched_pair_loss):
            assert fn(shuffled) == pytest.approx(fn(b), abs=1e-15)


class TestMatchedPairLoss:
    def test_perfect(self, rng):
        assert matched_pair_loss(perfect_batch(rng)) == 0.0

    def test_zero_weights_annihilate(self, rng):
        b = make_batch(rng, w=np.zeros(3))
        assert matched_pair_loss(b) == 0.0

    def test_single_item_hand_value(self):
        x = np.zeros((1, 2, 2))
        y = np.zeros((1, 2, 2))
        b = LossBatch(
            x=x, y=y, gx=y + 0.2, fy=x + 0.1, fgx=x, gfy=y, fx=x, gy=y,
            dy_y=np.ones(1), dy_gx=np.zeros(1), dx_x=np.ones(1), dx_fy=np.zeros(1),
            w=np.array([0.5]),
        )
        assert matched_pair_loss(b) == pytest.approx(0.15, abs=1e-12)

    def test_unit_weights_reduce_to_supervised(self, rng):
        b = make_batch(rng, batch=4, w=np.ones(4))
        supervised = float(np.abs(b.gx - b.y).mean() + np.abs(b.fy - b.x).mean())
        assert matched_pair_loss(b) == pytest.approx(supervised, abs=1e-12)

    def test_weight_scaling_is_exact_for_powers_of_two(self, rng):
        b = make_batch(rng, batch=4)
        for alpha in (0.5, 0.25):
            scaled = dataclasses.replace(b, w=alpha * b.w)
            assert matched_pair_loss(scaled) == alpha * matched_pair_loss(b)


class TestTotalLoss:
    def test_perfect_batch_is_zero(self, rng):
        assert total_loss(perfect_batch(rng)).total == 0.0

    def test_component_algebra(self, rng):
        b = make_batch(rng)
        lw = LossWeights(lambda1=1.0, lambda2=1.0, lambda3=256.0)
        r = total_loss(b, lw)
        assert r.total == pytest.approx(r.adv + r.cyc + r.idt + 256.0 * r.pair, abs=1e-12)

    def test_lambda3_zero_drops_pair_term(self, rng):
        b = make_batch(rng)
        r = total_loss(b, LossWeights(lambda3=0.0))
        assert r.total == pytest.approx(r.adv + r.cyc + r.idt, abs=1e-12)

    def test_affine_in_each_lambda(self, rng):
        b = make_batch(rng)

        def tot(**kw):
            return total_loss(b, LossWeights(**kw)).total

        for name in ("lambda1", "lambda2", "lambda3"):
            t0 = tot(**{name: 0.0})
            t1 = tot(**{name: 1.0})
            t2 = tot(**{name: 2.0})
            assert t2 - t0 == pytest.approx(2 * (t1 - t0), rel=1e-12, abs=1e-12)

    def test_nonnegative_components(self, rng):
        b = make_batch(rng)
        r = total_loss(b, kind=AdvKind.LEAST_SQUARES)
        assert r.adv >= 0 and r.cyc >= 0 and r.idt >= 0 and r.pair >= 0
        assert adversarial_loss(b, AdvKind.LOG) <= 0


class TestWeightedSupervisedLoss:
    def test_unit_weights_match_unweighted_sum(self, rng):
        preds = [rng.random((4, 4)) for _ in range(3)]
        targets = [rng.random((4, 4)) for _ in range(3)]
        got = weighted_supervised_loss(preds, targets, [1.0] * 3)
        want = sum(float(np.abs(p - t).mean()) for p, t in zip(preds, targets))
        assert got == pytest.approx(want, abs=1e-12)

    def test_zero_weights(self, rng):
        preds = [rng.random((4, 4))]
        assert weighted_supervised_loss(preds, preds, [0.0]) == 0.0

    def test_selective_weights(self):
        preds = [np.full((2, 2), 0.3), np.full((2, 2), 9.9)]
        targets = [np.zeros((2, 2)), np.zeros((2, 2))]
        assert weighted_supervised_loss(preds, targets, [1.0, 0.0]) == pytest.approx(0.3, abs=1e-12)

    def test_l2_distance(self):
        preds = [np.full((2, 2), 0.5)]
        targets = [np.zeros((2, 2))]
        assert weighted_supervised_loss(preds, targets, [1.0], DistKind.L2) == pytest.approx(0.25, abs=1e-15)

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError, match="length"):
            weighted_supervised_loss([rng.random((2, 2))], [], [1.0])

    @pytest.mark.parametrize("preds, targets, weights, message", [
        ([np.zeros((2, 2))], [np.zeros((2, 2))], [1.5], r"weights must lie in \[0, 1\]"),
        ([np.zeros((2, 2))], [np.zeros((2, 2))], [-0.5], r"weights must lie in \[0, 1\]"),
        ([np.zeros((2, 2))], [np.zeros((2, 3))], [0.5], r"shape mismatch: \(2, 2\) vs \(2, 3\)"),
    ], ids=["above-one", "negative", "shapes"])
    def test_weight_range_and_shapes(self, preds, targets, weights, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            weighted_supervised_loss(preds, targets, weights)


class TestGradients:
    def test_zero_residual_batch_has_zero_image_gradients(self, rng):
        g = loss_grad(perfect_batch(rng))
        for name in ("gx", "fy", "fgx", "gfy", "fx", "gy"):
            assert np.all(getattr(g, name) == 0.0)

    def test_pair_gradient_hand_value(self):
        x = np.zeros((2, 3, 3))
        y = np.zeros((2, 3, 3))
        b = LossBatch(
            x=x, y=y, gx=y + 0.2, fy=x, fgx=x, gfy=y, fx=x, gy=y,
            dy_y=np.ones(2), dy_gx=np.zeros(2), dx_x=np.ones(2), dx_fy=np.zeros(2),
            w=np.array([0.5, 1.0]),
        )
        lw = LossWeights(lambda3=256.0)
        g = loss_grad(b, lw)
        # every gx pixel sits above y: grad = lambda3 * w_i / (N * B)
        assert g.gx[0, 0, 0] == pytest.approx(256.0 * 0.5 / (9 * 2), abs=1e-15)
        assert g.gx[1, 2, 2] == pytest.approx(256.0 * 1.0 / (9 * 2), abs=1e-15)

    @pytest.mark.parametrize("kind", [AdvKind.LEAST_SQUARES, AdvKind.LOG])
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(11)
        lw = LossWeights()
        for _ in range(3):
            b = make_fd_safe_batch(rng, batch_size=2, side=4)
            worst = fd_check_gradients(b, lw, kind, loss_grad(b, lw, kind))
            assert worst < 1e-4


L1_TARGETS = {"gx": "y", "fy": "x", "fgx": "x", "gfy": "y", "fx": "x", "gy": "y"}


@st.composite
def loss_batches(draw):
    """1-4 items of 1-40 x 1-40 px whose image roles are all float32, all float64,
    or each either, with a share of each output's pixels exactly equal to its target's."""
    b, h, w = draw(st.integers(1, 4)), draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dtypes = draw(st.sampled_from(["float32", "float64", "mixed"]))
    scale = draw(st.sampled_from([1.0, 1e-3, 1e3]))
    tie = draw(st.sampled_from([0.0, 0.3, 1.0]))
    images = {}
    for name in IMAGE_ROLES:
        v = rng.standard_normal((b, h, w)) * scale
        images[name] = v if dtypes == "float64" else v.astype(np.float32)
    for role, target in L1_TARGETS.items():
        same = rng.random((b, h, w)) < tie
        images[role][same] = images[target][same]
    if dtypes == "mixed":
        for name in IMAGE_ROLES:
            if rng.random() < 0.5:
                images[name] = images[name].astype(np.float64)
    scalars = {name: rng.uniform(0.0, 1.0, b) for name in SCALAR_ROLES + ("w",)}
    return LossBatch(**images, **scalars)


def lambdas():
    return st.builds(LossWeights, *(st.floats(0.0, 1e3) for _ in range(3)))


def same_bits(got, want):
    """Equal dtype and bytes for arrays; equal bits for the float fields of a LossBreakdown."""
    if isinstance(got, np.ndarray):
        return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
    return np.array(dataclasses.astuple(got)).tobytes() == np.array(dataclasses.astuple(want)).tobytes()


def assert_grads_same_bits(got, want):
    for field in dataclasses.fields(got):
        assert same_bits(getattr(got, field.name), getattr(want, field.name)), field.name


class TestFloat64Reference:
    """Reducing a few whole items at a time gives the bits and dtypes of
    whole-batch float64 reductions on a float64 copy of the batch."""

    @given(loss_batches(), lambdas(), st.sampled_from(list(AdvKind)))
    @settings(max_examples=200, deadline=None)
    def test_total_loss_and_grad_match_reference(self, batch, lw, kind):
        want_loss, want_grad = float64_loss_reference(batch, lw, kind)
        assert same_bits(total_loss(batch, lw, kind), want_loss)
        assert_grads_same_bits(loss_grad(batch, lw, kind), want_grad)

    @pytest.mark.parametrize("block", [1, 99, 150, losses._REDUCE_BLOCK])
    def test_every_chunk_boundary_matches_reference(self, monkeypatch, block):
        # block 1 gives one item per chunk; 99 and 150 give 2 and 3 items of 49 px with a short last chunk
        monkeypatch.setattr(losses, "_REDUCE_BLOCK", block)
        rng = np.random.default_rng(block)
        for b, h, w in ((5, 7, 7), (7, 5, 10), (1, 3, 3), (3, 256, 257)):
            batch = make_batch(rng, batch=b, side=1, **{
                name: rng.standard_normal((b, h, w)).astype(np.float32) for name in IMAGE_ROLES})
            for kind in AdvKind:
                want_loss, want_grad = float64_loss_reference(batch, LossWeights(), kind)
                assert same_bits(total_loss(batch, kind=kind), want_loss)
                assert_grads_same_bits(loss_grad(batch, kind=kind), want_grad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layout_does_not_change_bits(self, dtype):
        # a whole-batch mean(axis=(1, 2)) sums a Fortran-ordered batch in another order
        rng = np.random.default_rng(8)
        for shape in ((3, 37, 29), (2, 64, 64), (4, 2, 33), (3, 256, 257)):
            c = make_batch(rng, batch=shape[0], side=1, **{
                name: rng.random(shape).astype(dtype) for name in IMAGE_ROLES})
            fortran = {name: np.asfortranarray(getattr(c, name)) for name in IMAGE_ROLES}
            transposed = {name: np.ascontiguousarray(getattr(c, name).transpose(0, 2, 1)).transpose(0, 2, 1)
                          for name in IMAGE_ROLES}
            for layout in (fortran, transposed):
                other = dataclasses.replace(c, **layout)
                assert not other.x.flags.c_contiguous
                for kind in AdvKind:
                    assert same_bits(total_loss(other, kind=kind), total_loss(c, kind=kind))
                    assert_grads_same_bits(loss_grad(other, kind=kind), loss_grad(c, kind=kind))

    def test_read_and_evaluate_hold_about_the_payload(self, tmp_path):
        rng = np.random.default_rng(5)
        b, side = 16, 128
        write_loss_batch(make_batch(rng, batch=b, side=1, **{
            name: rng.random((b, side, side), dtype=np.float32) for name in IMAGE_ROLES}), tmp_path / "b")
        payload = len(IMAGE_ROLES) * b * side * side * 4
        tracemalloc.start()
        try:
            total_loss(read_loss_batch(tmp_path / "b"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * payload, f"traced peak {peak / 2**20:.2f} MiB"


class TestBatchIO:
    def test_roundtrip(self, tmp_path, rng):
        b = make_batch(rng, batch=2, side=4)
        write_loss_batch(b, tmp_path / "batch")
        loaded = read_loss_batch(tmp_path / "batch")
        for name in ("x", "y", "gx", "fy", "fgx", "gfy", "fx", "gy"):
            np.testing.assert_allclose(getattr(loaded, name), getattr(b, name), atol=1e-7)
        for name in ("dy_y", "dy_gx", "dx_x", "dx_fy", "w"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(b, name))

    def test_failed_values_write_leaves_the_old_file_and_no_temporary_file(self, tmp_path, rng, monkeypatch):
        write_loss_batch(make_batch(rng, batch=2, side=4), tmp_path / "batch")
        names = sorted(p.name for p in (tmp_path / "batch").iterdir())
        old = (tmp_path / "batch" / "values.json").read_bytes()
        replace = os.replace

        def refuse(src, dst):
            if Path(dst).name == "values.json":
                raise OSError("no space left on device")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="no space left"):
            write_loss_batch(make_batch(rng, batch=2, side=4), tmp_path / "batch")
        assert sorted(p.name for p in (tmp_path / "batch").iterdir()) == names  # no temporary file left behind
        assert (tmp_path / "batch" / "values.json").read_bytes() == old

    def test_missing_values_file(self, tmp_path, rng):
        b = make_batch(rng, batch=2, side=4)
        write_loss_batch(b, tmp_path / "batch")
        (tmp_path / "batch" / "values.json").unlink()
        with pytest.raises(FileNotFoundError, match="values"):
            read_loss_batch(tmp_path / "batch")

    @pytest.mark.parametrize("field", SCALAR_ROLES + ("w",))
    def test_missing_values_field_named(self, tmp_path, rng, field):
        write_loss_batch(make_batch(rng, batch=2, side=4), tmp_path / "batch")
        vpath = tmp_path / "batch" / "values.json"
        values = json.loads(vpath.read_text())
        del values[field]
        vpath.write_text(json.dumps(values))
        with pytest.raises(ValueError, match=f"^{vpath}: missing field '{field}'$"):
            read_loss_batch(tmp_path / "batch")

    def test_missing_role_volume(self, tmp_path, rng):
        b = make_batch(rng, batch=2, side=4)
        write_loss_batch(b, tmp_path / "batch")
        (tmp_path / "batch" / "gx.vol").unlink()
        with pytest.raises(FileNotFoundError):
            read_loss_batch(tmp_path / "batch")
