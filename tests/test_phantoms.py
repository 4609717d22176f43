import numpy as np
import pytest

from patchpair import (
    DegradeParams,
    HistogramSpec,
    MatchConfig,
    PhantomSpec,
    Volume,
    degrade,
    generate_dataset,
    generate_similar_pair,
    match_hierarchical,
)

CFG = MatchConfig(patch_size=16, stride=16, hist=HistogramSpec(bins=16))


class TestGenerateDataset:
    def test_deterministic_in_seed(self):
        spec = PhantomSpec(seed=12, patients=2, slices_per_patient=3, size=48)
        assert generate_dataset(spec) == generate_dataset(spec)

    def test_shapes(self):
        ds = generate_dataset(PhantomSpec(seed=0, patients=2, slices_per_patient=4, size=64))
        assert len(ds.volumes) == 2
        for v in ds.volumes:
            assert v.data.shape == (4, 64, 64)

    def test_values_in_unit_range(self):
        ds = generate_dataset(PhantomSpec(seed=3, patients=3, slices_per_patient=2, size=48))
        for v in ds.volumes:
            assert float(v.data.min()) >= 0.0
            assert float(v.data.max()) <= 1.0
            assert float(v.data.max()) > float(v.data.min())

    def test_different_seeds_differ(self):
        for seed in range(10):
            a = generate_dataset(PhantomSpec(seed=seed, patients=1, slices_per_patient=2, size=48))
            b = generate_dataset(PhantomSpec(seed=seed + 100, patients=1, slices_per_patient=2, size=48))
            assert a != b

    def test_slices_vary_smoothly(self):
        ds = generate_dataset(PhantomSpec(seed=4, patients=1, slices_per_patient=8, size=48))
        data = ds.volumes[0].data.astype(np.float64)
        steps = [float(np.abs(data[i + 1] - data[i]).mean()) for i in range(7)]
        far = float(np.abs(data[7] - data[0]).mean())
        assert all(s < far for s in steps)
        assert all(s > 0 for s in steps)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            PhantomSpec(patients=0)
        with pytest.raises(ValueError):
            PhantomSpec(size=16)


class TestSimilarPair:
    def test_zero_perturbation_is_exact_copy(self):
        spec = PhantomSpec(seed=21, patients=2, slices_per_patient=2, size=48)
        hr, lr = generate_similar_pair(spec, 0.0)
        assert hr.label == "HR" and lr.label == "LR"
        for a, b in zip(hr.volumes, lr.volumes):
            assert a == b

    def test_perturbation_changes_pixels(self):
        spec = PhantomSpec(seed=21, patients=2, slices_per_patient=2, size=48)
        hr, lr = generate_similar_pair(spec, 0.2)
        assert any(a != b for a, b in zip(hr.volumes, lr.volumes))

    def test_invalid_perturbation(self):
        with pytest.raises(ValueError):
            generate_similar_pair(PhantomSpec(), 1.5)

    def test_degrading_one_side_lowers_self_match_weights(self):
        spec = PhantomSpec(seed=33, patients=1, slices_per_patient=2, size=48)
        hr, lr = generate_similar_pair(spec, 0.0)
        before = match_hierarchical(lr, hr, CFG)
        assert all(r.weight == 1.0 for r in before.records)
        blurred = Volume(
            hr.volumes[0].patient_id,
            np.stack([degrade(s, DegradeParams()) for s in hr.volumes[0].data]),
        )
        after = match_hierarchical(lr, type(hr)("HR", (blurred,)), CFG)
        assert all(r.weight < 1.0 for r in after.records)

    def test_mean_matched_weight_monotone_in_perturbation(self):
        spec = PhantomSpec(seed=5, patients=3, slices_per_patient=4, size=64)
        cfg = MatchConfig(patch_size=32, stride=16, hist=HistogramSpec(bins=32))
        means = []
        for pert in (0.0, 0.1, 0.25, 0.5):
            hr, lr = generate_similar_pair(spec, pert)
            m = match_hierarchical(lr, hr, cfg)
            means.append(float(np.mean([r.weight for r in m.records])))
        assert means[0] == 1.0
        assert all(a >= b for a, b in zip(means, means[1:]))
