import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from patchpair import (
    HistogramSpec,
    RbfParams,
    SimilarityKind,
    ZeroVarianceError,
    entropy,
    joint_histogram,
    mutual_information,
    nmi,
    pcc,
    rbf,
    similarity,
    to_weight,
)
from patchpair.similarity import _TABLE_MAX_N, _codes, _count_entropy, _plogp_table
from .oracles import mi_double_loop

SPEC2 = HistogramSpec(bins=2)

# the three hand-computable 4-pixel cases, as 2x2 images
X_BASE = np.array([[0.0, 0.0], [1.0, 1.0]])
Y_ANTI = np.array([[1.0, 1.0], [0.0, 0.0]])
Y_INDEP = np.array([[0.0, 1.0], [0.0, 1.0]])

unit_patches = hnp.arrays(
    np.float64, (8, 8), elements=st.floats(0.0, 1.0, allow_nan=False)
)
# spread large enough that variances cannot underflow to exactly zero
varied_patches = unit_patches.filter(lambda a: a.max() - a.min() > 1e-3)

# pixel counts 9, 6, 22, 23, 42 and 256: exact NMI identities must not need N = 2**k
SHAPES = [(3, 3), (2, 3), (1, 22), (1, 23), (6, 7), (16, 16)]
shape_params = pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")


class TestJointHistogram:
    def test_identical(self):
        h = joint_histogram(X_BASE, X_BASE, SPEC2)
        assert h.tolist() == [[2, 0], [0, 2]]
        assert h.sum() == 4

    def test_anticorrelated(self):
        h = joint_histogram(X_BASE, Y_ANTI, SPEC2)
        assert h.tolist() == [[0, 2], [2, 0]]

    def test_independent(self):
        h = joint_histogram(X_BASE, Y_INDEP, SPEC2)
        assert h.tolist() == [[1, 1], [1, 1]]

    def test_out_of_range_clamps_to_edge_bins(self):
        h = joint_histogram(np.array([[-3.0, 9.0]]), np.array([[0.2, 0.9]]), SPEC2)
        assert h.tolist() == [[1, 0], [0, 1]]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            joint_histogram(np.zeros((2, 2)), np.zeros((3, 3)), SPEC2)


@pytest.mark.parametrize(
    "value_range",
    [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (1.0, 0.0), (0.0, 0.0)],
    ids=["inf-hi", "inf-lo", "nan", "reversed", "empty"],
)
def test_histogram_range_must_be_finite_and_increasing(value_range):
    with pytest.raises(ValueError, match="degenerate histogram range"):
        HistogramSpec(value_range=value_range)


class TestEntropy:
    def test_degenerate(self):
        assert entropy([1.0]) == 0.0
        assert entropy([1.0, 0.0]) == 0.0

    def test_uniform(self):
        assert entropy([0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-12)
        assert entropy([0.25] * 4) == pytest.approx(math.log(4), abs=1e-12)

    def test_invalid(self):
        with pytest.raises(ValueError):
            entropy([0.5, 0.6])
        with pytest.raises(ValueError):
            entropy([1.5, -0.5])


class TestMutualInformation:
    def test_hand_cases(self):
        h = joint_histogram(X_BASE, X_BASE, SPEC2)
        assert mutual_information(h) == pytest.approx(math.log(2), abs=1e-12)
        h = joint_histogram(X_BASE, Y_ANTI, SPEC2)
        assert mutual_information(h) == pytest.approx(math.log(2), abs=1e-12)
        h = joint_histogram(X_BASE, Y_INDEP, SPEC2)
        assert mutual_information(h) == pytest.approx(0.0, abs=1e-12)

    def test_double_loop_oracle(self, rng):
        spec = HistogramSpec(bins=16)
        for _ in range(20):
            h = joint_histogram(rng.random((12, 12)), rng.random((12, 12)), spec)
            assert mutual_information(h) == pytest.approx(mi_double_loop(h), abs=1e-12)

    @pytest.mark.parametrize("table", [np.array([[1.0, 2.0], [3.0, 0.0]]), np.array([[5, -3], [0, 1]])],
                             ids=["float", "negative"])
    def test_refuses_what_is_not_a_count_table(self, table):
        with pytest.raises(ValueError, match="counts must be nonnegative integers"):
            mutual_information(table)

    def test_reads_the_read_only_table_of_joint_histogram(self, rng):
        h = joint_histogram(rng.random((12, 12)), rng.random((12, 12)), HistogramSpec(bins=16))
        assert not h.flags.writeable
        assert mutual_information(h) == pytest.approx(mi_double_loop(h), abs=1e-12)

    def test_leaves_a_writable_table_as_it_is(self, rng):
        # the entropy of the joint table sorts its counts in place, so it must get a copy of the caller's table
        t = np.array(joint_histogram(rng.random((12, 12)), rng.random((12, 12)), HistogramSpec(bins=16)))
        assert t.flags.writeable and t.flags.c_contiguous
        before = t.copy()
        assert not np.array_equal(np.sort(t, axis=None), t.ravel())  # sorting would show
        mutual_information(t)
        assert np.array_equal(t, before)

    def test_bounded_by_marginal_entropies(self, rng):
        spec = HistogramSpec(bins=8)
        for _ in range(20):
            x, y = rng.random((10, 10)), rng.random((10, 10))
            h = joint_histogram(x, y, spec)
            p = h / h.sum()
            hx, hy = entropy(p.sum(axis=1)), entropy(p.sum(axis=0))
            assert mutual_information(h) <= min(hx, hy) + 1e-12


class TestNmi:
    @shape_params
    def test_self_is_one(self, rng, shape):
        for _ in range(10):
            x = rng.random(shape)
            assert nmi(x, x) == 1.0

    def test_hand_cases(self):
        assert nmi(X_BASE, Y_ANTI, SPEC2) == pytest.approx(1.0, abs=1e-12)
        assert nmi(X_BASE, Y_INDEP, SPEC2) == pytest.approx(0.0, abs=1e-12)

    @shape_params
    def test_constant_pair_is_zero(self, rng, shape):
        c = np.full(shape, 0.2)
        v = rng.random(shape)
        assert nmi(c, np.full(shape, 0.9)) == 0.0
        assert nmi(c, v) == 0.0
        assert nmi(v, c) == 0.0

    @shape_params
    def test_bitwise_symmetry(self, rng, shape):
        for _ in range(10):
            x, y = rng.random(shape), rng.random(shape)
            assert nmi(x, y) == nmi(y, x)

    def test_double_loop_oracle(self, rng):
        spec = HistogramSpec(bins=16)
        for shape in SHAPES + [(12, 12)]:
            for _ in range(5):
                x, y = rng.random(shape), rng.random(shape)
                h = joint_histogram(x, y, spec)
                p = h / h.sum()
                want = 2 * mi_double_loop(h) / (entropy(p.sum(axis=1)) + entropy(p.sum(axis=0)))
                assert nmi(x, y, spec) == pytest.approx(want, abs=1e-12)

    def test_binning_invariance(self, rng):
        # squeeze each value monotonically within its own bin: same joint histogram
        spec = HistogramSpec(bins=16)
        x, y = rng.random((12, 12)), rng.random((12, 12))

        def within_bin_remap(v):
            b = np.clip(np.floor(v * spec.bins), 0, spec.bins - 1)
            frac = v * spec.bins - b
            return (b + 0.01 + 0.98 * frac**2) / spec.bins

        assert nmi(within_bin_remap(x), y, spec) == nmi(x, y, spec)
        assert nmi(x, within_bin_remap(y), spec) == nmi(x, y, spec)


class TestPcc:
    def test_positive_affine(self, rng):
        x = rng.random((9, 9))
        assert pcc(x, 2 * x + 1) == pytest.approx(1.0, abs=1e-12)

    def test_negation(self, rng):
        x = rng.random((9, 9))
        assert pcc(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_variance(self):
        with pytest.raises(ZeroVarianceError, match="zero variance"):
            pcc(np.arange(4.0).reshape(2, 2), np.full((2, 2), 3.0))

    @pytest.mark.parametrize("shape", [(8, 8), (32, 32), (5, 7)])
    @pytest.mark.parametrize("value", [0.1, 0.3, 0.7, 1 / 3])
    def test_constant_float64_image_is_flat(self, rng, shape, value):
        # the float64 mean of P copies of 0.1 need not round to 0.1; the deviations must still be exact zeros
        x, y = np.full(shape, value), rng.random(shape)
        for args in ((x, y), (y, x), (x, x)):
            with pytest.raises(ZeroVarianceError, match="zero variance"):
                pcc(*args)

    def test_deviations_past_the_square_overflow(self):
        # a float64 mean square overflows once a deviation passes about 1.3e154; pytest turns its warning into an error
        x, y = np.array([[1e308, -1e308]]), np.array([[1.0, 2.0]])
        assert pcc(x, y) == pcc(y, x) == -1.0
        assert pcc(np.array([[1e308, 0.0, 5e307]]), np.array([[1.0, 0.0, 0.5]])) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ZeroVarianceError, match="zero variance"):
            pcc(np.full((2, 2), 1e308), np.arange(4.0).reshape(2, 2))

    def test_deviations_under_the_square_underflow(self):
        # every squared deviation underflows to 0, so the mean square reads 0 for an image that is not constant
        y = np.array([[1.0, 2.0, 3.0]])
        assert pcc(np.array([[0.0, 1e-170, 2e-170]]), y) == pcc(y, np.array([[0.0, 1e-170, 2e-170]])) == 1.0
        assert pcc(np.array([[1e-170, 0.0, 2e-170]]), y) == pytest.approx(0.5, abs=1e-15)
        assert pcc(np.array([[5e-324, 0.0]]), np.array([[1.0, 2.0]])) == -1.0  # the smallest subnormal
        assert pcc(np.array([[1e-170, 0.0, 2e-170]]), np.array([[1e300, -1e300, 5e299]])) == pytest.approx(
            pcc(np.array([[1.0, 0.0, 2.0]]), np.array([[1.0, -1.0, 0.5]])), abs=1e-15
        )
        for flat in (np.full((1, 3), 1e-170), np.zeros((1, 3))):
            with pytest.raises(ZeroVarianceError, match="zero variance"):
                pcc(flat, np.array([[0.0, 1e-170, 2e-170]]))

    def test_inputs_that_are_not_float_arrays(self):
        # lists, integer arrays, strings and Python ints past int64 convert to float64 as in require_image
        expected = pcc(np.array([[1.0, 2.0, 4.0]]), np.array([[3.0, 1.0, 2.0]]))
        assert pcc([[1, 2, 4]], np.array([[3, 1, 2]], dtype=np.int16)) == expected
        assert pcc(np.array([["1", "2", "4"]]), [[3.0, 1.0, 2.0]]) == expected
        assert pcc([[2**70, 2**71, 2**72]], [[3, 1, 2]]) == expected

    @given(st.integers(0, 2**32 - 1), st.tuples(st.integers(1, 16), st.integers(2, 16)), st.integers(-1000, 1000))
    @settings(max_examples=300, deadline=None)
    def test_bitwise_scale_invariance(self, seed, shape, k):
        # PCC is scale-free, and a power of two scales every step exactly: the score keeps its bits
        rng = np.random.default_rng(seed)
        x, y = rng.random(shape), rng.random(shape)
        assert pcc(np.ldexp(x, k), y).hex() == pcc(x, y).hex()

    @given(varied_patches, st.floats(0.1, 50), st.floats(-5, 5))
    @settings(max_examples=50, deadline=None)
    def test_affine_invariance(self, x, a, b):
        y = np.linspace(0, 1, x.size).reshape(x.shape)
        assert pcc(a * x + b, y) == pytest.approx(pcc(x, y), abs=1e-12)


@pytest.mark.parametrize("f", [nmi, pcc, joint_histogram])
def test_keeps_no_float64_copy_of_the_inputs(f):
    # on a float64 pair, nmi and joint_histogram hold at most four image-sized arrays at once (codes and their
    # temporaries), pcc its (2, P) stack and one block of squares; float64 copies of the inputs made by the
    # checks took the traced peak from 512 to 769 KiB
    rng = np.random.default_rng(5)
    x, y = rng.random((128, 128)), rng.random((128, 128))
    f(x, y)  # numpy's first calls allocate caches of their own
    tracemalloc.start()
    try:
        f(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * x.nbytes + 16 * 1024, f"traced peak {peak / 1024:.1f} KiB"


class TestRbf:
    def test_identity(self, rng):
        x = rng.random((8, 8))
        assert rbf(x, x) == 1.0

    def test_e_minus_one_at_two_gamma_sq(self):
        # ||x - y||^2 = 4 with gamma = sqrt(2): ratio is exactly 1
        x = np.zeros((2, 2))
        y = np.ones((2, 2))
        assert rbf(x, y, RbfParams(gamma=math.sqrt(2))) == pytest.approx(math.exp(-1), abs=1e-12)

    def test_four_pixel_case(self):
        x = np.zeros((2, 2))
        y = np.ones((2, 2))
        assert rbf(x, y, RbfParams(gamma=1.0)) == pytest.approx(math.exp(-2), abs=1e-12)

    def test_default_gamma_scales_with_size(self, rng):
        # default gamma = sqrt(N)/2, so a uniform difference d gives exp(-2 d^2)
        for n in (4, 8, 16):
            x = np.zeros((n, n))
            y = np.full((n, n), 0.3)
            assert rbf(x, y) == pytest.approx(math.exp(-2 * 0.3**2), abs=1e-12)


class TestDispatchAndWeights:
    def test_similarity_dispatch(self, rng):
        x = rng.random((8, 8))
        assert similarity(SimilarityKind.NMI, x, x) == 1.0
        assert similarity(SimilarityKind.RBF, x, x) == 1.0
        assert similarity(SimilarityKind.PCC, x, -x + 1) == pytest.approx(-1.0, abs=1e-12)

    def test_to_weight(self):
        assert to_weight(SimilarityKind.NMI, 0.47) == 0.47
        assert to_weight(SimilarityKind.PCC, -0.3) == 0.0
        assert to_weight(SimilarityKind.PCC, 0.3) == 0.3
        assert to_weight(SimilarityKind.RBF, math.exp(-1)) == math.exp(-1)


class TestSymmetryAndRange:
    @given(varied_patches, varied_patches)
    @settings(max_examples=60, deadline=None)
    def test_exact_symmetry(self, x, y):
        assert nmi(x, y) == nmi(y, x)
        assert rbf(x, y) == rbf(y, x)
        assert pcc(x, y) == pcc(y, x)

    @given(unit_patches, unit_patches)
    @settings(max_examples=60, deadline=None)
    def test_ranges(self, x, y):
        v = nmi(x, y)
        assert 0.0 <= v <= 1.0
        r = rbf(x, y)
        assert 0.0 < r <= 1.0
        if x.max() - x.min() > 1e-3 and y.max() - y.min() > 1e-3:
            assert -1.0 <= pcc(x, y) <= 1.0


# Per-count references: the entropy, binning, MI and NMI as computed before the
# count-indexed table, kept verbatim so that the table is checked against code
# that does not move with it.
def reference_count_entropy(counts, n):
    p = np.sort(counts[counts > 0]) / n
    return float(-(p * np.log(p)).sum())


def reference_codes(img, spec):
    lo, hi = spec.value_range
    scaled = (np.asarray(img, dtype=np.float64).ravel() - lo) * (spec.bins / (hi - lo))
    return np.clip(np.floor(scaled).astype(np.int64), 0, spec.bins - 1)


def reference_mutual_information(counts):
    n = counts.sum()
    hx, hy, hxy = (reference_count_entropy(c, n) for c in (counts.sum(axis=1), counts.sum(axis=0), counts.ravel()))
    return hx + hy - hxy


def reference_nmi(x, y, spec):
    bx, by = reference_codes(x, spec), reference_codes(y, spec)
    hx, hy, hxy = (reference_count_entropy(np.bincount(c), c.size) for c in (bx, by, bx * spec.bins + by))
    if hx + hy == 0.0:
        return 0.0
    return min(max(2.0 * (hx + hy - hxy) / (hx + hy), 0.0), 1.0)


def bits(v):
    return np.float64(v).tobytes()


@st.composite
def count_vectors(draw):
    """(counts, n): one cell holding all n, n cells of 1, or n split over up to
    4,096 cells with Dirichlet-drawn probabilities (many empty cells at small
    alpha); "large" splits an n above the table's limit over up to 64 cells."""
    kind = draw(st.sampled_from(["single", "ones", "random", "large"]))
    n = draw(st.integers(_TABLE_MAX_N + 1, 2**40) if kind == "large" else st.integers(1, 70_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "single":
        counts = np.zeros(draw(st.integers(1, 64)), dtype=np.int64)
        counts[rng.integers(counts.size)] = n
    elif kind == "ones":
        counts = np.ones(n, dtype=np.int64)
    else:
        cells = draw(st.integers(1, 64 if kind == "large" else 4096))
        alpha = draw(st.sampled_from([0.05, 1.0, 20.0]))
        counts = rng.multinomial(n, rng.dirichlet(np.full(cells, alpha)))
    return counts, draw(st.sampled_from([int, np.int64]))(n)


@st.composite
def image_pairs(draw):
    """Two same-shaped images in [0, 1], each random, constant or a copy of the other, and a bin count."""
    shape = (draw(st.integers(1, 48)), draw(st.integers(1, 48)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.random(shape) if draw(st.booleans()) else np.full(shape, draw(st.floats(0.0, 1.0)))
    y = draw(st.sampled_from(["random", "constant", "copy"]))
    y = {"random": rng.random(shape), "constant": np.full(shape, 0.3), "copy": x.copy()}[y]
    return x, y, HistogramSpec(bins=draw(st.integers(2, 64)))


class TestCountTable:
    @given(count_vectors())
    @example((np.array([1]), 1))
    @example((np.array([0, 70_000, 0]), 70_000))
    @example((np.ones(70_000, dtype=np.int64), 70_000))
    @example((np.array([_TABLE_MAX_N]), _TABLE_MAX_N))
    @example((np.array([_TABLE_MAX_N + 1, 0]), _TABLE_MAX_N + 1))
    @settings(max_examples=200, deadline=None)
    def test_count_entropy_equals_per_count_form_bit_for_bit(self, case):
        counts, n = case
        assert bits(_count_entropy(counts, n)) == bits(reference_count_entropy(counts, n))

    def test_no_table_above_the_limit(self):
        _plogp_table.cache_clear()
        assert mutual_information(np.array([[2**40, 0], [0, 2**40]])) == math.log(2)
        assert _plogp_table.cache_info().misses == 0

    @pytest.mark.parametrize("spec", [HistogramSpec(), HistogramSpec(bins=7, value_range=(-1.0, 2.5))])
    def test_codes_clamp_out_of_range_pixels_like_np_clip(self, spec):
        img = np.array([[-1e6, -5.0, -1.0 - 1e-9, -1e-9, 0.0], [0.5, 1.0, 1.0 + 1e-9, 2.5, 1e6]])
        codes = _codes(img, spec)
        assert codes.dtype == np.int64
        assert np.array_equal(codes, reference_codes(img, spec))

    @given(image_pairs())
    @settings(max_examples=150, deadline=None)
    def test_nmi_and_mutual_information_bit_for_bit(self, case):
        x, y, spec = case
        assert bits(nmi(x, y, spec)) == bits(reference_nmi(x, y, spec))
        counts = joint_histogram(x, y, spec)
        assert bits(mutual_information(counts)) == bits(reference_mutual_information(counts))
