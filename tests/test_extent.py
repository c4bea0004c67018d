"""Synthetic extents, possibility degrees, and weight normalization."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from conftest import random_codes
from fahp import (
    ComparisonMatrix,
    FuzzyComparisonMatrix,
    Tfn,
    TooFewCriteria,
    WeightVector,
    build_comparison,
    fuzzify,
    min_degrees,
    possibility,
    possibility_matrix,
    synthetic_extents,
    weights,
)
from fahp.extent import _stair


# two extents whose modal values are an ulp apart: the overlap ordinate of
# the lower one rounds to 1 + 2**-52 before the cap
ULP_APART = [
    [float.fromhex(x) for x in row]
    for row in (
        ("0x1.4892c46b6399fp-3", "0x1.0aafc89c18336p-2", "0x1.99e083867b462p+0"),
        ("0x1.c66cd3b66eff4p-3", "0x1.0aafc89c18337p-2", "0x1.71162f027e99ep-2"),
    )
]


# S_2 and S_3 share m and u, and l_3 is an ulp below l_2, so the stair
# drops S_3; but V(S_1 >= S_3) rounds an ulp below V(S_1 >= S_2), though it
# is the larger in exact arithmetic, so S_3 must be compared against too
ULP_BELOW_ITS_DOMINATOR = [
    [float.fromhex(x) for x in row]
    for row in (
        ("0x1.064fad28035b8p-1", "0x1.65ea59abca3ebp-1", "0x1.31a8f894be630p+0"),
        ("0x1.c693317ae0b8ap-2", "0x1.eb0ab9bc93f5ep-1", "0x1.f5855cde49fafp+0"),
        ("0x1.c693317ae0b89p-2", "0x1.eb0ab9bc93f5ep-1", "0x1.f5855cde49fafp+0"),
    )
]


def tfns():
    triple = st.tuples(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        st.floats(min_value=-100, max_value=100, allow_nan=False),
    )
    return triple.map(lambda t: Tfn(*sorted(t)))


def extent_set(seed):
    """2 to 40 ordered (l, m, u) rows drawn from a pool of at most 8 values,
    in [-100, 100] or two-decimal in [-2, 2], each bound moved an ulp either
    way or not at all: ties in m, equal triples and bounds an ulp apart are
    common."""
    rng = np.random.default_rng(seed)
    pool = rng.uniform(-100, 100, rng.integers(1, 9))
    if rng.integers(2):
        pool = np.round(pool / 50, 2)
    values = rng.choice(pool, (rng.integers(2, 41), 3))
    step = rng.integers(-1, 2, values.shape)
    nudged = np.nextafter(values, np.where(step > 0, np.inf, -np.inf))
    return np.sort(np.where(step == 0, values, nudged), axis=1)


def full_minimum(extents):
    return possibility_matrix(extents).min(axis=1)


def random_reciprocal(rng, n):
    entries = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            k = int(rng.integers(1, 10))
            value = float(k) if rng.integers(2) else 1.0 / k
            entries[i, j] = value
            entries[j, i] = 1.0 / value
    return ComparisonMatrix(entries=entries)


def summed_extents(f):
    """The computation the column fold replaces: sum the gathered values."""
    sums = f.values.sum(axis=1)
    return sums / sums.sum(axis=0)[::-1]


def assert_fold_is_bit_equal(n, seed):
    codes = random_codes(np.random.default_rng(seed), n)
    f = FuzzyComparisonMatrix(codes=codes)
    assert synthetic_extents(f).tobytes() == summed_extents(f).tobytes()


class TestSyntheticExtents:
    @given(n=st.integers(2, 400), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_fold_is_bit_equal_to_the_sum(self, n, seed):
        assert_fold_is_bit_equal(n, seed)

    def test_fold_is_bit_equal_to_the_sum_at_1000(self):
        assert_fold_is_bit_equal(1000, 1000)

    def test_two_by_two_symmetric(self):
        f = fuzzify(ComparisonMatrix(entries=np.ones((2, 2))))
        extents = synthetic_extents(f)
        assert extents.tolist() == [[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]]

    def test_three_by_three_symmetric(self):
        f = fuzzify(ComparisonMatrix(entries=np.ones((3, 3))))
        extents = synthetic_extents(f)
        assert extents.shape == (3, 3)
        assert np.max(np.abs(extents - 1 / 3)) <= 1e-15

    def test_worked_two_by_two(self):
        c = ComparisonMatrix(entries=np.array([[1.0, 5.0], [0.2, 1.0]]))
        l, m, u = synthetic_extents(fuzzify(c))[0]
        # row sums (2.5, 3, 3.5) and (1.4, 1.5, 5/3), total (3.9, 4.5, 31/6)
        assert l == pytest.approx(2.5 / (31 / 6), abs=1e-15)
        assert m == pytest.approx(3.0 / 4.5, abs=1e-15)
        assert u == pytest.approx(3.5 / 3.9, abs=1e-15)
        assert (l, m, u) == pytest.approx((0.4839, 0.6667, 0.8974), abs=5e-5)

    def test_modal_components_sum_to_one(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            f = fuzzify(random_reciprocal(rng, int(rng.integers(2, 8))))
            extents = synthetic_extents(f)
            assert extents[:, 1].sum() == pytest.approx(1.0, abs=1e-9)

    def test_extents_are_valid_tfns(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            f = fuzzify(random_reciprocal(rng, 5))
            for l, m, u in synthetic_extents(f):
                assert l <= m <= u


class TestPossibility:
    def test_equal_tfns(self):
        assert possibility(Tfn(1, 2, 3), Tfn(1, 2, 3)) == 1.0

    def test_disjoint_supports(self):
        assert possibility(Tfn(1, 2, 3), Tfn(4, 5, 6)) == 0.0

    def test_overlap_ordinate(self):
        assert possibility(Tfn(1, 2, 3.5), Tfn(2, 3, 4)) == 0.6

    def test_higher_modal_wins(self):
        assert possibility(Tfn(0, 5, 6), Tfn(1, 2, 3)) == 1.0

    @given(a=tfns())
    @settings(max_examples=100, deadline=None)
    def test_self_possibility_is_one(self, a):
        assert possibility(a, a) == 1.0

    @given(a=tfns(), b=tfns())
    @example(a=Tfn(*ULP_APART[0]), b=Tfn(*ULP_APART[1]))
    @settings(max_examples=200, deadline=None)
    def test_bounded(self, a, b):
        v = possibility(a, b)
        assert 0.0 <= v <= 1.0

    @given(a=tfns(), b=tfns())
    @settings(max_examples=200, deadline=None)
    def test_overlap_branch_strictly_interior(self, a, b):
        # margins keep float rounding from flattening the strict bounds
        if a.m < b.m - 1e-6 and b.l < a.u - 1e-6:
            assert 0.0 < possibility(a, b) < 1.0


class TestPossibilityMatrix:
    @given(extents=st.lists(tfns(), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_every_cell_matches_the_oracle(self, extents):
        triples = [e.as_tuple() for e in extents]
        v = possibility_matrix(np.array(triples))
        for i, a in enumerate(triples):
            for k, b in enumerate(triples):
                assert v[i, k] == oracle.possibility(a, b)

    @pytest.mark.parametrize(
        "extents",
        [
            [[1.0, 2.0, 3.0], [2.5, 2.0, 3.0]],
            [[1.0, 2.0, 3.0], [1.0, 2.0, 1.5]],
            [[1.0, 2.0, 3.0], [1.0, float("nan"), 3.0]],
            [[1.0, 2.0, 3.0], [1.0, 2.0]],
            [1.0, 2.0, 3.0],
            np.ones((2, 3, 1)),
        ],
        ids=["l>m", "m>u", "nan", "ragged", "flat", "3-d"],
    )
    def test_rejects_anything_but_valid_tfn_rows(self, extents):
        for kernel in (possibility_matrix, min_degrees):
            with pytest.raises(ValueError):
                kernel(extents)


class TestMinDegrees:
    def test_symmetric_three(self):
        extents = np.full((3, 3), 1 / 3)
        assert min_degrees(extents).tolist() == [1.0, 1.0, 1.0]

    def test_dominant_pair(self):
        degrees = min_degrees(np.array([[2, 3, 4], [1, 2, 3.5]]))
        assert degrees[0] == 1.0
        assert degrees[1] == 0.6

    def test_disjoint_dominated_is_zero(self):
        degrees = min_degrees(np.array([[4, 5, 6], [1, 2, 3]]))
        assert degrees.tolist() == [1.0, 0.0]

    def test_single_extent_rejected(self):
        for extents in (np.array([[1, 2, 3]]), np.empty((0, 3))):
            with pytest.raises(TooFewCriteria):
                min_degrees(extents)

    def test_capped_at_one_when_modal_values_are_an_ulp_apart(self):
        extents = np.array(ULP_APART)
        assert possibility_matrix(extents)[0, 1] == 1.0
        assert min_degrees(extents).tolist() == [1.0, 1.0]
        assert weights(extents).weights.tolist() == [0.5, 0.5]

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=1000, deadline=None)
    def test_stair_is_bit_equal_to_the_full_minimum(self, seed):
        extents = extent_set(seed)
        assert min_degrees(extents).tobytes() == full_minimum(extents).tobytes()

    @given(n=st.integers(2, 400), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_stair_is_bit_equal_on_lattice_extents(self, n, seed):
        rng = np.random.default_rng(seed)
        ratings = rng.integers(0, 401, (int(rng.integers(1, 30)), n)) / 100
        extents = synthetic_extents(build_comparison(ratings.mean(axis=0)))
        degrees = min_degrees(extents)
        assert degrees.tobytes() == full_minimum(extents).tobytes()
        assert degrees.tobytes() == np.array(oracle.min_degrees(extents.tolist())).tobytes()

    def test_an_extent_an_ulp_below_its_dominator_is_compared_against(self):
        extents = np.array(ULP_BELOW_ITS_DOMINATOR)
        low, mid, _ = extents.T
        assert _stair(low, mid).tolist() == [True, True, True]
        assert (mid[1], extents[1, 2]) == (mid[2], extents[2, 2])
        assert np.nextafter(low[2], 1.0) == low[1]
        assert min_degrees(extents).tobytes() == full_minimum(extents).tobytes()

    def test_two_extent_stair_of_the_reference_tests(self):
        """test_reference's seed-201 means (n = 25) give a stair of two
        extents, and four degrees take their minimum from the second."""
        rng = np.random.default_rng(201)
        n = rng.integers(2, 80)
        means = (rng.integers(0, 17, size=(rng.integers(1, 30), n)) / 4).mean(axis=0)
        extents = synthetic_extents(build_comparison(means))
        stair = np.flatnonzero(_stair(extents[:, 0], extents[:, 1]))
        assert (n, stair.size) == (25, 2)
        top = np.argmax(extents[:, 1])
        degrees = min_degrees(extents)
        assert np.sum(degrees < possibility_matrix(extents)[:, top]) == 4
        assert degrees.tobytes() == full_minimum(extents).tobytes()
        assert degrees.tobytes() == np.array(oracle.min_degrees(extents.tolist())).tobytes()

    def test_stair_of_every_extent(self):
        """Modal values fall while lower bounds rise: all 200 are steps."""
        mid = np.linspace(1.0, 0.5, 200)
        extents = np.stack([np.linspace(0.0, 0.4, 200), mid, mid + 0.3], axis=1)
        assert _stair(extents[:, 0], extents[:, 1]).all()
        assert min_degrees(extents).tobytes() == full_minimum(extents).tobytes()

    def test_equal_triples_make_a_one_extent_stair(self):
        """Ties in m are walked in index order and an equal l is no step, so
        the first of 100 equal extents, after 100 that they dominate, is the
        whole stair, whatever order an unstable sort gives the ties."""
        extents = np.repeat([[0.0, 0.25, 0.9], [0.2, 0.5, 0.9]], 100, axis=0)
        assert np.flatnonzero(_stair(extents[:, 0], extents[:, 1])).tolist() == [100]
        assert min_degrees(extents).tobytes() == full_minimum(extents).tobytes()


class TestWeights:
    def test_uniform_ten(self):
        f = fuzzify(ComparisonMatrix(entries=np.ones((10, 10))))
        w = weights(synthetic_extents(f))
        assert np.max(np.abs(w.weights - 0.1)) <= 1e-12

    def test_hand_normalization(self):
        w = weights(np.array([[2, 3, 4], [1, 2, 3.5]]), labels=("top", "second"))
        assert w.min_degrees.tolist() == [1.0, 0.6]
        assert w.weights[0] == pytest.approx(0.625, abs=1e-12)
        assert w.weights[1] == pytest.approx(0.375, abs=1e-12)
        assert w.labels == ("top", "second")

    def test_single_survivor(self):
        w = weights(np.array([[10, 11, 12], [1, 2, 3], [2, 3, 4]]))
        assert w.weights.tolist() == [1.0, 0.0, 0.0]

    def test_default_labels(self):
        w = weights(np.array([[2, 3, 4], [1, 2, 3.5]]))
        assert w.labels == ("C1", "C2")

    def test_label_permutation_equivariance(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            n = int(rng.integers(3, 7))
            c = random_reciprocal(rng, n)
            base = weights(synthetic_extents(fuzzify(c)))
            perm = rng.permutation(n)
            permuted_entries = c.entries[np.ix_(perm, perm)]
            permuted = weights(
                synthetic_extents(fuzzify(ComparisonMatrix(entries=permuted_entries)))
            )
            assert np.max(np.abs(permuted.weights - base.weights[perm])) <= 1e-12

    def test_weight_vector_validation(self):
        with pytest.raises(ValueError):
            WeightVector(
                labels=("a", "b"),
                weights=np.array([0.7, 0.7]),
                min_degrees=np.array([1.0, 1.0]),
            )
        with pytest.raises(ValueError):
            WeightVector(
                labels=("a", "b"),
                weights=np.array([1.5, -0.5]),
                min_degrees=np.array([1.0, 1.0]),
            )
        with pytest.raises(ValueError):
            WeightVector(
                labels=("a",),
                weights=np.array([0.5, 0.5]),
                min_degrees=np.array([1.0, 1.0]),
            )

    @pytest.mark.parametrize(
        "weight_values, min_degrees",
        [
            ([np.nan, np.nan], [1.0, 1.0]),
            ([np.nan, 1.0], [1.0, 1.0]),
            ([0.5, 0.5], [np.nan, 1.0]),
        ],
        ids=["nan-weights", "nan-weight", "nan-min-degree"],
    )
    def test_weight_vector_refuses_nan(self, weight_values, min_degrees):
        with pytest.raises(ValueError):
            WeightVector(
                labels=("a", "b"),
                weights=np.array(weight_values),
                min_degrees=np.array(min_degrees),
            )

    @pytest.mark.parametrize(
        "degrees",
        [[-1e6, 3.0], [-0.25, 1.0], [1.0, 1.0000000000000002], [np.inf, 1.0]],
        ids=["far-out", "negative", "one-ulp-above", "infinite"],
    )
    def test_weight_vector_refuses_degrees_outside_the_unit_interval(self, degrees):
        with pytest.raises(ValueError, match=r"min_degrees must lie in \[0, 1\]"):
            WeightVector(
                labels=("a", "b"),
                weights=np.array([0.5, 0.5]),
                min_degrees=np.array(degrees),
            )
