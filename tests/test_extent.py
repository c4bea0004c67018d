"""Synthetic extents, possibility degrees, and weight normalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fahp.extent
import oracle
from conftest import random_codes
from fahp import (
    AllZeroDegrees,
    ComparisonMatrix,
    FuzzyComparisonMatrix,
    Tfn,
    TooFewCriteria,
    WeightVector,
    fuzzify,
    min_degrees,
    possibility,
    possibility_matrix,
    synthetic_extents,
    weights,
)


def tfns():
    triple = st.tuples(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        st.floats(min_value=-100, max_value=100, allow_nan=False),
    )
    return triple.map(lambda t: Tfn(*sorted(t)))


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
        with pytest.raises(ValueError):
            possibility_matrix(extents)


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
        with pytest.raises(TooFewCriteria):
            min_degrees(np.array([[1, 2, 3]]))


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

    def test_all_zero_degrees_guard(self, monkeypatch):
        # unreachable from valid extents (the largest modal value always
        # keeps degree 1), so force the defensive branch directly
        monkeypatch.setattr(
            fahp.extent, "min_degrees", lambda extents: np.zeros(len(extents))
        )
        with pytest.raises(AllZeroDegrees):
            fahp.extent.weights(np.array([[1, 2, 3], [1, 2, 3]]))

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
