"""Scoring, rank assembly, MSE, and the validation record."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fahp import (
    ComparisonMatrix,
    DimensionMismatch,
    EmptyInput,
    LengthMismatch,
    RatingMatrix,
    WeightVector,
    build_report,
    check,
    mse,
    normalize,
    rank,
    score,
    validate,
)


def rating(values, labels):
    arr = np.asarray(values, dtype=float)
    ids = tuple(f"u{i}" for i in range(arr.shape[0]))
    return RatingMatrix(values=arr, row_ids=ids, criteria=tuple(labels))


def weight_vector(values, labels):
    w = np.asarray(values, dtype=float)
    return WeightVector(labels=tuple(labels), weights=w, min_degrees=w / w.max())


UNIFORM2 = weight_vector([0.5, 0.5], ("A", "B"))


def halved(s):
    """A companion for rank: half the scores, in the same order."""
    return np.asarray(s) / 2


class TestScore:
    def test_uniform_weights_flat_data(self):
        m = rating([[2.0, 2.0], [2.0, 2.0]], ("A", "B"))
        w = weight_vector([0.1, 0.9], ("A", "B"))
        s = score(m, weight_vector([0.5, 0.5], ("A", "B")))
        assert s.tolist() == [1.0, 1.0]
        assert score(m, w).tolist() == [0.2, 1.8]

    def test_masking_weight(self):
        m = rating([[3.0, 4.0]], ("A", "B"))
        w = weight_vector([1.0, 0.0], ("A", "B"))
        assert score(m, w).tolist() == [3.0, 0.0]

    def test_normalized_path_tagged(self):
        m = rating([[1.0, 2.0], [3.0, 4.0]], ("A", "B"))
        s = score(normalize(m), UNIFORM2)
        # columns divided by their maxima 3 and 4 have means 2/3 and 3/4
        assert s.tolist() == [1 / 3, 0.375]

    def test_read_only_weights_times_means(self):
        rng = np.random.default_rng(60)
        labels = tuple(f"L{i}" for i in range(7))
        m = rating(rng.uniform(0, 4, size=(23, 7)), labels)
        raw = rng.uniform(0, 1, size=7)
        w = weight_vector(raw / raw.sum(), labels)
        s = score(m, w)
        assert not s.flags.writeable
        assert s.tobytes() == (w.weights * m.values.mean(axis=0)).tobytes()

    def test_dimension_mismatch(self):
        m = rating([[1.0, 2.0]], ("A", "B"))
        w = weight_vector([0.2, 0.3, 0.5], ("A", "B", "C"))
        with pytest.raises(DimensionMismatch):
            score(m, w)

    @given(
        n=st.integers(2, 12),
        rows=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        grid=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_normalized_scores_never_exceed_the_weights(self, n, rows, seed, grid):
        # a mean of cells in [0, 1] is at most 1, so no finite --report-scale
        # that keeps every weight finite can overflow a normalized score
        rng = np.random.default_rng(seed)
        if grid:
            # quarter steps from 0 to 4 hold both bounds and all-zero columns
            values = rng.integers(0, 17, size=(rows, n)) / 4
        else:
            values = rng.uniform(0.0, 4.0, size=(rows, n))
        labels = tuple(f"L{i}" for i in range(n))
        raw = rng.uniform(0.0, 1.0, size=n)
        w = weight_vector(raw / raw.sum(), labels)
        s = score(normalize(rating(values, labels)), w)
        assert np.all(s <= w.weights)
        assert np.all(w.weights <= 1.0)


class TestRank:
    def test_descending_with_published_style_scores(self):
        labels = ("Parks/Picnic Spots", "Beaches", "Restaurants")
        s = np.array([0.6361, 0.5670, 0.1065])
        rows = rank(labels, s, halved(s))
        assert [r.rank for r in rows] == [1, 2, 3]
        assert [r.label for r in rows] == [
            "Parks/Picnic Spots",
            "Beaches",
            "Restaurants",
        ]

    def test_tie_breaks_by_label(self):
        s = np.array([0.5, 0.5])
        rows = rank(("B", "A"), s, halved(s))
        assert [r.label for r in rows] == ["A", "B"]
        assert [r.rank for r in rows] == [1, 2]

    def test_single_criterion(self):
        rows = rank(("only",), np.array([1.0]), np.array([0.5]))
        assert rows[0].rank == 1
        assert rows[0].score_normalized == 0.5

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            rank((), np.array([]), np.array([]))

    def test_companion_fills_second_column(self):
        rows = rank(("A", "B"), np.array([2.0, 1.0]), np.array([0.5, 0.25]))
        assert rows[0].score_normalized == 0.5
        assert rows[1].score_normalized == 0.25

    def test_companion_label_mismatch(self):
        # a companion with a score too few or too many does not cover the labels
        for norm in ([0.5], [0.5, 0.25, 0.125]):
            with pytest.raises(ValueError):
                rank(("A", "B"), np.array([2.0, 1.0]), np.array(norm))

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            rank(("A", "B", "C"), np.array([2.0, 1.0]), np.array([0.5, 0.25]))
        with pytest.raises(ValueError):
            rank(("A",), np.array([2.0, 1.0]), np.array([0.5, 0.25]))

    def test_order_invariant_under_positive_scaling(self):
        rng = np.random.default_rng(61)
        labels = tuple(f"L{i}" for i in range(8))
        for _ in range(50):
            values = rng.uniform(0, 1, size=8)
            c = float(rng.uniform(0.01, 100))
            base = rank(labels, values, halved(values))
            scaled = rank(labels, values * c, halved(values))
            assert [r.label for r in base] == [r.label for r in scaled]

    def test_uniform_weights_order_equals_mean_order(self):
        rng = np.random.default_rng(62)
        labels = tuple(f"L{i}" for i in range(6))
        w = weight_vector([1 / 6] * 6, labels)
        for _ in range(30):
            m = rating(rng.uniform(0, 4, size=(15, 6)), labels)
            s = score(m, w)
            rows = rank(labels, s, halved(s))
            mean_order = [
                labels[i]
                for i in sorted(
                    range(6), key=lambda i: (-m.values.mean(axis=0)[i], labels[i])
                )
            ]
            assert [r.label for r in rows] == mean_order

    def test_real_and_normalized_paths_agree_when_maxima_equal(self):
        rng = np.random.default_rng(63)
        labels = tuple(f"L{i}" for i in range(5))
        w = weight_vector([0.2] * 5, labels)
        for _ in range(30):
            values = rng.uniform(0, 3.9, size=(12, 5))
            values[0, :] = 4.0  # every column peaks at the same maximum
            m = rating(values, labels)
            real = score(m, w)
            norm = score(normalize(m), w)
            real_rows = rank(labels, real, norm)
            norm_rows = rank(labels, norm, real)
            assert [r.label for r in real_rows] == [r.label for r in norm_rows]


class TestMse:
    def test_identical_vectors(self):
        assert mse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_hand_value(self):
        assert mse([1.0, 2.0], [0.0, 2.0]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            mse([1.0], [1.0, 2.0])

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            mse([], [])

    @given(
        f=st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_symmetric_and_nonnegative(self, f):
        y = list(reversed(f))
        assert mse(f, y) == mse(y, f)
        assert mse(f, y) >= 0.0


TOY_SCORES = np.array([0.5, 0.3, 0.2])


def toy_report(mse=0.0):
    w = weight_vector([1 / 3] * 3, ("A", "B", "C"))
    consistency = check(ComparisonMatrix(entries=np.ones((3, 3))))
    return build_report(TOY_SCORES, halved(TOY_SCORES), consistency, w, mse)


class TestReportAndValidate:
    def test_rows_sorted_and_positions_match(self):
        report = toy_report()
        assert [r.rank for r in report.rows] == [1, 2, 3]
        assert [r.label for r in report.rows] == ["A", "B", "C"]
        scores = [r.score_real for r in report.rows]
        assert scores == sorted(scores, reverse=True)

    def test_score_by_label_and_with_mse(self):
        report = toy_report(mse=0.25)
        by_label = {row.label: row.score_real for row in report.rows}
        assert by_label["B"] == 0.3
        assert report.mse == 0.25

    def test_validate_identical(self):
        record = toy_validate([0.5, 0.3, 0.2])
        assert record.mse == 0.0
        assert record.passed
        assert record.failures == ()

    def test_validate_small_perturbation_passes(self):
        scores = tuple(np.linspace(1.0, 0.1, 10))
        oracle = list(scores)
        oracle[4] += 0.01
        labels = [f"C{c}" for c in range(10)]
        record = validate(labels, np.array(scores), oracle, [1.0] * 10, {}, 1, tolerance=1e-3)
        assert record.mse == pytest.approx(1e-5, rel=1e-9)
        assert record.passed

    def test_validate_wrong_weights_fail(self):
        record = toy_validate([1.0, 0.3, 0.2])
        assert not record.passed
        assert record.mse > 1e-3
        assert record.failures == ("mse exceeds the configured tolerance",)


def toy_validate(oracle, means=(1.0, 1.0, 1.0), folded=None, rows=1):
    return validate(
        ("A", "B", "C"), TOY_SCORES, oracle, means, folded or {}, rows, tolerance=1e-3
    )


def abc_validate(scores, oracle):
    return validate(("A", "B", "C"), np.array(scores), oracle, [1.0] * 3, {}, 1)


class TestValidationChecks:
    """Each disagreement gives one message; agreement gives none."""

    def test_rank_order(self):
        record = abc_validate([0.5, 0.3, 0.29], [0.5, 0.29, 0.3])
        assert record.failures == (
            "rank order differs from the reference at rank 2: B here, C in the reference",
        )

    def test_ties_order_by_label(self):
        # B and C tie in the reference; by label B comes first, as here
        assert abc_validate([0.5, 0.25 + 1e-9, 0.25], [0.5, 0.25, 0.25]).failures == ()

    def test_zero_set(self):
        record = abc_validate([0.5, 0.0, 0.0], [0.5, 1e-30, 0.0])
        assert record.failures == ("zero scores differ from the reference for B",)

    def test_zero_set_and_order_each_give_a_line(self):
        record = abc_validate([0.5, 0.0, 0.01], [0.5, 0.01, 0.0])
        assert record.failures == (
            "rank order differs from the reference at rank 2: C here, B in the reference",
            "zero scores differ from the reference for B, C",
        )

    def test_mean_within_rounding_passes(self):
        # one row: the handed mean is the rating itself, 3 ulps of room
        fold = 1.0 + 2**-52
        near = np.nextafter(fold, 2.0)
        assert toy_validate([0.5, 0.3, 0.2], (near, 1.0, 1.0), {0: fold}).failures == ()

    def test_mean_beyond_rounding_fails(self):
        fold = 1.0 + 2**-52
        far = fold + 4 * 2**-52
        record = toy_validate([0.5, 0.3, 0.2], (far, 1.0, 9.0), {0: fold, 2: 1.0})
        assert record.failures == (
            "means differ from the reference beyond summation error for A, C",
        )

    def test_unfolded_columns_are_not_checked(self):
        assert toy_validate([0.5, 0.3, 0.2], (1.0, 7.0, 1.0), {0: 1.0}).failures == ()

    @given(
        rows=st.integers(1, 3000),
        seed=st.integers(0, 2**32 - 1),
        grid=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_numpy_means_stay_within_the_bound(self, rows, seed, grid):
        rng = np.random.default_rng(seed)
        if grid:
            values = rng.integers(0, 17, size=(rows, 3)) / 4
        else:
            values = rng.uniform(0.0, 4.0, size=(rows, 3))
        folded = {c: math.fsum(column) / rows for c, column in enumerate(values.T.tolist())}
        record = toy_validate([0.5, 0.3, 0.2], values.mean(axis=0), folded, rows)
        assert record.failures == ()
