"""Scoring, rank assembly, MSE, and the validation record."""

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
    ScoreVector,
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
    return WeightVector(labels=tuple(labels), weights=w, min_degrees=w * len(w))


UNIFORM2 = weight_vector([0.5, 0.5], ("A", "B"))


class TestScore:
    def test_uniform_weights_flat_data(self):
        m = rating([[2.0, 2.0], [2.0, 2.0]], ("A", "B"))
        w = weight_vector([0.1, 0.9], ("A", "B"))
        s = score(m, weight_vector([0.5, 0.5], ("A", "B")))
        assert s.scores.tolist() == [1.0, 1.0]
        assert score(m, w).scores.tolist() == [0.2, 1.8]

    def test_masking_weight(self):
        m = rating([[3.0, 4.0]], ("A", "B"))
        w = weight_vector([1.0, 0.0], ("A", "B"))
        assert score(m, w).scores.tolist() == [3.0, 0.0]

    def test_sum_aggregate(self):
        m = rating([[1.0, 2.0], [3.0, 4.0]], ("A", "B"))
        s = score(m, UNIFORM2, aggregate="sum")
        assert s.scores.tolist() == [2.0, 3.0]

    def test_normalized_path_tagged(self):
        m = rating([[1.0, 2.0], [3.0, 4.0]], ("A", "B"))
        s = score(normalize(m), UNIFORM2)
        # columns divided by their maxima 3 and 4 have means 2/3 and 3/4
        assert s.scores.tolist() == [1 / 3, 0.375]

    def test_dimension_mismatch(self):
        m = rating([[1.0, 2.0]], ("A", "B"))
        w = weight_vector([0.2, 0.3, 0.5], ("A", "B", "C"))
        with pytest.raises(DimensionMismatch):
            score(m, w)

    def test_unknown_aggregate(self):
        m = rating([[1.0, 2.0]], ("A", "B"))
        with pytest.raises(ValueError):
            score(m, UNIFORM2, aggregate="median")


class TestRank:
    def test_descending_with_published_style_scores(self):
        s = ScoreVector(
            labels=("Parks/Picnic Spots", "Beaches", "Restaurants"),
            scores=np.array([0.6361, 0.5670, 0.1065]),
        )
        rows = rank(s)
        assert [r.rank for r in rows] == [1, 2, 3]
        assert [r.label for r in rows] == [
            "Parks/Picnic Spots",
            "Beaches",
            "Restaurants",
        ]

    def test_tie_breaks_by_label(self):
        s = ScoreVector(
            labels=("B", "A"),
            scores=np.array([0.5, 0.5]),
        )
        rows = rank(s)
        assert [r.label for r in rows] == ["A", "B"]
        assert [r.rank for r in rows] == [1, 2]

    def test_single_criterion(self):
        s = ScoreVector(labels=("only",), scores=np.array([1.0]))
        rows = rank(s)
        assert rows[0].rank == 1
        assert rows[0].score_normalized is None

    def test_empty_rejected(self):
        s = ScoreVector(labels=(), scores=np.array([]))
        with pytest.raises(EmptyInput):
            rank(s)

    def test_companion_fills_second_column(self):
        real = ScoreVector(labels=("A", "B"), scores=np.array([2.0, 1.0]))
        norm = ScoreVector(labels=("A", "B"), scores=np.array([0.5, 0.25]))
        rows = rank(real, norm)
        assert rows[0].score_normalized == 0.5
        assert rows[1].score_normalized == 0.25

    def test_companion_label_mismatch(self):
        real = ScoreVector(labels=("A", "B"), scores=np.array([2.0, 1.0]))
        norm = ScoreVector(labels=("A", "C"), scores=np.array([0.5, 0.25]))
        with pytest.raises(ValueError):
            rank(real, norm)

    def test_order_invariant_under_positive_scaling(self):
        rng = np.random.default_rng(61)
        labels = tuple(f"L{i}" for i in range(8))
        for _ in range(50):
            values = rng.uniform(0, 1, size=8)
            c = float(rng.uniform(0.01, 100))
            base = rank(ScoreVector(labels, values))
            scaled = rank(ScoreVector(labels, values * c))
            assert [r.label for r in base] == [r.label for r in scaled]

    def test_uniform_weights_order_equals_mean_order(self):
        rng = np.random.default_rng(62)
        labels = tuple(f"L{i}" for i in range(6))
        w = weight_vector([1 / 6] * 6, labels)
        for _ in range(30):
            m = rating(rng.uniform(0, 4, size=(15, 6)), labels)
            rows = rank(score(m, w))
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
            real_rows = rank(score(m, w))
            norm_rows = rank(score(normalize(m), w))
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


def toy_report(scores=(0.5, 0.3, 0.2)):
    labels = ("A", "B", "C")
    w = weight_vector([1 / 3] * 3, labels)
    real = ScoreVector(labels, np.array(scores))
    norm = ScoreVector(labels, np.array(scores) / 2)
    consistency = check(ComparisonMatrix(entries=np.ones((3, 3))))
    return build_report(real, norm, consistency, w)


class TestReportAndValidate:
    def test_rows_sorted_and_positions_match(self):
        report = toy_report()
        assert [r.rank for r in report.rows] == [1, 2, 3]
        assert [r.label for r in report.rows] == ["A", "B", "C"]
        scores = [r.score_real for r in report.rows]
        assert scores == sorted(scores, reverse=True)

    def test_score_by_label_and_with_mse(self):
        report = toy_report()
        assert report.score_by_label()["B"] == 0.3
        assert report.mse is None
        assert report.with_mse(0.25).mse == 0.25

    def test_validate_identical(self):
        report = toy_report()
        record = validate(report, [0.5, 0.3, 0.2], tolerance=1e-3)
        assert record.mse == 0.0
        assert record.passed

    def test_validate_small_perturbation_passes(self):
        scores = tuple(np.linspace(1.0, 0.1, 10))
        labels = tuple(f"L{i}" for i in range(10))
        w = weight_vector([0.1] * 10, labels)
        real = ScoreVector(labels, np.array(scores))
        norm = ScoreVector(labels, np.array(scores) / 2)
        consistency = check(ComparisonMatrix(entries=np.ones((10, 10))))
        report = build_report(real, norm, consistency, w)
        oracle = list(scores)
        oracle[4] += 0.01
        record = validate(report, oracle, tolerance=1e-3)
        assert record.mse == pytest.approx(1e-5, rel=1e-9)
        assert record.passed

    def test_validate_wrong_weights_fail(self):
        report = toy_report()
        record = validate(report, [1.0, 0.3, 0.2], tolerance=1e-3)
        assert not record.passed
        assert record.mse > 1e-3

    def test_validate_realigns_by_label(self):
        # report rows are rank-ordered; the oracle vector stays in the
        # original criteria order, so alignment must go through labels
        report = toy_report(scores=(0.2, 0.5, 0.3))
        record = validate(report, [0.2, 0.5, 0.3], tolerance=1e-12)
        assert record.mse == 0.0
