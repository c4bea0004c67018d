"""Comparison building, the principal value, and the CI/CR gate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fahp import (
    CR_LIMIT,
    ComparisonMatrix,
    NoConvergence,
    OrderTooSmall,
    TooFewCriteria,
    UnknownDerivationRule,
    UnsupportedOrder,
    ZeroRandomIndex,
    build_comparison,
    check,
    consistency,
    consistency_index,
    consistency_ratio,
    lambda_max,
    random_index,
)


def matrix(rows):
    return ComparisonMatrix(entries=np.array(rows, dtype=float))


class TestComparisonMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            ComparisonMatrix(entries=np.ones((2, 3)))

    def test_rejects_bad_diagonal(self):
        with pytest.raises(ValueError):
            matrix([[1, 2], [0.5, 2]])

    def test_rejects_broken_reciprocity(self):
        with pytest.raises(ValueError):
            matrix([[1, 2], [0.4, 1]])

    def test_rejects_out_of_scale_entries(self):
        with pytest.raises(ValueError):
            matrix([[1, 12], [1 / 12, 1]])

    def test_entries_frozen(self):
        c = matrix([[1, 2], [0.5, 1]])
        with pytest.raises(ValueError):
            c.entries[0, 1] = 3.0


class TestBuildComparison:
    def test_equal_means_give_all_ones(self):
        c = build_comparison([3.0, 3.0, 3.0])
        assert np.array_equal(c.entries, np.ones((3, 3)))

    def test_full_gap_maps_to_nine(self):
        c = build_comparison([4.0, 0.0])
        assert c.entries[0, 1] == 9.0
        assert c.entries[1, 0] == pytest.approx(1 / 9, abs=1e-15)

    def test_three_level_example(self):
        c = build_comparison([2.0, 1.0, 0.0])
        assert c.entries[0, 2] == 9.0
        assert c.entries[0, 1] == 5.0
        assert c.entries[1, 2] == 5.0

    def test_rounding_is_half_up(self):
        # gaps of 5.5 and 2.5 eighths must go up, not to even
        c = build_comparison([1.6, 0.5, 0.0])
        assert c.entries[0, 1] == 7.0
        assert c.entries[1, 2] == 4.0

    def test_means_whose_span_overflows_are_refused(self):
        # the extreme gaps are inf / inf, which no intensity stands for
        with pytest.raises(ValueError, match="comparison entries must be finite"):
            build_comparison([-1e308, 0.0, 1e308])

    def test_uniform_rule(self):
        c = build_comparison([0.1, 2.2, 3.3], rule="uniform")
        assert np.array_equal(c.entries, np.ones((3, 3)))

    def test_unknown_rule(self):
        with pytest.raises(UnknownDerivationRule):
            build_comparison([1.0, 2.0], rule="nope")

    def test_too_few_criteria(self):
        with pytest.raises(TooFewCriteria):
            build_comparison([1.0])

    def test_reciprocity_for_random_means(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            c = build_comparison(rng.uniform(0, 4, size=n))
            product = c.entries * c.entries.T
            assert np.max(np.abs(product - 1.0)) <= 1e-12


class TestLambdaMax:
    def test_consistent_two_by_two(self):
        assert lambda_max(matrix([[1, 2], [0.5, 1]])) == pytest.approx(2.0, abs=1e-9)

    def test_all_ones_ten(self):
        c = ComparisonMatrix(entries=np.ones((10, 10)))
        assert lambda_max(c) == pytest.approx(10.0, abs=1e-9)

    def test_against_dense_eigenvalue_oracle(self):
        c = matrix([[1, 2, 0.25], [0.5, 1, 4], [4, 0.25, 1]])
        expected = max(np.linalg.eigvals(c.entries).real)
        assert lambda_max(c) == pytest.approx(float(expected), abs=1e-9)

    def test_random_matrices_match_oracle(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            n = int(rng.integers(3, 7))
            entries = np.ones((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    k = int(rng.integers(1, 10))
                    value = float(k) if rng.integers(2) else 1.0 / k
                    entries[i, j] = value
                    entries[j, i] = 1.0 / value
            c = ComparisonMatrix(entries=entries)
            expected = float(max(np.linalg.eigvals(entries).real))
            assert lambda_max(c) == pytest.approx(expected, abs=1e-8)

    def test_iteration_cap_raises(self, monkeypatch):
        c = matrix([[1, 9, 1 / 9], [1 / 9, 1, 9], [9, 1 / 9, 1]])
        monkeypatch.setattr(consistency, "POWER_ITERATION_CAP", 1)
        with pytest.raises(NoConvergence):
            lambda_max(c)

    def test_consistent_matrices_from_positive_weights(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            w = rng.uniform(1.0, 2.0, size=n)
            entries = np.outer(w, 1.0 / w)
            np.fill_diagonal(entries, 1.0)
            c = ComparisonMatrix(entries=entries)
            assert lambda_max(c) == pytest.approx(n, abs=1e-9)


class TestIndexAndRatio:
    def test_consistent_index_zero(self):
        assert consistency_index(10.0, 10) == 0.0

    def test_forced_unit_principal_value(self):
        assert consistency_index(1.0, 10) == -1.0

    def test_direct_substitution(self):
        assert consistency_index(3.1, 3) == pytest.approx(0.05, abs=1e-12)

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall):
            consistency_index(1.0, 1)

    def test_saaty_table_values(self):
        assert random_index(3) == 0.58
        assert random_index(1) == 0.0
        assert random_index(10) == 1.49

    def test_compat_constant(self):
        assert random_index(10, mode="paper_compat") == 180.0
        assert random_index(3, mode="paper_compat") == 180.0

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrder):
            random_index(11)

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError):
            random_index(0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            random_index(3, mode="other")

    def test_ratio_values(self):
        assert consistency_ratio(-1.0, 180.0) == pytest.approx(-0.0055555555, abs=1e-9)
        assert consistency_ratio(0.0, 1.49) == 0.0

    def test_boundary_ratio_accepted(self):
        cr = consistency_ratio(0.149, 1.49)
        assert cr == pytest.approx(0.1, abs=1e-12)
        assert cr <= CR_LIMIT

    def test_zero_random_index_with_real_inconsistency(self):
        with pytest.raises(ZeroRandomIndex):
            consistency_ratio(0.5, 0.0)

    def test_zero_random_index_snaps_float_noise(self):
        assert consistency_ratio(1e-12, 0.0) == 0.0

    @given(
        ci=st.floats(min_value=1e-6, max_value=10),
        ir_low=st.floats(min_value=0.1, max_value=10),
        ir_extra=st.floats(min_value=0, max_value=10),
    )
    @settings(max_examples=100, deadline=None)
    def test_ratio_monotone_in_random_index(self, ci, ir_low, ir_extra):
        assert consistency_ratio(ci, ir_low + ir_extra) <= consistency_ratio(ci, ir_low)


class TestCheck:
    def test_all_ones_ten_standard(self):
        report = check(ComparisonMatrix(entries=np.ones((10, 10))))
        assert report.accepted
        assert report.cr == pytest.approx(0.0, abs=1e-12)
        assert report.warnings == ()

    def test_forced_compat_reproduction(self):
        report = check(
            ComparisonMatrix(entries=np.ones((10, 10))),
            ir_mode="paper_compat",
        )
        assert report.ci == -1.0
        assert report.cr == pytest.approx(-1.0 / 180.0, abs=1e-15)
        assert report.accepted
        assert any("forced" in w for w in report.warnings)
        assert any("negative" in w for w in report.warnings)

    def test_compat_pins_the_principal_value_of_any_matrix(self):
        # the power iteration would give this cyclic matrix a CR far above 0.1
        cyclic = matrix([[1, 9, 1 / 9], [1 / 9, 1, 9], [9, 1 / 9, 1]])
        report = check(cyclic, "paper_compat")
        assert report.lambda_max == 1.0
        assert report.ir == 180.0
        assert report.accepted
        assert "lambda_max was forced by configuration, not computed" in report.warnings

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            check(matrix([[1, 3], [1 / 3, 1]]), "other")

    def test_refusals_come_before_the_power_iteration(self, monkeypatch):
        def no_iteration(c):
            raise AssertionError("lambda_max ran")

        monkeypatch.setattr(consistency, "lambda_max", no_iteration)
        entries = np.ones((11, 11))
        entries[np.triu_indices(11, 1)] = 3.0
        entries[np.tril_indices(11, -1)] = 1 / 3
        eleven = ComparisonMatrix(entries=entries)
        with pytest.raises(UnsupportedOrder):
            check(eleven, "standard")
        with pytest.raises(ValueError, match="mode must be one of"):
            check(eleven, "other")

    def test_cyclic_matrix_rejected(self):
        report = check(matrix([[1, 9, 1 / 9], [1 / 9, 1, 9], [9, 1 / 9, 1]]))
        assert not report.accepted
        assert report.cr > CR_LIMIT

    def test_two_criteria_always_consistent(self):
        report = check(matrix([[1, 3], [1 / 3, 1]]))
        assert report.accepted
        assert report.ir == 0.0
        assert report.cr == 0.0

    def test_deterministic(self):
        c = matrix([[1, 2, 0.25], [0.5, 1, 4], [4, 0.25, 1]])
        assert check(c) == check(c)

    def test_report_reconstructible(self):
        c = matrix([[1, 5, 5], [0.2, 1, 1], [0.2, 1, 1]])
        report = check(c)
        rebuilt = (report.lambda_max - report.n) / (report.n - 1)
        assert report.ci == pytest.approx(rebuilt, abs=1e-15)
        assert report.accepted == (report.cr <= CR_LIMIT)

    def test_as_dict_fields(self):
        report = check(matrix([[1, 2], [0.5, 1]]))
        doc = report.as_dict()
        assert list(doc) == ["lambda_max", "n", "ci", "ir", "cr", "accepted", "warnings"]
