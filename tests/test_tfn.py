"""TFN arithmetic, the comparative scale table, and fuzzification."""

import numpy as np
import pytest

from fahp import (
    ComparisonMatrix,
    FuzzyComparisonMatrix,
    NonPositiveSupport,
    NonScaleEntry,
    ScaleTable,
    Tfn,
    UnknownIntensity,
    default_scale_table,
    fuzzify,
)


class TestTfn:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            Tfn(2.0, 1.0, 3.0)

    def test_reciprocal_examples(self):
        assert Tfn(1, 1, 1).reciprocal() == Tfn(1, 1, 1)
        assert Tfn(1.5, 2, 2.5).reciprocal() == Tfn(0.4, 0.5, 1 / 1.5)

    def test_reciprocal_involution(self):
        a = Tfn(2.0, 2.5, 3.0)
        back = a.reciprocal().reciprocal()
        assert back.l == pytest.approx(a.l, abs=1e-15)
        assert back.m == pytest.approx(a.m, abs=1e-15)
        assert back.u == pytest.approx(a.u, abs=1e-15)

    def test_reciprocal_needs_positive_support(self):
        with pytest.raises(NonPositiveSupport):
            Tfn(0.0, 1.0, 2.0).reciprocal()


class TestScaleTable:
    def test_printed_row_five(self):
        table = default_scale_table()
        assert table.real(5) == Tfn(1.5, 2.0, 2.5)
        assert table.inverse(5) == Tfn(0.4, 0.5, 1 / 1.5)

    def test_just_equal_self_inverse(self):
        table = default_scale_table()
        assert table.real(1) == Tfn(1, 1, 1)
        assert table.inverse(1) == Tfn(1, 1, 1)

    def test_repaired_inverse_rows(self):
        # rows 6 and 8 derive from the reciprocal rule, not any printed pair
        table = default_scale_table()
        assert table.inverse(6).as_tuple() == (1 / 3, 0.4, 0.5)
        assert table.inverse(8).as_tuple() == (0.25, 2 / 7, 1 / 3)

    def test_extreme_row(self):
        assert default_scale_table().real(9) == Tfn(3.5, 4.0, 4.5)

    def test_reciprocal_coherence_all_rows(self):
        table = default_scale_table()
        for k, real, inverse in table:
            expected = real.reciprocal()
            assert abs(inverse.l - expected.l) <= 1e-15, k
            assert abs(inverse.m - expected.m) <= 1e-15, k
            assert abs(inverse.u - expected.u) <= 1e-15, k

    def test_unknown_intensity(self):
        table = default_scale_table()
        with pytest.raises(UnknownIntensity):
            table.real(0)
        with pytest.raises(UnknownIntensity):
            table.inverse(10)

    def test_incoherent_table_rejected(self):
        with pytest.raises(ValueError):
            ScaleTable(rows=((Tfn(1, 2, 3), Tfn(1, 2, 3)),))


class TestFuzzify:
    def test_all_ones(self):
        c = ComparisonMatrix(entries=np.ones((3, 3)))
        f = fuzzify(c)
        assert np.array_equal(f.values, np.ones((3, 3, 3)))

    def test_direct_and_mirror_entries(self):
        c = ComparisonMatrix(entries=np.array([[1.0, 5.0], [0.2, 1.0]]))
        f = fuzzify(c)
        assert f.values[0, 1].tolist() == [1.5, 2.0, 2.5]
        assert f.values[1, 0].tolist() == [0.4, 0.5, 1 / 1.5]

    def test_extreme_entry(self):
        c = ComparisonMatrix(entries=np.array([[1.0, 9.0], [1 / 9, 1.0]]))
        f = fuzzify(c)
        assert f.values[0, 1].tolist() == [3.5, 4.0, 4.5]

    def test_float_reciprocals_accepted(self):
        table = default_scale_table()
        for k in range(2, 10):
            c = ComparisonMatrix(entries=np.array([[1.0, float(k)], [1.0 / k, 1.0]]))
            f = fuzzify(c)
            assert tuple(f.values[1, 0].tolist()) == table.inverse(k).as_tuple()

    def test_near_scale_tolerance(self):
        c = ComparisonMatrix(entries=np.array([[1.0, 5.0 + 5e-10], [1 / (5.0 + 5e-10), 1.0]]))
        assert fuzzify(c).values[0, 1].tolist() == [1.5, 2.0, 2.5]

    def test_off_scale_entry_rejected(self):
        c = ComparisonMatrix(entries=np.array([[1.0, 2.5], [0.4, 1.0]]))
        with pytest.raises(NonScaleEntry) as err:
            fuzzify(c)
        assert (err.value.i, err.value.j) == (0, 1)

    def test_first_off_scale_entry_in_row_major_order_is_named(self):
        entries = np.ones((5, 5))
        # two off-scale pairs; column-major order would meet (3, 1) first
        entries[1, 3], entries[3, 1] = 1 / 6.5, 6.5
        entries[2, 4], entries[4, 2] = 2.5, 0.4
        entries[0, 4], entries[4, 0] = 7.0, 1 / 7.0
        with pytest.raises(NonScaleEntry) as err:
            fuzzify(ComparisonMatrix(entries=entries))
        assert (err.value.i, err.value.j, err.value.value) == (1, 3, 1 / 6.5)

    def test_off_scale_reciprocal_rejected(self):
        c = ComparisonMatrix(entries=np.array([[1.0, 1 / 2.5], [2.5, 1.0]]))
        with pytest.raises(NonScaleEntry):
            fuzzify(c)

    def test_reciprocity_invariant_for_random_inputs(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            entries = np.ones((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    k = int(rng.integers(1, 10))
                    value = float(k) if rng.integers(2) else 1.0 / k
                    entries[i, j] = value
                    entries[j, i] = 1.0 / value
            f = fuzzify(ComparisonMatrix(entries=entries))
            arr = f.values
            for i in range(n):
                for j in range(n):
                    mirror = arr[j, i]
                    assert abs(mirror[0] - 1.0 / arr[i, j][2]) <= 1e-12
                    assert abs(mirror[1] - 1.0 / arr[i, j][1]) <= 1e-12
                    assert abs(mirror[2] - 1.0 / arr[i, j][0]) <= 1e-12


class TestFuzzyComparisonMatrix:
    def test_rejects_bad_diagonal(self):
        values = np.ones((2, 2, 3))
        values[0, 0] = (1.0, 2.0, 3.0)
        with pytest.raises(ValueError):
            FuzzyComparisonMatrix(values=values)

    def test_rejects_broken_reciprocity(self):
        values = np.ones((2, 2, 3))
        values[0, 1] = (1.5, 2.0, 2.5)
        values[1, 0] = (0.9, 1.0, 1.1)
        with pytest.raises(ValueError):
            FuzzyComparisonMatrix(values=values)

    def test_rejects_disordered_components(self):
        values = np.ones((2, 2, 3))
        values[0, 1] = (2.5, 2.0, 1.5)
        values[1, 0] = (1 / 1.5, 0.5, 0.4)
        with pytest.raises(ValueError):
            FuzzyComparisonMatrix(values=values)

    def test_entry_accessor_and_nested_dump(self):
        c = ComparisonMatrix(entries=np.array([[1.0, 2.0], [0.5, 1.0]]))
        f = fuzzify(c)
        # the fuzzy dump writes values.tolist()
        nested = f.values.tolist()
        assert nested[0][1] == [0.5, 0.75, 1.0]
        assert f.n == 2
