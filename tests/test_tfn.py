"""TFN arithmetic, the comparative scale table, and fuzzification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import random_codes
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

    def test_every_bound_is_the_float_of_the_exact_fraction(self):
        # the default table divides small integers; the oracle's scale is
        # Fraction, and both must give the same 54 floats
        table = default_scale_table()
        assert len(table) == len(oracle.SCALE)
        for k, real, inverse in table:
            assert real.as_tuple() == oracle.scale_real(k), k
            assert inverse.as_tuple() == oracle.scale_inverse(k), k

    def test_unknown_intensity(self):
        table = default_scale_table()
        with pytest.raises(UnknownIntensity):
            table.real(0)
        with pytest.raises(UnknownIntensity):
            table.inverse(10)

    def test_incoherent_table_rejected(self):
        with pytest.raises(ValueError):
            ScaleTable(rows=((Tfn(1, 2, 3), Tfn(1, 2, 3)),))

    def test_rejects_disordered_components(self):
        # no row of a table, hence no entry of a fuzzy matrix, can have
        # l > m or m > u
        with pytest.raises(ValueError, match="not a valid TFN"):
            ScaleTable(
                rows=(
                    (Tfn(1, 1, 1), Tfn(1, 1, 1)),
                    (Tfn(2.5, 2.0, 1.5), Tfn(1 / 1.5, 0.5, 0.4)),
                )
            )

    def test_rejects_an_infinite_bound(self):
        # 1 / 1e-320 overflows: the inverse row's u would be inf
        direct = Tfn(1e-320, 0.75, 1.0)
        with pytest.raises(ValueError, match="intensity 2: scale TFNs need finite bounds"):
            ScaleTable(rows=((Tfn(1, 1, 1), Tfn(1, 1, 1)), (direct, direct.reciprocal())))

    def test_just_equal_row_must_be_crisp(self):
        # the diagonal of every fuzzy matrix is the intensity-1 direct row
        with pytest.raises(ValueError, match="intensity 1"):
            ScaleTable(rows=((Tfn(0.5, 1.0, 2.0), Tfn(0.5, 1.0, 2.0)),))

    def test_row_table_and_mirror(self):
        table = default_scale_table()
        rows = table.row_table
        assert rows.shape == (18, 3) and not rows.flags.writeable
        for k, real, inverse in table:
            assert tuple(rows[k - 1]) == real.as_tuple()
            assert tuple(rows[9 + k - 1]) == inverse.as_tuple()
        assert table.mirror.tolist() == [0, *range(10, 18), 0, *range(1, 9)]


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
        codes = np.zeros((2, 2), dtype=np.uint8)
        codes[0, 0] = 4  # intensity 5, (1.5, 2, 2.5)
        with pytest.raises(ValueError, match=r"at \(0, 0\)"):
            FuzzyComparisonMatrix(codes=codes, table=default_scale_table())

    def test_rejects_broken_reciprocity(self):
        # intensity 5 above the diagonal, just-equal below it
        codes = np.array([[0, 4], [0, 0]], dtype=np.uint8)
        with pytest.raises(ValueError, match=r"at \(0, 1\)"):
            FuzzyComparisonMatrix(codes=codes, table=default_scale_table())
        codes[1, 0] = 13  # the inverse of intensity 5
        assert FuzzyComparisonMatrix(codes=codes, table=default_scale_table()).n == 2

    def test_entry_accessor_and_nested_dump(self):
        c = ComparisonMatrix(entries=np.array([[1.0, 2.0], [0.5, 1.0]]))
        f = fuzzify(c)
        # the fuzzy dump writes values.tolist()
        nested = f.values.tolist()
        assert nested[0][1] == [0.5, 0.75, 1.0]
        assert f.n == 2


def float_checks(values):
    """The float validation the code checks replace: finite, ordered,
    positive entries, a (1, 1, 1) diagonal, and TFN reciprocity within
    1e-12 across it."""
    n = values.shape[0]
    assert np.all(np.isfinite(values))
    assert np.all(values[:, :, 0] <= values[:, :, 1])
    assert np.all(values[:, :, 1] <= values[:, :, 2])
    assert np.all(values[:, :, 0] > 0)
    assert np.all(values[np.arange(n), np.arange(n)] == 1.0)
    mirrored = 1.0 / values.transpose(1, 0, 2)[:, :, ::-1]
    assert np.max(np.abs(values - mirrored)) <= 1e-12


@given(
    n=st.integers(2, 60),
    seed=st.integers(0, 2**32 - 1),
    where=st.tuples(st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True)),
    diagonal=st.booleans(),
    code=st.integers(0, 255),
)
@settings(max_examples=300, deadline=None)
def test_any_one_changed_code_is_refused(n, seed, where, diagonal, code):
    table = default_scale_table()
    codes = random_codes(np.random.default_rng(seed), n, table)
    accepted = FuzzyComparisonMatrix(codes=codes, table=table)
    # whatever the codes accept, the float checks accept too
    float_checks(accepted.values)
    i, j = int(where[0] * n), int(where[1] * (n - 1))
    if diagonal:
        j = i
    elif j >= i:
        j += 1
    if code == codes[i, j]:
        code = (code + 1) % 256
    codes[i, j] = code
    with pytest.raises(ValueError):
        FuzzyComparisonMatrix(codes=codes, table=table)


@st.composite
def crisp_matrices(draw):
    n = draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return oracle.mean_gap(rng.uniform(0.0, 4.0, size=n).tolist())
    entries = [[1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            k = int(rng.integers(1, 10))
            value = float(k) if rng.integers(2) else 1.0 / k
            entries[i][j], entries[j][i] = value, 1.0 / value
    return entries


@given(crisp=crisp_matrices())
@settings(max_examples=200, deadline=None)
def test_values_are_the_fraction_table(crisp):
    f = fuzzify(ComparisonMatrix(entries=np.array(crisp)))
    expected = [[list(tfn) for tfn in row] for row in oracle.fuzzify(crisp)]
    assert f.values.tolist() == expected
