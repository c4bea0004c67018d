"""TFN arithmetic, the comparative scale, and fuzzification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import emitted_codes, random_codes
from fahp import (
    ComparisonMatrix,
    FuzzyComparisonMatrix,
    NonPositiveSupport,
    NonScaleEntry,
    Tfn,
    UnknownIntensity,
    default_scale_table,
    fuzzify,
)
from fahp.tfn import MIRROR, ROW_TABLE


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
        for k in range(1, 10):
            expected = table.real(k).reciprocal()
            inverse = table.inverse(k)
            assert abs(inverse.l - expected.l) <= 1e-15, k
            assert abs(inverse.m - expected.m) <= 1e-15, k
            assert abs(inverse.u - expected.u) <= 1e-15, k

    def test_every_bound_is_the_float_of_the_exact_fraction(self):
        # the scale divides small integers; the oracle's scale is Fraction,
        # and both must give the same 54 floats: ROW_TABLE holds the direct
        # rows, then their exact reciprocals, in the order codes index them
        table = default_scale_table()
        expected = [oracle.scale_real(k) for k in oracle.SCALE]
        expected += [oracle.scale_inverse(k) for k in oracle.SCALE]
        assert ROW_TABLE.dtype == np.float64
        assert ROW_TABLE.tobytes() == np.array(expected).tobytes()
        for k in oracle.SCALE:
            assert table.real(k).as_tuple() == oracle.scale_real(k), k
            assert table.inverse(k).as_tuple() == oracle.scale_inverse(k), k

    def test_rows_are_positive_ordered_and_climb(self):
        # what the kernels rely on, read off the Fraction scale that
        # ROW_TABLE is bit-equal to: finite positive bounds, l <= m <= u,
        # and direct modal values that climb from intensity 2 (the first
        # "intermediate" row legitimately dips under the just-equal 1)
        direct = [oracle.SCALE[k] for k in oracle.SCALE]
        for l, m, u in direct + [(1 / u, 1 / m, 1 / l) for l, m, u in direct]:
            assert 0 < l <= m <= u
        modal = [m for _, m, _ in direct[1:]]
        assert modal == sorted(modal)
        assert np.isfinite(ROW_TABLE).all()

    def test_unknown_intensity(self):
        # a bare tuple index would take 0 and -1 silently
        table = default_scale_table()
        for intensity in (0, -1, 10):
            with pytest.raises(UnknownIntensity):
                table.real(intensity)
            with pytest.raises(UnknownIntensity):
                table.inverse(intensity)

    def test_just_equal_row_must_be_crisp(self):
        # the diagonal of every fuzzy matrix is code 0, the intensity-1
        # direct row
        assert oracle.SCALE[1] == (1, 1, 1)
        assert ROW_TABLE[0].tolist() == [1.0, 1.0, 1.0]

    def test_row_table_and_mirror(self):
        assert ROW_TABLE.shape == (18, 3)
        assert MIRROR.dtype == np.uint8
        assert MIRROR.tolist() == [0, *range(10, 18), 0, *range(1, 9)]
        # an involution on every code fuzzify emits, fixing code 0 alone
        emitted = emitted_codes()
        assert [int(MIRROR[MIRROR[c]]) for c in emitted] == emitted
        assert [c for c in emitted if MIRROR[c] == c] == [0]
        for constant in (ROW_TABLE, MIRROR):
            assert not constant.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                constant[1] = constant[2]


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
            FuzzyComparisonMatrix(codes=codes)

    def test_rejects_broken_reciprocity(self):
        # intensity 5 above the diagonal, just-equal below it
        codes = np.array([[0, 4], [0, 0]], dtype=np.uint8)
        with pytest.raises(ValueError, match=r"at \(0, 1\)"):
            FuzzyComparisonMatrix(codes=codes)
        codes[1, 0] = 13  # the inverse of intensity 5
        assert FuzzyComparisonMatrix(codes=codes).n == 2

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
    codes = random_codes(np.random.default_rng(seed), n)
    accepted = FuzzyComparisonMatrix(codes=codes)
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
        FuzzyComparisonMatrix(codes=codes)


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
