"""Column-max normalization: examples, guards, and algebraic properties."""

import numpy as np
import pytest

from fahp import NormalizedMatrix, RatingMatrix, normalize, saw_normalize


def rating(values):
    arr = np.asarray(values, dtype=float)
    labels = tuple(f"C{i + 1}" for i in range(arr.shape[1]))
    ids = tuple(f"u{i}" for i in range(arr.shape[0]))
    return RatingMatrix(values=arr, row_ids=ids, criteria=labels)


def test_divide_by_column_max():
    out = saw_normalize([[1.0, 3.0], [2.0, 3.0], [4.0, 3.0]])
    assert out[:, 0].tolist() == [0.25, 0.5, 1.0]
    assert out[:, 1].tolist() == [1.0, 1.0, 1.0]


def test_zero_column_maps_to_zeros():
    out = saw_normalize([[0.0, 1.0], [0.0, 2.0]])
    assert out[:, 0].tolist() == [0.0, 0.0]


def test_normalize_keeps_shape():
    m = rating([[1.0, 2.0], [3.0, 4.0]])
    n = normalize(m)
    assert n.values.shape == m.values.shape


def test_idempotence_is_exact():
    rng = np.random.default_rng(21)
    for _ in range(50):
        m = rating(rng.uniform(0, 4, size=(17, 6)))
        once = normalize(m)
        twice = normalize(once)
        assert np.array_equal(once.values, twice.values)


def test_positive_scale_invariance():
    rng = np.random.default_rng(22)
    for _ in range(50):
        values = rng.uniform(0.01, 4, size=(13, 5))
        scales = rng.uniform(0.1, 1.0, size=5)
        base = saw_normalize(values)
        scaled = saw_normalize(values * scales)
        assert np.max(np.abs(scaled - base) / np.abs(base).clip(min=1e-300)) <= 1e-15


def test_positive_columns_peak_at_exactly_one():
    rng = np.random.default_rng(23)
    for _ in range(50):
        values = rng.uniform(0, 4, size=(11, 4))
        out = saw_normalize(values)
        used = values.max(axis=0)
        assert np.all(out.max(axis=0)[used > 0] == 1.0)


def test_normalized_matrix_rejects_cells_above_one():
    with pytest.raises(ValueError):
        NormalizedMatrix(values=np.array([[1.5]]))


def test_values_frozen():
    n = normalize(rating([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        n.values[0, 0] = 0.5


@pytest.mark.parametrize(
    "values",
    # accepted before: every comparison with a NaN is False
    [[[np.nan, 0.5], [1.0, 1.0]]],
    ids=["nan-cell"],
)
def test_normalized_matrix_rejects_nan_and_bad_maxima(values):
    with pytest.raises(ValueError):
        NormalizedMatrix(values=np.array(values))


def test_caller_writes_do_not_reach_the_matrix():
    values = np.array([[0.5, 1.0], [1.0, 0.25]])
    n = NormalizedMatrix(values=values[:, :])
    values[0, 0] = 0.0
    assert n.values.tolist() == [[0.5, 1.0], [1.0, 0.25]]


def test_normalized_arrays_are_new_and_read_only():
    m = rating([[1.0, 2.0], [3.0, 0.0]])
    for n in (normalize(m), normalize(normalize(m))):
        assert not n.values.flags.writeable
        assert not np.shares_memory(n.values, m.values)
    assert not m.values.flags.writeable


def masked_normalize(values):
    """The masked divide saw_normalize replaced, kept as its oracle."""
    arr = np.asarray(values, dtype=float)
    col_max = arr.max(axis=0)
    out = np.zeros_like(arr)
    np.divide(arr, col_max, out=out, where=col_max > 0)
    return out


def test_negative_zero_bits():
    # column 0 peaks at 0, column 1 at 2
    values = np.array([[-0.0, -0.0], [0.0, 2.0], [-0.0, 1.0]])
    out = saw_normalize(values)
    assert np.signbit(out[:, 0]).tolist() == [False, False, False]
    assert np.signbit(out[:, 1]).tolist() == [True, False, False]
    assert out.tolist() == [[0.0, -0.0], [0.0, 1.0], [0.0, 0.5]]
    want = masked_normalize(values)
    assert out.tobytes() == want.tobytes()


def test_single_divide_matches_the_masked_divide():
    rng = np.random.default_rng(24)
    for _ in range(50):
        values = rng.uniform(0, 4, size=(9, 6))
        # zero columns, and signed zeros in any column
        values[:, rng.random(6) < 0.3] = 0.0
        values[rng.random((9, 6)) < 0.2] *= 0.0
        values[rng.random((9, 6)) < 0.2] = -0.0
        out = saw_normalize(values)
        want = masked_normalize(values)
        assert out.tobytes() == want.tobytes()
