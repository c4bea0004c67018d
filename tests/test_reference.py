"""The built-in oracle: one sequence per criterion column in, fsum folds out
(none for a zero-weight column); its weight chain against the plain
per-entry loop; its exact row sums against fsum; its imports."""

import ast
import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import REPO_ROOT
from fahp import (
    NonScaleEntry,
    build_comparison,
    column_means,
    fuzzify,
    load_csv,
    reference_scores,
    reference_weights,
)
from fahp.reference import _DEN, _NUMERATORS

# mild preferences, so every criterion keeps a non-zero weight
ENTRIES = [[1.0, 2.0, 3.0], [0.5, 1.0, 2.0], [1.0 / 3.0, 0.5, 1.0]]


def test_scores_fold_each_column():
    values = np.random.default_rng(5).uniform(0.0, 4.0, size=(7, 3))
    columns = values.T.tolist()
    w = reference_weights(ENTRIES)
    assert all(w)
    expected = []
    for c, column in enumerate(columns):
        expected.append(w[c] * (math.fsum(column) / 7))
    scores = reference_scores(columns, ENTRIES)
    assert np.array(scores).tobytes() == np.array(expected).tobytes()
    # the pipeline hands over read-only column views of the rating matrix
    views = [memoryview(column) for column in values.T]
    assert reference_scores(views, ENTRIES) == scores


def full_fold_scores(cells, entries):
    """The scores as the oracle computed them before it skipped zero-weight
    columns: every column's mean, then each mean times its weight."""
    w = reference_weights(entries)
    folded = [math.fsum(column) / len(column) for column in cells]
    return [w[c] * folded[c] for c in range(len(cells))]


class Unreadable:
    """A column that fails the test when it is read."""

    def __iter__(self):
        raise AssertionError("a zero-weight column was read")

    def __len__(self):
        raise AssertionError("a zero-weight column was read")


def test_zero_weight_columns_are_never_read(dataset_path):
    matrix = load_csv(dataset_path, row_ids=False)
    entries = build_comparison(column_means(matrix)).entries.tolist()
    w = reference_weights(entries)
    # the shipped dataset's dominated criteria
    assert w.count(0.0) == 6
    columns = [memoryview(column) for column in matrix.values.T]
    guarded = [Unreadable() if wc == 0.0 else col for wc, col in zip(w, columns)]
    scores = reference_scores(guarded, entries)
    expected = full_fold_scores(columns, entries)
    assert np.array(scores).tobytes() == np.array(expected).tobytes()


@given(
    n=st.integers(2, 12),
    rows=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    grid=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_scores_equal_the_full_fold(n, rows, seed, grid):
    rng = np.random.default_rng(seed)
    if grid:
        # quarter steps from 0 to 4 tie means and hold both bounds
        values = rng.integers(0, 17, size=(rows, n)) / 4
    else:
        values = rng.uniform(0.0, 4.0, size=(rows, n))
    entries = oracle.mean_gap(values.mean(axis=0).tolist())
    columns = values.T.tolist()
    scores = reference_scores(columns, entries)
    expected = full_fold_scores(columns, entries)
    assert np.array(scores).tobytes() == np.array(expected).tobytes()


def loop_lookup(value, i, j):
    """The entry's scale row, read off the Fraction scale of tests/oracle.py."""
    if value >= 1.0:
        if value == math.inf:
            raise NonScaleEntry(i, j, value)
        k = int(round(value))
        if k in oracle.SCALE and abs(value - k) <= 1e-9:
            return oracle.scale_real(k)
        raise NonScaleEntry(i, j, value)
    if value > 0.0:
        k = int(round(1.0 / value))
        if k in oracle.SCALE and abs(value - 1.0 / k) <= 1e-9:
            return oracle.scale_inverse(k)
    raise NonScaleEntry(i, j, value)


def loop_reference_weights(comparison_entries):
    """The weight chain as a plain loop: one scale lookup per entry, the
    full fuzzy matrix kept, every pair visited in the degree loop."""
    n = len(comparison_entries)

    fuzzy = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append((1.0, 1.0, 1.0))
            else:
                row.append(loop_lookup(float(comparison_entries[i][j]), i, j))
        fuzzy.append(row)

    row_sums = []
    for i in range(n):
        l = math.fsum(fuzzy[i][j][0] for j in range(n))
        m = math.fsum(fuzzy[i][j][1] for j in range(n))
        u = math.fsum(fuzzy[i][j][2] for j in range(n))
        row_sums.append((l, m, u))
    total_l = math.fsum(r[0] for r in row_sums)
    total_m = math.fsum(r[1] for r in row_sums)
    total_u = math.fsum(r[2] for r in row_sums)
    extents = [(r[0] / total_u, r[1] / total_m, r[2] / total_l) for r in row_sums]

    degrees = []
    for i in range(n):
        best = 1.0
        for k in range(n):
            if k == i:
                continue
            s_i, s_k = extents[i], extents[k]
            if s_i[1] >= s_k[1]:
                v = 1.0
            elif s_k[0] >= s_i[2]:
                v = 0.0
            else:
                v = (s_k[0] - s_i[2]) / ((s_i[1] - s_i[2]) - (s_k[1] - s_k[0]))
            if v < best:
                best = v
        degrees.append(best)

    total = math.fsum(degrees)
    return [d / total for d in degrees]


# entries the scale never matches, and entries 1e-10 either side of a match
OFF_SCALE = [2.5, 0.4, 10.0, 0.1, 0.0, -0.0, -3.0, float("nan"), 9.0 + 2e-9, 1 / 3 - 2e-9]
NEAR = [3.0 + 1e-10, 3.0 - 1e-10, 0.5 + 1e-10, 0.5 - 1e-10, 1 / 9 + 1e-10, 9.0 - 1e-10]


@st.composite
def saaty_matrices(draw):
    n = draw(st.integers(2, 60))
    # the cells come from a seeded generator: hypothesis draws per cell
    # would cost more than both oracles together
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # mean-gap matrices; a small pool of means ties many criteria
        pool = rng.uniform(0.0, 4.0, size=draw(st.integers(1, n)))
        entries = oracle.mean_gap(rng.choice(pool, size=n).tolist())
    else:
        entries = [[1.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                k = int(rng.integers(1, 10))
                entries[i][j], entries[j][i] = float(k), 1.0 / k
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        entries[i][j] = draw(st.sampled_from(OFF_SCALE + NEAR))
    if draw(st.booleans()):
        entries = np.array(entries)
    return entries


@given(entries=saaty_matrices())
@settings(max_examples=300, deadline=None)
def test_weights_match_the_per_entry_loop(entries):
    try:
        expected = loop_reference_weights(entries)
    except NonScaleEntry as err:
        with pytest.raises(NonScaleEntry) as got:
            reference_weights(entries)
        assert (got.value.i, got.value.j) == (err.i, err.j)
        assert np.float64(got.value.value).tobytes() == np.float64(err.value).tobytes()
        return
    weights = reference_weights(entries)
    assert np.array(weights).tobytes() == np.array(expected).tobytes()


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_integer_row_sums_equal_fsum(data):
    # every scale row, direct then inverse, as floats of the Fraction scale
    keys = [(k, False) for k in oracle.SCALE] + [(k, True) for k in oracle.SCALE]
    assert sorted(_NUMERATORS) == sorted(keys)
    rows = [oracle.scale_real(k) for k in oracle.SCALE]
    rows += [oracle.scale_inverse(k) for k in oracle.SCALE]
    numerators = [_NUMERATORS[key] for key in keys]
    for row, exact in zip(rows, numerators):
        assert [Fraction(num, _DEN) for num in exact] == [Fraction(x) for x in row]
    # rows[0] is the diagonal's (1, 1, 1): every row sum holds it at least once
    counts = [data.draw(st.integers(1, 5000))]
    others = st.lists(st.integers(0, 5000), min_size=len(rows) - 1, max_size=len(rows) - 1)
    counts += data.draw(others)
    for c in range(3):
        exact = sum(count * nums[c] for nums, count in zip(numerators, counts)) / _DEN
        cells = itertools.chain.from_iterable([row[c]] * count for row, count in zip(rows, counts))
        assert np.float64(exact).tobytes() == np.float64(math.fsum(cells)).tobytes()


@pytest.mark.parametrize(
    "value", [float("inf"), -float("inf"), 1e-320, 5e-324], ids=["inf", "-inf", "1e-320", "5e-324"]
)
def test_infinite_entry_or_reciprocal_is_off_scale(value):
    entries = [[1.0, 2.0, 3.0], [0.5, 1.0, value], [1 / 3, 2.0, 1.0]]
    with pytest.raises(NonScaleEntry) as err:
        reference_weights(entries)
    assert (err.value.i, err.value.j, err.value.value) == (1, 2, value)
    # the library path names the same entry
    with pytest.raises(NonScaleEntry) as lib:
        fuzzify(SimpleNamespace(entries=np.array(entries)))
    assert (lib.value.i, lib.value.j, lib.value.value) == (1, 2, value)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "row, j",
    [
        ([1.0, 8.0, NAN], 2),
        ([1.0, 8.0, NAN, 8.0], 2),
        ([2.0, 2.0, 1.0, NAN, 2.0, 2.0, 2.0], 3),
        ([0.5, NAN, 0.5, 1.0, 0.5, NAN, 0.5], 1),
        ([2.0, 2.5, 1.0, 2.0, NAN, 2.0, 2.0], 1),
        ([2.0, INF, 2.0, 1.0, -INF, 2.0, 2.0], 1),
        ([2.0, -INF, 1.0, 2.0, INF, 2.0, 2.0], 1),
        ([0.5, 0.5, 0.5, 1.0, INF, 0.5, -INF], 4),
    ],
    ids=[
        "nan-last", "nan-between-equals", "nan-in-a-run", "two-nans",
        "earlier-off-scale", "inf-then-minus-inf", "minus-inf-then-inf", "infs-after-a-run",
    ],
)
@pytest.mark.parametrize("as_array", [False, True], ids=["lists", "array"])
def test_entry_that_sorts_inside_a_run_is_named(row, j, as_array):
    # a NaN breaks the sort's order, so it could hide inside a run of
    # equal entries; +inf and -inf sort to the ends; each is named where
    # a per-entry loop meets it first
    n = len(row)
    i = row.index(1.0)
    entries = [[1.0] * n for _ in range(n)]
    entries[i] = row
    if as_array:
        entries = np.array(entries)
    with pytest.raises(NonScaleEntry) as want:
        loop_reference_weights(entries)
    with pytest.raises(NonScaleEntry) as got:
        reference_weights(entries)
    assert (got.value.i, got.value.j) == (want.value.i, want.value.j) == (i, j)
    assert np.float64(got.value.value).tobytes() == np.float64(want.value.value).tobytes()


def test_first_off_scale_entry_is_named_after_earlier_matches():
    # 2.5 is met first at (0, 2); the earlier 2.0 was matched and remembered
    entries = [[1.0, 2.0, 2.5], [0.5, 1.0, 2.5], [0.4, 0.4, 1.0]]
    with pytest.raises(NonScaleEntry) as err:
        reference_weights(entries)
    assert (err.value.i, err.value.j, err.value.value) == (0, 2, 2.5)


@pytest.mark.parametrize("first", [-0.0, 0.0], ids=["minus-zero-first", "zero-first"])
def test_signed_zeros_name_the_first_with_its_sign(first):
    # -0.0 == 0.0, so the row's counts hold the two under one key
    entries = [
        [1.0, 2.0, first, -first],
        [0.5, 1.0, 2.0, 2.0],
        [2.0, 0.5, 1.0, 2.0],
        [2.0, 0.5, 0.5, 1.0],
    ]
    with pytest.raises(NonScaleEntry) as err:
        reference_weights(entries)
    assert (err.value.i, err.value.j) == (0, 2)
    assert np.float64(err.value.value).tobytes() == np.float64(first).tobytes()


def test_repeated_off_scale_entry_is_named_at_its_first_column():
    # 2.5 sits on row 1's diagonal first, then at (1, 2) and (1, 3)
    entries = [
        [1.0, 2.0, 0.5, 0.5],
        [0.5, 2.5, 2.5, 2.5],
        [2.0, 0.4, 1.0, 2.0],
        [2.0, 0.4, 0.5, 1.0],
    ]
    with pytest.raises(NonScaleEntry) as err:
        reference_weights(entries)
    assert (err.value.i, err.value.j, err.value.value) == (1, 2, 2.5)


def test_diagonal_is_never_looked_up():
    entries = [[float("nan"), 2.0], [0.5, 0.0]]
    expected = reference_weights([[1.0, 2.0], [0.5, 1.0]])
    assert reference_weights(entries) == expected
    # each cell read from a numpy row is a new float64 object, and NaN != NaN
    assert reference_weights(np.array(entries)) == expected


# the second oracle recomputes the weights without the library's kernels;
# it reads the scale's TFNs as data only, never the kernel's gathered table
FORBIDDEN_MODULES = ("numpy", "fahp.extent", "fahp.consistency", "fahp.pipeline")
TFN_DATA_NAMES = {"default_scale_table"}


def _imported(tree):
    """(module, name) for every import in the tree; name is None for a
    plain `import module`. Relative imports resolve inside `fahp`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = ".".join(filter(None, ["fahp", module]))
            for alias in node.names:
                yield module, alias.name


def _violations(source):
    found = []
    for module, name in _imported(ast.parse(source)):
        for full in (module, f"{module}.{name}" if name else module):
            if any(full == bad or full.startswith(bad + ".") for bad in FORBIDDEN_MODULES):
                found.append(full)
                break
        else:
            if module == "fahp.tfn" and name not in TFN_DATA_NAMES:
                found.append(f"{module}.{name}")
    return found


def test_reference_imports_no_kernel_code():
    source = (REPO_ROOT / "src" / "fahp" / "reference.py").read_text(encoding="utf-8")
    assert _violations(source) == []


@pytest.mark.parametrize(
    "line",
    [
        "import numpy as np",
        "from numpy import asarray",
        "import numpy.linalg",
        "from .extent import weights",
        "from . import consistency",
        "from fahp.pipeline import run",
        "import fahp.extent",
        "from .tfn import fuzzify",
        "from .tfn import ROW_TABLE",
        "from .tfn import MIRROR",
    ],
)
def test_import_guard_catches(line):
    assert _violations(line + "\n") != []
