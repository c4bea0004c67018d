"""The built-in oracle: column means and a rule in, weights out; one
sequence per criterion column in, fsum folds out (none for a zero-weight
column); its weight chain against plain per-entry loops; its exact row
sums against fsum; its imports."""

import ast
import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import REPO_ROOT
from fahp import (
    DatasetSchema,
    build_comparison,
    column_means,
    load_csv,
    reference_scores,
    reference_weights,
    synthetic_extents,
    weights,
)
from fahp.consistency import DERIVATION_RULES
from fahp.reference import _DEN, _NUMERATORS, _RULES

if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from perfbench.inputs import write_inputs  # noqa: E402


def test_scores_fold_each_column():
    values = np.random.default_rng(5).uniform(0.0, 4.0, size=(7, 3))
    columns = values.T.tolist()
    means = values.mean(axis=0)
    w = reference_weights(means, "uniform")
    assert all(w)
    expected = [w[c] * (math.fsum(column) / 7) for c, column in enumerate(columns)]
    scores, folded = reference_scores(columns, means, "uniform")
    assert np.array(scores).tobytes() == np.array(expected).tobytes()
    assert folded == {c: math.fsum(column) / 7 for c, column in enumerate(columns)}
    # the pipeline hands over read-only column views of the rating matrix
    views = [memoryview(column) for column in values.T]
    assert reference_scores(views, means, "uniform") == (scores, folded)


def full_fold_scores(cells, means, rule):
    """The scores as the oracle computed them before it skipped zero-weight
    columns: every column's mean, then each mean times its weight."""
    w = reference_weights(means, rule)
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
    means = column_means(matrix)
    w = reference_weights(means, "mean_gap")
    # the shipped dataset's dominated criteria
    assert w.count(0.0) == 6
    columns = [memoryview(column) for column in matrix.values.T]
    guarded = [Unreadable() if wc == 0.0 else col for wc, col in zip(w, columns)]
    scores, folded = reference_scores(guarded, means, "mean_gap")
    expected = full_fold_scores(columns, means, "mean_gap")
    assert np.array(scores).tobytes() == np.array(expected).tobytes()
    assert sorted(folded) == [c for c, wc in enumerate(w) if wc != 0.0]


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
    means = values.mean(axis=0)
    columns = values.T.tolist()
    scores, _ = reference_scores(columns, means, "mean_gap")
    expected = full_fold_scores(columns, means, "mean_gap")
    assert np.array(scores).tobytes() == np.array(expected).tobytes()


def loop_weights(fuzzy, rivals=None):
    """The weight chain as a plain loop over an n x n nested list of
    (l, m, u) cells: fsum row sums, every pair visited in the degree loop,
    or only the pairs with a k in rivals when it is given."""
    n = len(fuzzy)
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
        for k in range(n) if rivals is None else rivals:
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


def exact_fuzzy(means, rule):
    """Each cell's scale row, read off the Fraction scale of tests/oracle.py,
    with the mean-gap intensity binned in exact rational arithmetic."""
    exact = [Fraction(float(mean)) for mean in means]
    span = max(exact) - min(exact)
    fuzzy = []
    for mean_i in exact:
        row = []
        for mean_j in exact:
            gap = mean_i - mean_j
            k = 1
            if rule == "mean_gap" and span:
                k = min(9, 1 + math.floor(8 * abs(gap) / span + Fraction(1, 2)))
            row.append(oracle.scale_real(k) if gap >= 0 else oracle.scale_inverse(k))
        fuzzy.append(row)
    return fuzzy


@st.composite
def mean_vectors(draw):
    n = draw(st.integers(2, 60))
    # the means come from a seeded generator: hypothesis draws per mean
    # would cost more than both loops together
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "pool", "grid"]))
    if kind == "uniform":
        return rng.uniform(0.0, 4.0, size=n).tolist()
    if kind == "pool":
        # a small pool of means ties many criteria
        pool = rng.uniform(0.0, 4.0, size=draw(st.integers(1, n)))
        return rng.choice(pool, size=n).tolist()
    # means of quarter-step ratings, whose gaps can land on a bin edge
    rows = draw(st.integers(1, 30))
    return (rng.integers(0, 17, size=(rows, n)) / 4).mean(axis=0).tolist()


@given(means=mean_vectors(), rule=st.sampled_from(sorted(DERIVATION_RULES)))
@settings(max_examples=300, deadline=None)
def test_weights_match_the_per_entry_loop(means, rule):
    expected = loop_weights(exact_fuzzy(means, rule))
    got = reference_weights(means, rule)
    assert np.array(got).tobytes() == np.array(expected).tobytes()


def test_weights_reach_past_the_first_stair_step():
    """Quarter-step ratings, 29 rows of 25 criteria: under the mean-gap
    rule the staircase of undominated extents holds two, and four degrees
    take their minimum from the second. V against the extent with the
    largest modal value alone weighs the criteria otherwise."""
    rng = np.random.default_rng(201)
    n = rng.integers(2, 80)
    means = (rng.integers(0, 17, size=(rng.integers(1, 30), n)) / 4).mean(axis=0)
    assert n == 25
    for rule in sorted(DERIVATION_RULES):
        expected = loop_weights(exact_fuzzy(means, rule))
        assert np.array(reference_weights(means, rule)).tobytes() == np.array(expected).tobytes()
    fuzzy = exact_fuzzy(means, "mean_gap")
    top = max(range(n), key=lambda i: math.fsum(cell[1] for cell in fuzzy[i]))
    assert loop_weights(fuzzy, rivals=[top]) != reference_weights(means, "mean_gap")


@pytest.mark.parametrize("workload", ["paper", "tall", "wide"])
def test_weights_equal_the_main_paths(workload, tmp_path):
    """On the benchmark inputs the oracle's bins are the main path's, so
    its weights are those of a plain loop over the main path's fuzzy
    matrix, to the bit. The main path's own weights add each row left to
    right, not exactly, so they may differ from those in the last bits,
    never in which weights are 0."""
    inputs = write_inputs(workload, REPO_ROOT, tmp_path, 7)
    schema = None
    if "--schema" in inputs.flags:
        schema = DatasetSchema.from_json(str(tmp_path / "schema.json"))
    means = column_means(load_csv(str(tmp_path / "ratings.csv"), schema))
    comparison = build_comparison(means)
    got = reference_weights(means, "mean_gap")
    expected = loop_weights(comparison.values.tolist())
    assert np.array(got).tobytes() == np.array(expected).tobytes()
    main_path = weights(synthetic_extents(comparison)).weights
    assert np.max(np.abs(main_path - got)) <= 1e-15
    assert [w == 0.0 for w in main_path.tolist()] == [w == 0.0 for w in got]


def test_every_rule_has_a_reference():
    assert sorted(_RULES) == sorted(DERIVATION_RULES)


def test_unknown_rule_is_refused():
    with pytest.raises(ValueError, match="no derivation rule 'median_gap'"):
        reference_weights([1.0, 2.0, 3.0], "median_gap")


def test_equal_means_weigh_alike():
    # no span: every pair rates 1 under either rule
    for rule in _RULES:
        assert reference_weights([2.5] * 4, rule) == [0.25] * 4


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
