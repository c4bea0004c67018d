"""The frozen Record base the value types share, and the guards that keep
dataclasses, assert statements and __debug__ out of the package."""

import ast
import dataclasses

import numpy as np
import pytest

import fahp
from fahp import (
    ComparisonMatrix,
    ConsistencyReport,
    DatasetSchema,
    FuzzyComparisonMatrix,
    NormalizedMatrix,
    RankRow,
    RatingMatrix,
    RunConfig,
    WeightVector,
    build_comparison,
    run,
)
from fahp import cli
from fahp.record import Record

from conftest import REPO_ROOT


class Point(Record):
    x: int
    y: int = 2
    label: str = "p"


def _report(cr=0.02):
    return ConsistencyReport(
        lambda_max=10.2, n=10, ci=0.02, ir=1.49, cr=cr, accepted=True
    )


class TestBinding:
    def test_fields_are_the_annotations_in_order(self):
        assert Point._fields == ("x", "y", "label")
        assert RankRow._fields == ("rank", "label", "score_real", "score_normalized")

    def test_by_position(self):
        p = Point(1, 5, "q")
        assert (p.x, p.y, p.label) == (1, 5, "q")

    def test_by_keyword(self):
        p = Point(label="q", x=1, y=5)
        assert (p.x, p.y, p.label) == (1, 5, "q")

    def test_position_then_keyword(self):
        assert Point(1, label="q") == Point(x=1, y=2, label="q")

    def test_defaults(self):
        p = Point(1)
        assert (p.y, p.label) == (2, "p")
        assert ConsistencyReport(
            lambda_max=3.0, n=3, ci=0.0, ir=0.58, cr=0.0, accepted=True
        ).warnings == ()

    def test_missing_field(self):
        with pytest.raises(TypeError, match="missing arguments: x"):
            Point(y=1)
        with pytest.raises(TypeError, match="missing arguments: rank, label"):
            RankRow(score_real=1.0, score_normalized=None)

    def test_unknown_field(self):
        with pytest.raises(TypeError, match="unexpected keyword argument 'z'"):
            Point(1, z=3)

    def test_repeated_field(self):
        with pytest.raises(TypeError, match="multiple values for argument 'x'"):
            Point(1, x=2)

    def test_too_many_positional(self):
        with pytest.raises(TypeError, match="takes 3 positional arguments but 4"):
            Point(1, 2, "q", 4)

    def test_post_init_runs(self):
        with pytest.raises(ValueError, match="ir_mode"):
            RunConfig(input="x.csv", ir_mode="nope")


class TestFrozen:
    def test_assignment_raises(self):
        p = Point(1)
        with pytest.raises(AttributeError, match="frozen"):
            p.x = 3
        with pytest.raises(AttributeError, match="frozen"):
            p.other = 3
        assert p.x == 1

    def test_deletion_raises(self):
        config = RunConfig(input="x.csv")
        with pytest.raises(AttributeError, match="frozen"):
            del config.mse_tol
        assert config.mse_tol == 1e-3


class TestValue:
    def test_equal_records_hash_equal(self):
        pairs = [
            (_report(), _report()),
            (RankRow(1, "Parks", 0.5, None), RankRow(1, "Parks", 0.5, None)),
            (
                DatasetSchema("id", (("a", "A"), ("b", "B"))),
                DatasetSchema(id_column="id", criteria_columns=(("a", "A"), ("b", "B"))),
            ),
        ]
        for a, b in pairs:
            assert a == b
            assert hash(a) == hash(b)
            assert len({a, b}) == 1

    def test_one_field_apart_is_unequal(self):
        assert _report(cr=0.02) != _report(cr=0.03)
        assert RankRow(1, "Parks", 0.5, None) != RankRow(2, "Parks", 0.5, None)

    def test_other_class_or_tuple_is_unequal(self):
        class Other(Record):
            x: int
            y: int = 2
            label: str = "p"

        assert Point(1) != Other(1)
        assert Point(1) != (1, 2, "p")
        assert RankRow(1, "Parks", 0.5, None) != (1, "Parks", 0.5, None)

    def test_records_do_not_iterate(self):
        with pytest.raises(TypeError):
            tuple(Point(1))

    def test_array_fields_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(fahp.ComparisonMatrix(np.ones((2, 2))))

    def test_repr_lists_fields_in_order(self):
        assert repr(Point(1, label="q")) == "Point(x=1, y=2, label='q')"
        assert repr(RankRow(1, "Parks", 0.5, None)) == (
            "RankRow(rank=1, label='Parks', score_real=0.5, score_normalized=None)"
        )



def _weight_vector(raw):
    w = np.asarray(raw, dtype=float)
    return WeightVector(tuple("ABCD"[: w.size]), w / w.sum(), w / w.max())


# record with array fields -> (its build, an argument, the same argument
# spelled anew, one cell apart, another shape)
ARRAY_RECORDS = {
    "comparison": (
        lambda e: ComparisonMatrix(np.array(e)),
        [[1.0, 2.0], [0.5, 1.0]],
        [[1.0, 2.0], [0.5, 1.0]],
        [[1.0, 3.0], [1 / 3, 1.0]],
        [[1.0] * 3] * 3,
    ),
    "fuzzy": (
        build_comparison, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 1.5, 3.0],
        [1.0, 2.0, 3.0, 4.0],
    ),
    "normalized": (
        lambda v: NormalizedMatrix(np.array(v)),
        [[0.5, 1.0], [1.0, 0.25]],
        [[0.5, 1.0], [1.0, 0.25]],
        [[0.5, 1.0], [1.0, 0.5]],
        [[0.5, 1.0, 1.0], [1.0, 0.25, 0.0]],
    ),
    "rating": (
        lambda v: RatingMatrix(np.array(v), None, ("A", "B")),
        [[1.0, 2.0], [3.0, 4.0]],
        [[1.0, 2.0], [3.0, 4.0]],
        [[1.0, 2.0], [3.0, 3.5]],
        [[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]],
    ),
    "weights": (
        _weight_vector, [1.0, 2.0, 1.0], [1.0, 2.0, 1.0], [1.0, 2.0, 2.0],
        [1.0, 2.0, 1.0, 1.0],
    ),
}


class TestArrayFieldEquality:
    @pytest.mark.parametrize("name", ARRAY_RECORDS)
    def test_equal_builds_are_equal(self, name):
        build, arg, same, _, _ = ARRAY_RECORDS[name]
        assert build(arg) == build(same)
        assert not build(arg) != build(same)

    @pytest.mark.parametrize("name", ARRAY_RECORDS)
    def test_one_cell_or_shape_apart_is_unequal(self, name):
        build, arg, _, cell, shape = ARRAY_RECORDS[name]
        assert build(arg) != build(cell)
        assert build(arg) != build(shape)
        assert not build(arg) == build(shape)

    def test_dtype_or_type_apart_is_unequal(self):
        class Holder(Record):
            values: object

        assert Holder(np.array([1, 2])) == Holder(np.array([1, 2]))
        assert Holder(np.array([1, 2])) != Holder(np.array([1.0, 2.0]))
        assert Holder(np.array([1.0, 2.0])) != Holder([1.0, 2.0])
        assert Holder([1.0, 2.0]) != Holder(np.array([1.0, 2.0]))

    def test_equal_runs_are_equal(self, dataset_path):
        config = RunConfig(input=str(dataset_path))
        assert run(config) == run(config)
        assert run(config) != run(RunConfig(input=str(dataset_path), derivation="uniform"))

class TestRunConfigFields:
    NAMES = (
        "input", "schema", "ir_mode", "derivation", "report_scale", "mse_tol",
        "force",
    )

    def test_field_order(self):
        assert RunConfig._fields == self.NAMES

    def test_echo_follows_field_order(self):
        echo = RunConfig(input="x.csv").echo()
        assert tuple(echo) == self.NAMES

    def test_cli_defaults_come_from_the_fields(self):
        args = cli.build_parser().parse_args(["rank", "--input", "x.csv"])
        assert cli._config_from_args(args) == RunConfig(input="x.csv")
        for name in self.NAMES[1:]:
            assert getattr(args, name) == getattr(RunConfig, name), name


NAN = float("nan")

# each input passes every check of its record but one, which must refuse
# it with this message
REFUSED = [
    (
        "comparison-nan-off-diagonal",
        lambda: ComparisonMatrix(entries=np.array([[1.0, NAN], [NAN, 1.0]])),
        "comparison entries must be finite",
    ),
    (
        "means-2d",
        lambda: build_comparison(np.ones((2, 2)), rule="uniform"),
        r"means must be a vector, got shape \(2, 2\)",
    ),
    (
        "means-nan",
        lambda: build_comparison([1.0, NAN], rule="uniform"),
        "means must be finite",
    ),
    (
        "rating-1d",
        lambda: RatingMatrix(values=[1.0, 2.0], row_ids=None, criteria=("a", "b")),
        r"expected a 2-d matrix, got shape \(2,\)",
    ),
    (
        "normalized-1d",
        lambda: NormalizedMatrix(values=[0.5, 1.0]),
        r"expected a 2-d matrix, got shape \(2,\)",
    ),
    (
        "weights-degree-count",
        lambda: WeightVector(
            labels=("a", "b"), weights=[0.5, 0.5], min_degrees=[1.0, 1.0, 1.0]
        ),
        "weights and min_degrees must be equal-length vectors",
    ),
    (
        "codes-1d",
        lambda: FuzzyComparisonMatrix(codes=np.zeros(1, dtype=np.uint8)),
        r"expected a non-empty \(n, n\) code matrix, got \(1,\)",
    ),
    (
        # 1.5 and 9.0 would truncate to the valid pair of codes 1 and 9
        "codes-float",
        lambda: FuzzyComparisonMatrix(codes=np.array([[0.0, 1.5], [9.0, 0.0]])),
        "codes must be integers, got float64",
    ),
]


@pytest.mark.parametrize(
    "build, message", [case[1:] for case in REFUSED], ids=[case[0] for case in REFUSED]
)
def test_each_record_check_refuses_its_input(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


# a record is a Record, never a generated dataclass: the dataclass
# decorator execs several functions per class on every import
def _dataclass_imports(source):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        yield from (n for n in names if n.split(".")[0] == "dataclasses")


def test_no_module_imports_dataclasses():
    modules = sorted((REPO_ROOT / "src" / "fahp").glob("*.py"))
    assert len(modules) > 10
    found = {
        path.name: list(_dataclass_imports(path.read_text(encoding="utf-8")))
        for path in modules
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_dataclass_imports_are_detected():
    assert list(_dataclass_imports("from dataclasses import dataclass")) == ["dataclasses"]
    assert list(_dataclass_imports("import os, dataclasses as dc")) == ["dataclasses"]
    assert list(_dataclass_imports("from .record import Record")) == []


# python -O drops every assert statement and reads __debug__ as False, so
# a check or a result resting on either differs between the two
# interpreters, on any input
def _stripped_by_optimize(source):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            yield ("assert", node.lineno)
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            yield ("__debug__", node.lineno)


def test_no_module_asserts_or_reads_debug():
    modules = sorted((REPO_ROOT / "src" / "fahp").glob("*.py"))
    assert len(modules) > 10
    found = {
        path.name: list(_stripped_by_optimize(path.read_text(encoding="utf-8")))
        for path in modules
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_stripped_statements_are_detected():
    assert list(_stripped_by_optimize("assert x, 'why'")) == [("assert", 1)]
    assert list(_stripped_by_optimize("y = 1\nif __debug__:\n    y = 2")) == [("__debug__", 2)]
    assert list(_stripped_by_optimize("y = 0.0 if not __debug__ else 1.0")) == [
        ("__debug__", 1)
    ]
    assert list(_stripped_by_optimize("if x:\n    raise ValueError(x)")) == []


def test_no_exported_class_is_a_dataclass():
    classes = [
        getattr(fahp, name) for name in fahp.__all__
        if isinstance(getattr(fahp, name), type)
    ]
    records = [cls for cls in classes if issubclass(cls, Record)]
    assert len(records) == 13
    assert not [cls for cls in classes if dataclasses.is_dataclass(cls)]
