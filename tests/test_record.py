"""The frozen Record base the value types share, and the guard that keeps
dataclasses out of the package."""

import ast
import dataclasses

import numpy as np
import pytest

import fahp
from fahp import (
    ConsistencyReport,
    DatasetSchema,
    RankRow,
    RunConfig,
)
from fahp import cli
from fahp.record import Record, replace

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


class TestReplace:
    def test_changes_one_field(self):
        config = RunConfig(input="x.csv")
        changed = replace(config, mse_tol=1e-6)
        assert changed.mse_tol == 1e-6
        assert changed.input == "x.csv"
        assert config.mse_tol == 1e-3

    def test_reruns_validation(self):
        config = RunConfig(input="x.csv")
        with pytest.raises(ValueError, match="mse_tol"):
            replace(config, mse_tol=-1.0)

    def test_unknown_field(self):
        with pytest.raises(TypeError, match="unexpected keyword argument 'nope'"):
            replace(Point(1), nope=2)


class TestRunConfigFields:
    NAMES = (
        "input", "schema", "ir_mode", "derivation", "aggregate", "report_scale",
        "out_json", "out_csv", "out_svg", "mse_tol", "force",
    )

    def test_field_order(self):
        assert RunConfig._fields == self.NAMES

    def test_echo_follows_field_order(self):
        echo = RunConfig(input="x.csv").echo()
        assert tuple(echo) == tuple(n for n in self.NAMES if not n.startswith("out_"))

    def test_cli_defaults_come_from_the_fields(self):
        args = cli.build_parser().parse_args(["rank", "--input", "x.csv"])
        assert cli._config_from_args(args) == RunConfig(input="x.csv")
        for name in self.NAMES[1:]:
            assert getattr(args, name) == getattr(RunConfig, name), name


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


def test_no_exported_class_is_a_dataclass():
    classes = [
        getattr(fahp, name) for name in fahp.__all__
        if isinstance(getattr(fahp, name), type)
    ]
    records = [cls for cls in classes if issubclass(cls, Record)]
    assert len(records) == 14
    assert not [cls for cls in classes if dataclasses.is_dataclass(cls)]
