"""Ingestion: schema handling, validation errors, and mean statistics."""

import csv
import json
import os
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fahp import (
    DatasetSchema,
    DuplicateColumn,
    EmptyDataset,
    MissingColumn,
    NonNumericCell,
    OutOfRange,
    RatingMatrix,
    TooFewCriteria,
    UnreadableRecord,
    column_means,
    load_csv,
)
from fahp import dataset

from conftest import ID_CELLS, NEEDS_DEV_FD, REPO_ROOT, piped

TWO_COL_SCHEMA = DatasetSchema(
    id_column="id", criteria_columns=(("a", "A"), ("b", "B"))
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestSchema:
    def test_default_matches_travel_reviews_layout(self):
        schema = DatasetSchema.default()
        assert schema.id_column == "User ID"
        assert schema.columns[0] == "Category 1"
        assert schema.columns[-1] == "Category 10"
        assert schema.labels[6] == "Parks/Picnic Spots"
        assert len(schema.labels) == 10

    def test_from_dict_takes_a_mapping_only(self):
        doc = {"id_column": "id", "criteria_columns": {"a": "A", "b": "B"}}
        assert DatasetSchema.from_dict(doc).columns == ["a", "b"]
        assert DatasetSchema.from_dict(doc).labels == ["A", "B"]
        doc = {"id_column": "id", "criteria_columns": [["a", "A"], ["b", "B"]]}
        with pytest.raises(ValueError, match="must be an object"):
            DatasetSchema.from_dict(doc)

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            DatasetSchema(id_column="id", criteria_columns=(("a", "A"), ("a", "B")))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            DatasetSchema(id_column="id", criteria_columns=(("a", "X"), ("b", "X")))

    def test_id_column_collision_rejected(self):
        with pytest.raises(ValueError):
            DatasetSchema(id_column="a", criteria_columns=(("a", "A"), ("b", "B")))

    def test_empty_criteria_rejected(self):
        with pytest.raises(ValueError):
            DatasetSchema(id_column="id", criteria_columns=())

    @pytest.mark.parametrize(
        "doc",
        [
            {"id_column": "\udc80", "criteria_columns": {"a": "A", "b": "B"}},
            {"id_column": "id", "criteria_columns": {"a\udcff": "A", "b": "B"}},
            {"id_column": "id", "criteria_columns": {"a": "A", "b": "B\ud800"}},
        ],
        ids=["id-column", "column", "label"],
    )
    def test_lone_surrogate_rejected(self, tmp_path, doc):
        # valid JSON: json.dumps spells each surrogate as a \u escape
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(doc), encoding="ascii")
        with pytest.raises(ValueError, match="is not UTF-8 text"):
            DatasetSchema.from_json(path)


class TestLoadCsv:
    def test_minimal_two_column_file(self, tmp_path):
        path = write(tmp_path, "id,a,b\nu1,2.0,4.0\n")
        m = load_csv(path, TWO_COL_SCHEMA)
        assert m.values.shape == (1, 2)
        assert m.values.tolist() == [[2.0, 4.0]]
        assert m.row_ids == ("u1",)
        assert m.criteria == ("A", "B")
        assert m.source_columns == ("a", "b")
        assert m.id_column == "id"

    def test_column_order_follows_schema_not_file(self, tmp_path):
        path = write(tmp_path, "b,id,a\n3.0,u1,1.0\n")
        m = load_csv(path, TWO_COL_SCHEMA)
        assert m.values.tolist() == [[1.0, 3.0]]

    def test_whitespace_trimmed_and_quotes_ok(self, tmp_path):
        path = write(tmp_path, 'id, a ,b\n" u1 ", 2.5 ,"1.0"\n')
        m = load_csv(path, TWO_COL_SCHEMA)
        assert m.values.tolist() == [[2.5, 1.0]]
        assert m.row_ids == ("u1",)

    def test_bom_tolerated(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfid,a,b\nu1,1.0,2.0\n")
        assert load_csv(path, TWO_COL_SCHEMA).values.shape == (1, 2)

    def test_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path, "id,a,b\n\nu1,1,2\n\n\nu2,3,4\n")
        m = load_csv(path, TWO_COL_SCHEMA)
        assert m.values.shape == (2, 2)

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "id,a\nu1,1.0\n")
        with pytest.raises(MissingColumn) as err:
            load_csv(path, TWO_COL_SCHEMA)
        assert err.value.name == "b"

    def test_missing_id_column(self, tmp_path):
        path = write(tmp_path, "a,b\n1.0,2.0\n")
        with pytest.raises(MissingColumn) as err:
            load_csv(path, TWO_COL_SCHEMA)
        assert err.value.name == "id"

    def test_non_numeric_cell(self, tmp_path):
        path = write(tmp_path, "id,a,b\nu1,1.0,oops\n")
        with pytest.raises(NonNumericCell) as err:
            load_csv(path, TWO_COL_SCHEMA)
        assert (err.value.row, err.value.column) == (1, "b")

    def test_empty_cell_is_non_numeric(self, tmp_path):
        path = write(tmp_path, "id,a,b\nu1,,2.0\n")
        with pytest.raises(NonNumericCell):
            load_csv(path, TWO_COL_SCHEMA)

    def test_nan_literal_rejected(self, tmp_path):
        path = write(tmp_path, "id,a,b\nu1,nan,2.0\n")
        with pytest.raises(NonNumericCell):
            load_csv(path, TWO_COL_SCHEMA)

    def test_out_of_range_cell(self, tmp_path):
        path = write(tmp_path, "id,a,b\nu1,1.0,2.0\nu2,5.0,1.0\n")
        with pytest.raises(OutOfRange) as err:
            load_csv(path, TWO_COL_SCHEMA)
        assert (err.value.row, err.value.column, err.value.value) == (2, "a", 5.0)

    def test_negative_cell_out_of_range(self, tmp_path):
        path = write(tmp_path, "id,a,b\nu1,-0.1,2.0\n")
        with pytest.raises(OutOfRange):
            load_csv(path, TWO_COL_SCHEMA)

    @pytest.mark.parametrize(
        "header, name", [("id,a,b,a", "a"), ("id,a,id,b", "id")]
    )
    def test_repeated_header_name_is_rejected(self, tmp_path, header, name):
        path = write(tmp_path, f"{header}\nu1,1.0,2.0,3.0\n")
        with pytest.raises(DuplicateColumn) as err:
            load_csv(path, TWO_COL_SCHEMA)
        assert err.value.name == name

    def test_repeated_unused_column_is_harmless(self, tmp_path):
        path = write(tmp_path, "x,id,a,x,b\n9,u1,1.0,9,2.0\n")
        m = load_csv(path, TWO_COL_SCHEMA)
        assert m.values.tolist() == [[1.0, 2.0]]
        assert m.row_ids == ("u1",)

    def test_header_only_file(self, tmp_path):
        path = write(tmp_path, "id,a,b\n")
        with pytest.raises(EmptyDataset):
            load_csv(path, TWO_COL_SCHEMA)

    def test_zero_byte_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(EmptyDataset):
            load_csv(path, TWO_COL_SCHEMA)

    def test_single_criterion_schema_rejected(self, tmp_path):
        path = write(tmp_path, "id,a\nu1,1.0\n")
        schema = DatasetSchema(id_column="id", criteria_columns=(("a", "A"),))
        with pytest.raises(TooFewCriteria):
            load_csv(path, schema)

    def test_deterministic_reload(self, tmp_path):
        path = write(tmp_path, "id,a,b\nu1,1.25,2.5\nu2,0.75,3.125\n")
        first = load_csv(path, TWO_COL_SCHEMA)
        second = load_csv(path, TWO_COL_SCHEMA)
        assert np.array_equal(first.values, second.values)
        assert first.row_ids == second.row_ids


THREE_COL_SCHEMA = DatasetSchema(
    id_column="id", criteria_columns=(("a", "A"), ("b", "B"), ("c", "C"))
)

CLEAN_TOKENS = ["0", "4", "4.0", "-0.0", "0.5", "1e-3", "3.25", "\x0b1"]
# float() reads these and numpy does not, so they send a file to the loop
LOOP_TOKENS = ["\u0663", "2_5e-1", "\u0661.\u0665"]
DIRTY_TOKENS = [
    "", "x", "nan", "NaN", "inf", "-inf", "Infinity", "1e999", "4.0000001",
    "-0.1", "5", "1_0", "1__0", "1,5", "0x1", "\udcff",
]
# (column, field) with a field longer than the csv module's limit: only the
# loop reports it, so the bulk parse must decline
FIELD_LIMIT = csv.field_size_limit()
OVERSIZED = [
    ("id", "9" * (FIELD_LIMIT + 1)),
    ("x", "9" * (FIELD_LIMIT + 1)),
    ("x", '"' + ("y" * 999 + "\n") * (FIELD_LIMIT // 1000 + 1) + '"'),
    ("a", "1." + "0" * FIELD_LIMIT),
]
CLEAN_PADS = ["", " ", "\t", "\u3000"]
# str.strip removes U+001F, float() does not
DIRTY_PADS = ["\x1f"]
SHAPES = ["full"] * 6 + ["blank", "spaces", "short", "long"]
QUOTE_FREE_ID_CELLS = [cell for cell in ID_CELLS if '"' not in cell]
QUOTED_ID_CELLS = [cell for cell in ID_CELLS if '"' in cell]


@st.composite
def cell_text(draw, dirty, quoted):
    tokens = CLEAN_TOKENS + LOOP_TOKENS + DIRTY_TOKENS if dirty else CLEAN_TOKENS
    pads = st.sampled_from(CLEAN_PADS + DIRTY_PADS if dirty else CLEAN_PADS)
    text = draw(pads) + draw(st.sampled_from(tokens)) + draw(pads)
    if quoted and draw(st.booleans()):
        text = '"' + text.replace('"', '""') + '"'
        if dirty and draw(st.booleans()):
            # padding outside the quotes keeps them in the cell text
            text = " " + text
    return text


@st.composite
def ratings_csv(draw):
    """Bytes of a ratings CSV for THREE_COL_SCHEMA. One file in two is
    clean apart from padding, quoting and odd ids; the rest mix in dirty
    cells, blank, short, over-long and oversized records, and stray
    undecodable bytes. Independently, one file in two quotes nothing."""
    dirty = draw(st.booleans())
    # one file in two holds no '"' byte, so numpy reads it by name
    quoted = draw(st.booleans())
    header = draw(st.permutations(["id", "a", "b", "c", "x"]))
    # a quoted line end in an unused header cell
    unused = draw(st.sampled_from(["x", '"x\ny"', '"x\ry"'] if quoted else ["x"]))
    id_cells = ID_CELLS if quoted else QUOTE_FREE_ID_CELLS
    records = [",".join(unused if name == "x" else name for name in header)]
    for i in range(draw(st.integers(0, 12))):
        shape = draw(st.sampled_from(SHAPES)) if dirty else "full"
        if shape == "full":
            cells = [
                draw(st.sampled_from(id_cells)).format(i=i)
                if name == "id"
                else draw(cell_text(dirty, quoted))
                for name in header
            ]
            records.append(",".join(cells))
        elif shape == "blank":
            records.append("")
        elif shape == "spaces":
            records.append(draw(st.sampled_from([" ", " , ,", "\t"])))
        elif shape == "short":
            cells = [draw(cell_text(dirty, quoted)) for _ in header]
            records.append(",".join(cells[: draw(st.integers(1, len(header) - 1))]))
        else:
            cells = [draw(cell_text(dirty, quoted)) for _ in range(len(header) + 2)]
            records.append(",".join(cells))
    if dirty and draw(st.integers(0, 3)) == 0:
        oversized = OVERSIZED if quoted else [o for o in OVERSIZED if '"' not in o[1]]
        column, field = draw(st.sampled_from(oversized))
        cells = [field if name == column else "1" for name in header]
        records.insert(draw(st.integers(1, len(records))), ",".join(cells))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(records) + draw(st.sampled_from(["", newline]))
    if draw(st.booleans()):
        text = "\ufeff" + text
    # a lone surrogate stands for a byte that is not UTF-8
    return text.encode("utf-8", "surrogateescape")


def _outcome(path, schema, row_ids=True):
    try:
        m = load_csv(path, schema, row_ids=row_ids)
    except Exception as exc:
        return type(exc), str(exc)
    return m.values.tobytes(), m.row_ids


class TestIngestPaths:
    """The bulk parse and the per-cell loop agree on every input; the
    loop alone runs when the bulk parse is replaced by one that declines,
    and when the input is a pipe."""

    @given(data=ratings_csv())
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_bulk_parse_matches_the_loop(self, tmp_path, data):
        path = tmp_path / "dirty.csv"
        path.write_bytes(data)
        both = _outcome(path, THREE_COL_SCHEMA)
        values_only = _outcome(path, THREE_COL_SCHEMA, row_ids=False)
        with mock.patch.object(dataset, "_parse_bulk", return_value=None):
            loop = _outcome(path, THREE_COL_SCHEMA)
        assert both == loop
        # without ids a record short of only its id parses in bulk; the
        # values and every error are still the loop's
        assert values_only == ((loop[0], None) if isinstance(loop[0], bytes) else loop)
        if os.path.isdir("/dev/fd"):
            # the loop reads a pipe once; the pipe's name stands where an
            # error names the file
            with piped(data) as name:
                kind, detail = _outcome(name, THREE_COL_SCHEMA)
            if isinstance(detail, str):
                detail = detail.replace(name, str(path))
            assert (kind, detail) == loop

    def test_shipped_dataset_takes_the_bulk_parse(self, dataset_path, monkeypatch):
        monkeypatch.setattr(dataset, "_parse_cells", _no_loop)
        with_ids = load_csv(dataset_path)
        assert with_ids.values.shape == (980, 10)
        m = load_csv(dataset_path, row_ids=False)
        assert m.values.tobytes() == with_ids.values.tobytes()
        assert m.row_ids is None

    def test_file_of_several_chunks_takes_the_bulk_parse(self, tmp_path, monkeypatch):
        rows = 773
        values = np.arange(rows * 2).reshape(rows, 2) % 17 / 4
        cells = enumerate(values.tolist())
        lines = ["id,a,b", *(f"u{i}, {a!r} ,{b!r}\t" for i, (a, b) in cells)]
        path = tmp_path / "many.csv"
        path.write_bytes(("\ufeff" + "\r\n".join(lines) + "\r\n").encode("utf-8"))
        monkeypatch.setattr(dataset, "_parse_cells", _no_loop)
        m = load_csv(path, TWO_COL_SCHEMA)
        assert m.values.tobytes() == values.tobytes()
        assert m.row_ids == tuple(f"u{i}" for i in range(rows))
        m = load_csv(path, TWO_COL_SCHEMA, row_ids=False)
        assert m.values.tobytes() == values.tobytes()
        assert m.row_ids is None

    @pytest.mark.parametrize(
        "line, error",
        [
            ("u,1.0,oops", NonNumericCell(601, "b", "oops")),
            ("u,1.0,nan", NonNumericCell(601, "b", "nan")),
            ("u,4.5,1.0", OutOfRange(601, "a", 4.5)),
            ("u,1.0", NonNumericCell(601, "b", "")),
        ],
        ids=["text", "nan", "out-of-range", "short"],
    )
    def test_late_bad_record_is_named_by_the_loop(self, tmp_path, line, error):
        lines = ["id,a,b", *(f"u{i},1.0,2.0" for i in range(1, 601)), line, "u,3.0,3.0"]
        path = write(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(type(error)) as err:
            load_csv(path, TWO_COL_SCHEMA)
        assert str(err.value) == str(error)

    def test_unreadable_record_does_not_hide_an_earlier_bad_cell(self, tmp_path):
        # the bulk parse reads the oversized field with the bad cell's chunk
        oversized = "9" * (csv.field_size_limit() + 1)
        lines = ["id,a,b", "u1,1.0,oops", f"u2,1.0,{oversized}"]
        path = write(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(NonNumericCell) as err:
            load_csv(path, TWO_COL_SCHEMA)
        assert (err.value.row, err.value.column) == (1, "b")

    @pytest.mark.parametrize(
        "lines, row",
        [
            (["id,a,b,{big}", "u1,1.0,2.0,x"], 0),
            (["id,a,b", "u1,1.0,2.0", "", "u3,1.0,{big}", "u4,1.0,2.0"], 3),
        ],
        ids=["header", "data"],
    )
    def test_unreadable_record_is_named(self, tmp_path, lines, row):
        oversized = "9" * (csv.field_size_limit() + 1)
        path = write(tmp_path, "\n".join(lines).format(big=oversized) + "\n")
        with pytest.raises(UnreadableRecord) as err:
            load_csv(path, TWO_COL_SCHEMA)
        assert err.value.row == row
        assert "field larger than field limit" in str(err.value)

    @pytest.mark.parametrize(
        "column, field", OVERSIZED, ids=["id", "unused", "unused-quoted-lines", "criterion"]
    )
    def test_oversized_field_is_named_by_the_loop(self, tmp_path, column, field):
        # numpy reads a field of any length; the csv module refuses it
        fields = {"id": "u2", "a": "1.0", "b": "2.0", "x": "z"}
        fields[column] = field
        lines = ["id,a,b,x", "u1,1.0,2.0,z", ",".join(fields.values())]
        path = write(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(UnreadableRecord) as err:
            load_csv(path, TWO_COL_SCHEMA)
        assert str(err.value) == (
            f"row 2: CSV record cannot be read: field larger than field limit "
            f"({FIELD_LIMIT})"
        )

    @pytest.mark.parametrize("text", ["id,a,b\n", "id,a,b\n\n\n"], ids=["bare", "blank-lines"])
    def test_header_only_file_warns_nothing(self, tmp_path, text):
        path = write(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyDataset) as err:
                load_csv(path, TWO_COL_SCHEMA)
        assert str(err.value) == f"{path}: no data rows"

    @pytest.mark.parametrize("cell", QUOTE_FREE_ID_CELLS, ids=repr)
    def test_odd_id_takes_the_bulk_parse(self, tmp_path, monkeypatch, cell):
        path = write(tmp_path, "id,a,b\n" + cell.format(i=1) + ",1.0,2.0\nu2,3.0,4.0\n")
        with mock.patch.object(dataset, "_parse_bulk", return_value=None):
            loop = _outcome(path, TWO_COL_SCHEMA)
        monkeypatch.setattr(dataset, "_parse_cells", _no_loop)
        assert _outcome(path, TWO_COL_SCHEMA) == loop
        assert loop[1][1] == "u2"

    @pytest.mark.parametrize(
        "token, expected",
        [
            ("\u0661.\u0665", 1.5),
            ("1_0", OutOfRange(1, "a", 10.0)),
            ("Infinity", NonNumericCell(1, "a", "Infinity")),
            ("\x0b1", 1.0),
        ],
        ids=["arabic-indic", "underscore", "infinity", "vertical-tab"],
    )
    def test_token_reads_as_float_does(self, tmp_path, token, expected):
        path = write(tmp_path, f"id,a,b\nu1,{token},2.0\n")
        with mock.patch.object(dataset, "_parse_bulk", return_value=None):
            loop = _outcome(path, TWO_COL_SCHEMA)
        assert _outcome(path, TWO_COL_SCHEMA) == loop
        if isinstance(expected, Exception):
            assert loop == (type(expected), str(expected))
        else:
            assert loop[0] == np.array([[expected, 2.0]]).tobytes()

    def test_file_larger_than_the_field_limit_takes_the_bulk_parse(
        self, tmp_path, monkeypatch
    ):
        rows = FIELD_LIMIT // 10
        lines = ["id,a,b", *(f"u{i},1.5,2.5" for i in range(rows))]
        path = write(tmp_path, "\n".join(lines) + "\n")
        assert path.stat().st_size > FIELD_LIMIT
        monkeypatch.setattr(dataset, "_parse_cells", _no_loop)
        assert load_csv(path, TWO_COL_SCHEMA).values.shape == (rows, 2)

    def test_file_with_cr_line_ends_takes_the_bulk_parse(self, tmp_path, monkeypatch):
        # larger than the field limit, so _plain_name looks for line ends
        rows = FIELD_LIMIT // 10
        lines = ["id,a,b", *(f"u{i},{i % 17 / 4!r},2.5" for i in range(rows))]
        twin = write(tmp_path, "\n".join(lines) + "\n", name="lf.csv")
        path = write(tmp_path, "\r".join(lines) + "\r", name="cr.csv")
        assert path.stat().st_size > FIELD_LIMIT
        monkeypatch.setattr(dataset, "_parse_cells", _no_loop)
        for row_ids in (True, False):
            m = load_csv(path, TWO_COL_SCHEMA, row_ids=row_ids)
            want = load_csv(twin, TWO_COL_SCHEMA, row_ids=row_ids)
            assert m.values.tobytes() == want.values.tobytes()
            assert m.row_ids == want.row_ids
        assert m.values.shape == (rows, 2)

    def test_single_criterion_bad_cell_is_named(self, tmp_path):
        path = write(tmp_path, "id,a\nu1,12\n")
        schema = DatasetSchema(id_column="id", criteria_columns=(("a", "A"),))
        with pytest.raises(OutOfRange) as err:
            load_csv(path, schema)
        assert (err.value.row, err.value.column, err.value.value) == (1, "a", 12.0)

    @pytest.mark.parametrize(
        "lines, row",
        [
            (["id,a,b,caf\udce9", "u1,1.0,2.0,z"], 0),
            (["id,a,b", *["u,1,2"] * 30_000, "u,1,\udcff"], 30_001),
            (["id,a,b,x", "u1,1.0,2.0,z", "u2,1.0,2.0,caf\udce9", "u3,1.0,2.0,\udcff"], 2),
        ],
        ids=["header", "late-criterion", "unused-column"],
    )
    def test_byte_that_is_not_utf8_names_its_row(self, tmp_path, lines, row):
        # the handle decodes 8 KiB ahead of the records, so the decoder's
        # position names neither the row nor the file offset
        data = ("\n".join(lines) + "\n").encode("utf-8", "surrogateescape")
        byte = next(ch for ch in "".join(lines) if "\udc80" <= ch <= "\udcff")
        reason = f"byte 0x{ord(byte) - 0xDC00:02x} is not UTF-8"
        want = (UnreadableRecord, str(UnreadableRecord(row, reason)))
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        assert _outcome(path, TWO_COL_SCHEMA) == want
        assert _outcome(path, TWO_COL_SCHEMA, row_ids=False) == want
        if os.path.isdir("/dev/fd"):
            with piped(data) as name:
                assert _outcome(name, TWO_COL_SCHEMA) == want

    def test_late_blank_lines_are_skipped(self, tmp_path):
        lines = ["id,a,b", *(f"u{i},1.0,2.0" for i in range(600))]
        lines += ["", " , ", "u,3.0,3.0"]
        path = write(tmp_path, "\n".join(lines) + "\n")
        m = load_csv(path, TWO_COL_SCHEMA)
        assert m.values.shape == (601, 2)
        assert m.row_ids[-1] == "u"


def _no_loop(*args):
    raise AssertionError("the per-cell loop ran")


PLAIN_TEXT = "id,x,a,b\r\nu1,z,1.25,2.0\r\nu2 ,z,3.0,0.5\r\n"
# a quoted \r in the header and in an id
QUOTED_TEXT = 'id,"x\ry",a,b\r\nu1,z,1.25,2.0\r\n"u\r2",z,3.0,0.5\r\n'
PLAIN_VALUES = np.array([[1.25, 2.0], [3.0, 0.5]]).tobytes()


def _quote_free_text(rows):
    """A quote-free ratings text of many records, and its values and ids."""
    values = [[i % 17 / 4, i % 5 / 2] for i in range(rows)]
    ids = tuple(f"u{i}" for i in range(rows))
    lines = ["id,a,b", *(f"{u},{a!r},{b!r}" for u, (a, b) in zip(ids, values))]
    return "\n".join(lines) + "\n", np.array(values).tobytes(), ids


class TestReadByName:
    """numpy reads a plain file by its absolute name, with or without ids:
    a regular file that holds no `"` byte, under a name numpy would not
    decompress. Every other input is read by the per-cell loop from the
    one open handle. Every way gives the same matrix.
    """

    @pytest.fixture
    def reads(self, monkeypatch):
        """The reads load_csv makes, in order: ("numpy", source) for each
        loadtxt call and ("loop", path) for each run of the per-cell loop."""
        reads = []
        loadtxt, parse_cells = np.loadtxt, dataset._parse_cells

        def numpy_read(source, *args, **kwargs):
            reads.append(("numpy", source))
            return loadtxt(source, *args, **kwargs)

        def loop_read(reader, path, *args):
            reads.append(("loop", path))
            return parse_cells(reader, path, *args)

        monkeypatch.setattr(dataset.np, "loadtxt", numpy_read)
        monkeypatch.setattr(dataset, "_parse_cells", loop_read)
        return reads

    @pytest.mark.parametrize(
        "name",
        ["r.csv", "r.csv.gz", "r.csv.bz2", "r.csv.xz", "r.csv.lzma", "r.csv.GZ"]
        # relative, and a URL to numpy's urlparse unless made absolute
        + ["http:/host/r.csv", "http://host/r.csv"],
    )
    def test_plain_text_under_any_name(self, tmp_path, monkeypatch, reads, name):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(PLAIN_TEXT.encode("utf-8"))
        with_ids = load_csv(name, TWO_COL_SCHEMA)
        m = load_csv(name, TWO_COL_SCHEMA, row_ids=False)
        assert with_ids.values.tobytes() == m.values.tobytes() == PLAIN_VALUES
        assert with_ids.row_ids == ("u1", "u2")
        assert m.row_ids is None
        if name.endswith((".gz", ".bz2", ".xz", ".lzma")):
            assert reads == [("loop", name)] * 2
        else:
            assert reads == [("numpy", os.path.join(str(tmp_path), name))] * 2

    def test_name_is_not_normalized(self, tmp_path, monkeypatch, reads):
        # link/../r.csv is b/r.csv to the kernel, r.csv to os.path.abspath
        (tmp_path / "b" / "sub").mkdir(parents=True)
        write(tmp_path / "b", PLAIN_TEXT, name="r.csv")
        write(tmp_path, "id,x,a,b\nu1,z,4.0,4.0\n", name="r.csv")
        (tmp_path / "link").symlink_to(tmp_path / "b" / "sub")
        monkeypatch.chdir(tmp_path)
        m = load_csv(os.path.join("link", "..", "r.csv"), TWO_COL_SCHEMA, row_ids=False)
        assert m.values.tobytes() == PLAIN_VALUES
        assert reads == [("numpy", os.path.join(str(tmp_path), "link", "..", "r.csv"))]

    def test_absolute_name_read_from_a_removed_directory(self, tmp_path, monkeypatch):
        path = write(tmp_path, PLAIN_TEXT, name="r.csv")
        (tmp_path / "gone").mkdir()
        monkeypatch.chdir(tmp_path / "gone")
        (tmp_path / "gone").rmdir()
        m = load_csv(path, TWO_COL_SCHEMA, row_ids=False)
        assert m.values.tobytes() == PLAIN_VALUES

    @pytest.mark.parametrize("newline", ["\r\n", "\n", "\r"])
    def test_ids_are_read_by_name_without_a_quote(
        self, tmp_path, monkeypatch, reads, newline
    ):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, PLAIN_TEXT.replace("\r\n", newline), name="r.csv")
        m = load_csv("r.csv", TWO_COL_SCHEMA)
        assert m.values.tobytes() == PLAIN_VALUES
        assert m.row_ids == ("u1", "u2")
        assert reads == [("numpy", os.path.join(str(tmp_path), "r.csv"))]

    def test_any_quote_sends_ids_to_the_handle(self, tmp_path, reads):
        # one quoted id after the rest sends the whole file to the loop,
        # with ids or without
        text, _, ids = _quote_free_text(3)
        path = write(tmp_path, text + '"u,x",1.0,2.0\n')
        m = load_csv(path, TWO_COL_SCHEMA)
        assert m.row_ids == (*ids, "u,x")
        without_ids = load_csv(path, TWO_COL_SCHEMA, row_ids=False)
        assert without_ids.values.tobytes() == m.values.tobytes()
        assert reads == [("loop", path)] * 2

    @pytest.mark.parametrize("cell", QUOTED_ID_CELLS, ids=repr)
    def test_quoted_id_is_read_by_the_loop(self, tmp_path, reads, cell):
        record = cell.format(i=1)
        path = write(tmp_path, f"id,a,b\n{record},1.0,2.0\nu2,3.0,4.0\n")
        m = load_csv(path, TWO_COL_SCHEMA)
        assert m.row_ids == (next(csv.reader([record]))[0].strip(), "u2")
        assert m.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert reads == [("loop", path)]

    def test_header_with_a_quoted_newline_is_read_by_the_loop(self, tmp_path, reads):
        # numpy opens a name with universal newlines, which would turn the
        # quoted \r in an id into \n; the loop keeps it
        path = write(tmp_path, QUOTED_TEXT)
        m = load_csv(path, TWO_COL_SCHEMA)
        assert m.values.tobytes() == PLAIN_VALUES
        assert m.row_ids == ("u1", "u\r2")
        assert reads == [("loop", path)]

    def test_large_quote_free_file_reads_ids_by_name(self, tmp_path, reads):
        text, values, ids = _quote_free_text(FIELD_LIMIT // 10)
        path = write(tmp_path, text)
        assert path.stat().st_size > FIELD_LIMIT
        m = load_csv(path, TWO_COL_SCHEMA)
        assert m.values.tobytes() == values
        assert m.row_ids == ids
        assert reads == [("numpy", str(path))]

    @NEEDS_DEV_FD
    def test_pipe_with_ids_is_read_from_the_handle(self, reads):
        # more than the handle buffers at once: the loop goes on from the
        # header on the one handle, where a pipe opened again would start
        # past that buffer
        text, values, ids = _quote_free_text(2000)
        assert len(text) > 16384
        with piped(text.encode("utf-8")) as name:
            m = load_csv(name, TWO_COL_SCHEMA)
        assert m.values.tobytes() == values
        assert m.row_ids == ids
        assert reads == [("loop", name)]

    @NEEDS_DEV_FD
    def test_pipe_is_read_from_the_handle(self, reads):
        with piped(PLAIN_TEXT.encode("utf-8")) as name:
            m = load_csv(name, TWO_COL_SCHEMA, row_ids=False)
        assert m.values.tobytes() == PLAIN_VALUES
        assert m.row_ids is None
        assert reads == [("loop", name)]


BAD_CELLS = [np.nan, np.inf, -np.inf, -5e-324, -0.5, float(np.nextafter(4.0, 5.0)), 5.0]


def first_bad_cell(values, criteria):
    """The mask-and-argwhere formula of the range check, kept as its
    oracle: (row, criterion, value) of the first bad cell in row-major
    order, or None."""
    bad = ~np.isfinite(values) | (values < 0.0) | (values > 4.0)
    if not np.any(bad):
        return None
    i, j = map(int, np.argwhere(bad)[0])
    return i + 1, criteria[j], float(values[i, j])


@st.composite
def planted_matrix(draw):
    """A rows x cols matrix of ratings, -0.0 among them, with zero, one or
    two bad cells planted at random positions."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(2, 6))
    good = st.one_of(st.floats(0.0, 4.0), st.sampled_from([-0.0, 0.0, 4.0]))
    values = np.array(draw(st.lists(good, min_size=rows * cols, max_size=rows * cols)))
    for _ in range(draw(st.integers(0, 2))):
        values[draw(st.integers(0, rows * cols - 1))] = draw(st.sampled_from(BAD_CELLS))
    return values.reshape(rows, cols)


class TestRatingMatrix:
    @given(values=planted_matrix())
    @settings(max_examples=300, deadline=None)
    def test_range_check_names_the_first_bad_cell(self, values):
        criteria = tuple(f"C{j}" for j in range(values.shape[1]))
        want = first_bad_cell(values, criteria)
        if want is None:
            m = RatingMatrix(values=values, row_ids=None, criteria=criteria)
            assert m.values.tobytes() == values.tobytes()
            return
        with pytest.raises(OutOfRange) as err:
            RatingMatrix(values=values, row_ids=None, criteria=criteria)
        got = (err.value.row, err.value.column, err.value.value)
        # repr, so that a NaN equals a NaN
        assert repr(got) == repr(want)

    def test_negative_zero_is_in_range(self):
        values = np.array([[-0.0, 4.0], [0.0, -0.0]])
        m = RatingMatrix(values=values, row_ids=None, criteria=("A", "B"))
        assert m.values.tobytes() == values.tobytes()

    @pytest.mark.parametrize(
        "given_values",
        [
            lambda arr: arr,
            lambda arr: arr[:, :],
            lambda arr: arr.T.T,
            lambda arr: _read_only(arr.view()),
        ],
        ids=["array", "view", "transposed-view", "read-only-view"],
    )
    def test_caller_writes_do_not_reach_the_matrix(self, given_values):
        arr = np.array([[1.0, 2.0], [3.0, 4.0]])
        m = RatingMatrix(values=given_values(arr), row_ids=None, criteria=("A", "B"))
        arr[0, 0] = 0.5
        assert m.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert not np.shares_memory(m.values, arr)

    def test_read_only_array_owning_its_data_is_taken_as_is(self):
        arr = _read_only(np.array([[1.0, 2.0], [3.0, 4.0]]))
        m = RatingMatrix(values=arr, row_ids=None, criteria=("A", "B"))
        assert m.values is arr

    @pytest.mark.parametrize("row_ids", [True, False])
    @pytest.mark.parametrize("path", ["bulk", "loop"])
    def test_loaded_values_are_read_only_and_own_their_data(
        self, tmp_path, monkeypatch, row_ids, path
    ):
        csv_path = write(tmp_path, PLAIN_TEXT)
        if path == "loop":
            monkeypatch.setattr(dataset, "_parse_bulk", lambda *args: None)
        m = load_csv(csv_path, TWO_COL_SCHEMA, row_ids=row_ids)
        assert m.values.tobytes() == PLAIN_VALUES
        assert not m.values.flags.writeable
        # with ids, a copy apart from the table that holds the ids
        assert m.values.flags.owndata and m.values.flags.c_contiguous

    def test_values_frozen(self):
        m = RatingMatrix(
            values=np.array([[1.0, 2.0]]), row_ids=("u1",), criteria=("A", "B")
        )
        with pytest.raises(ValueError):
            m.values[0, 0] = 3.0

    def test_range_validated_on_construction(self):
        with pytest.raises(OutOfRange):
            RatingMatrix(
                values=np.array([[1.0, 4.5]]), row_ids=("u1",), criteria=("A", "B")
            )

    def test_nan_rejected(self):
        with pytest.raises(OutOfRange):
            RatingMatrix(
                values=np.array([[np.nan, 1.0]]), row_ids=("u1",), criteria=("A", "B")
            )

    def test_label_count_checked(self):
        with pytest.raises(ValueError):
            RatingMatrix(
                values=np.array([[1.0, 2.0]]), row_ids=("u1",), criteria=("A",)
            )

    def test_row_ids_are_counted_only_when_present(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match="2 rows but 1 row ids"):
            RatingMatrix(values=values, row_ids=("u1",), criteria=("A", "B"))
        m = RatingMatrix(values=values, row_ids=None, criteria=("A", "B"))
        assert m.row_ids is None


def _read_only(arr):
    arr.setflags(write=False)
    return arr


class TestColumnMeans:
    def test_hand_example(self):
        m = RatingMatrix(
            values=np.array([[2.0, 4.0], [0.0, 4.0]]),
            row_ids=("u1", "u2"),
            criteria=("A", "B"),
        )
        assert column_means(m).tolist() == [1.0, 4.0]

    @given(
        value=st.floats(min_value=0, max_value=4, allow_nan=False),
        rows=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_constant_column_mean_is_the_constant(self, value, rows):
        m = RatingMatrix(
            values=np.full((rows, 2), value),
            row_ids=tuple(f"u{i}" for i in range(rows)),
            criteria=("A", "B"),
        )
        means = column_means(m)
        assert means[0] == pytest.approx(value, abs=1e-12)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(0, 4, size=(40, 5))
        ids = tuple(f"u{i}" for i in range(40))
        labels = tuple("ABCDE")
        base = column_means(RatingMatrix(values=values, row_ids=ids, criteria=labels))
        perm = rng.permutation(40)
        shuffled = column_means(
            RatingMatrix(values=values[perm], row_ids=ids, criteria=labels)
        )
        assert np.allclose(base, shuffled, atol=1e-12, rtol=0)


class TestTravelReviewsFile:
    def test_shape_and_labels(self, dataset_path):
        m = load_csv(dataset_path)
        assert m.values.shape == (980, 10)
        assert m.criteria[6] == "Parks/Picnic Spots"

    def test_column_means_match_published_values(self, dataset_path, published_means):
        m = load_csv(dataset_path)
        means = column_means(m)
        for label, mean in zip(m.criteria, means):
            assert mean == pytest.approx(published_means[label], abs=1e-3)

    def test_tool_regenerates_the_shipped_surrogate(self, tmp_path):
        out = tmp_path / "surrogate.csv"
        subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "make_surrogate_dataset.py"), str(out)],
            check=True,
            timeout=120,
        )
        shipped = REPO_ROOT / "data" / "travel_reviews_surrogate.csv"
        assert out.read_bytes() == shipped.read_bytes()

    def test_tool_help_writes_no_file(self, tmp_path):
        tool = REPO_ROOT / "tools" / "make_surrogate_dataset.py"
        done = subprocess.run(
            [sys.executable, str(tool), "--help"], cwd=tmp_path, capture_output=True, timeout=120
        )
        assert done.returncode == 0
        assert list(tmp_path.iterdir()) == []
