"""Ingestion: schema handling, validation errors, and mean statistics."""

import csv
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

    def test_from_dict_accepts_pairs_and_mapping(self):
        doc = {"id_column": "id", "criteria_columns": [["a", "A"], ["b", "B"]]}
        assert DatasetSchema.from_dict(doc).labels == ["A", "B"]
        doc = {"id_column": "id", "criteria_columns": {"a": "A", "b": "B"}}
        assert DatasetSchema.from_dict(doc).columns == ["a", "b"]

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


class TestLoadCsv:
    def test_minimal_two_column_file(self, tmp_path):
        path = write(tmp_path, "id,a,b\nu1,2.0,4.0\n")
        m = load_csv(path, TWO_COL_SCHEMA)
        assert m.shape == (1, 2)
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
        assert load_csv(path, TWO_COL_SCHEMA).shape == (1, 2)

    def test_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path, "id,a,b\n\nu1,1,2\n\n\nu2,3,4\n")
        m = load_csv(path, TWO_COL_SCHEMA)
        assert m.shape == (2, 2)

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
# ids a CSV reader could misread: a comment sign, a delimiter, an escaped
# quote, a quoted newline, padding in and outside quotes, over 64 characters
ID_CELLS = [
    "u{i}", "u#{i}", "#u{i}", '"u,{i}"', '"u""{i}"', '"u\n{i}"', "  u{i} ",
    '" u{i} "', ' "u{i}"', "u{i}" + "x" * 70,
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


@st.composite
def cell_text(draw, dirty):
    tokens = CLEAN_TOKENS + LOOP_TOKENS + DIRTY_TOKENS if dirty else CLEAN_TOKENS
    pads = st.sampled_from(CLEAN_PADS + DIRTY_PADS if dirty else CLEAN_PADS)
    text = draw(pads) + draw(st.sampled_from(tokens)) + draw(pads)
    if draw(st.booleans()):
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
    undecodable bytes."""
    dirty = draw(st.booleans())
    header = draw(st.permutations(["id", "a", "b", "c", "x"]))
    # a quoted newline in an unused header cell
    unused = draw(st.sampled_from(["x", '"x\ny"']))
    records = [",".join(unused if name == "x" else name for name in header)]
    for i in range(draw(st.integers(0, 12))):
        shape = draw(st.sampled_from(SHAPES)) if dirty else "full"
        if shape == "full":
            cells = [
                draw(st.sampled_from(ID_CELLS)).format(i=i)
                if name == "id"
                else draw(cell_text(dirty))
                for name in header
            ]
            records.append(",".join(cells))
        elif shape == "blank":
            records.append("")
        elif shape == "spaces":
            records.append(draw(st.sampled_from([" ", " , ,", "\t"])))
        elif shape == "short":
            cells = [draw(cell_text(dirty)) for _ in header]
            records.append(",".join(cells[: draw(st.integers(1, len(header) - 1))]))
        else:
            cells = [draw(cell_text(dirty)) for _ in range(len(header) + 2)]
            records.append(",".join(cells))
    if dirty and draw(st.integers(0, 3)) == 0:
        column, field = draw(st.sampled_from(OVERSIZED))
        cells = [field if name == column else "1" for name in header]
        records.insert(draw(st.integers(1, len(records))), ",".join(cells))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(records) + draw(st.sampled_from(["", newline]))
    if draw(st.booleans()):
        text = "\ufeff" + text
    # a lone surrogate stands for a byte that is not UTF-8
    return text.encode("utf-8", "surrogateescape")


def _outcome(path, schema):
    try:
        m = load_csv(path, schema)
    except Exception as exc:
        return type(exc), str(exc)
    return m.values.tobytes(), m.row_ids


class TestIngestPaths:
    """The bulk parse and the per-cell loop agree on every input; the
    loop alone runs when the bulk parse is replaced by one that declines."""

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
        with mock.patch.object(dataset, "_parse_bulk", return_value=None):
            loop = _outcome(path, THREE_COL_SCHEMA)
        assert both == loop

    def test_shipped_dataset_takes_the_bulk_parse(self, dataset_path, monkeypatch):
        monkeypatch.setattr(dataset, "_parse_cells", _no_loop)
        assert load_csv(dataset_path).shape == (980, 10)

    def test_file_of_several_chunks_takes_the_bulk_parse(self, tmp_path, monkeypatch):
        rows = 773
        values = np.arange(rows * 2).reshape(rows, 2) % 17 / 4
        cells = enumerate(values.tolist())
        lines = ["id,a,b", *(f'u{i}, {a!r} ,"{b!r}"' for i, (a, b) in cells)]
        path = tmp_path / "many.csv"
        path.write_bytes(("\ufeff" + "\r\n".join(lines) + "\r\n").encode("utf-8"))
        monkeypatch.setattr(dataset, "_parse_cells", _no_loop)
        m = load_csv(path, TWO_COL_SCHEMA)
        assert m.values.tobytes() == values.tobytes()
        assert m.row_ids == tuple(f"u{i}" for i in range(rows))

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

    @pytest.mark.parametrize("cell", ID_CELLS, ids=repr)
    def test_odd_id_takes_the_bulk_parse(self, tmp_path, monkeypatch, cell):
        path = write(tmp_path, "id,a,b\n" + cell.format(i=1) + ",1.0,2.0\nu2,3.0,4.0\n")
        with mock.patch.object(dataset, "_parse_bulk", return_value=None):
            loop = _outcome(path, TWO_COL_SCHEMA)
        monkeypatch.setattr(dataset, "_parse_cells", _no_loop)
        assert _outcome(path, TWO_COL_SCHEMA) == loop
        assert loop[1][1] == "u2"

    def test_header_with_a_quoted_newline_takes_the_bulk_parse(self, tmp_path, monkeypatch):
        path = write(tmp_path, 'id,"x\ny",a,b\nu1,z,1.0,2.0\nu2,z,3.0,4.0\n')
        monkeypatch.setattr(dataset, "_parse_cells", _no_loop)
        m = load_csv(path, TWO_COL_SCHEMA)
        assert m.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert m.row_ids == ("u1", "u2")

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
        assert load_csv(path, TWO_COL_SCHEMA).shape == (rows, 2)

    def test_single_criterion_bad_cell_is_named(self, tmp_path):
        path = write(tmp_path, "id,a\nu1,12\n")
        schema = DatasetSchema(id_column="id", criteria_columns=(("a", "A"),))
        with pytest.raises(OutOfRange) as err:
            load_csv(path, schema)
        assert (err.value.row, err.value.column, err.value.value) == (1, "a", 12.0)

    def test_late_blank_lines_are_skipped(self, tmp_path):
        lines = ["id,a,b", *(f"u{i},1.0,2.0" for i in range(600))]
        lines += ["", " , ", "u,3.0,3.0"]
        path = write(tmp_path, "\n".join(lines) + "\n")
        m = load_csv(path, TWO_COL_SCHEMA)
        assert m.shape == (601, 2)
        assert m.row_ids[-1] == "u"


def _no_loop(*args):
    raise AssertionError("the per-cell loop ran")


class TestRatingMatrix:
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
        assert m.shape == (980, 10)
        assert m.criteria[6] == "Parks/Picnic Spots"

    def test_column_means_match_published_values(self, dataset_path, published_means):
        m = load_csv(dataset_path)
        means = column_means(m)
        for label, mean in zip(m.criteria, means):
            assert mean == pytest.approx(published_means[label], abs=1e-3)
