"""Report rendering: the report JSON against the indented encoder, the matrix
dump against a per-cell oracle, CSV quoting."""

import csv
import io
import json
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fahp import ConsistencyReport, RankingReport, RankRow, RunConfig, WeightVector, rank, report
from fahp.report import _csv_field, render_json, render_matrix_csv, report_to_dict

# -0.0 and 0.0 compare equal but print differently; repr switches to an
# exponent below 1e-4 and from 1e16; 5e-324 and 1e-310 are subnormal
SPECIAL_VALUES = [
    0.0, -0.0, 1.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-05, 0.0001,
    1e16, 9999999999999998.0, 1 / 7, 2 / 3, 0.1 + 0.2, 0.75, 4.0,
    float("inf"), -float("inf"), float("nan"),
]

LABEL_TEXT = st.text(alphabet='ab ,"\n\ré', max_size=6)


def oracle_matrix_csv(header, row_labels, values):
    """The renderer as a per-cell loop: one repr per cell."""
    lines = [",".join(_csv_field(h) for h in header)]
    for label, row in zip(row_labels, values):
        lines.append(",".join([_csv_field(label), *map(repr, row.tolist())]))
    return "\n".join(lines) + "\n"


@contextmanager
def counted_repr():
    """Patch the repr that report calls; yield the values it is called on."""
    calls = []

    def counting_repr(value):
        calls.append(value)
        return repr(value)

    with mock.patch.object(report, "repr", counting_repr, create=True):
        yield calls


@st.composite
def matrices(draw):
    """A float matrix in one of several memory layouts, with few distinct
    values so rows share them."""
    rows = draw(st.integers(0, 12))
    cols = draw(st.integers(0, 5))
    cell = st.one_of(
        st.sampled_from(SPECIAL_VALUES),
        st.floats(allow_nan=False, width=64),
    )
    pool = draw(st.lists(cell, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=4 * rows * cols,
                          max_size=4 * rows * cols))
    base = np.array([pool[i] for i in picks], dtype=float).reshape(2 * rows, 2 * cols)
    layout = draw(st.sampled_from(["contiguous", "read-only", "transposed",
                                   "sliced", "fortran"]))
    if layout == "transposed":
        return np.ascontiguousarray(base[:rows, :cols].T).T
    if layout == "sliced":
        return base[::2, 1::2]
    if layout == "fortran":
        return np.asfortranarray(base[:rows, :cols])
    values = base[:rows, :cols].copy()
    if layout == "read-only":
        values.setflags(write=False)
    return values


# what a JSON string escapes, what it does not (U+2028, non-ASCII), and
# the text that separates rows and members with or without an indent
REPORT_LABEL = st.lists(
    st.one_of(
        st.sampled_from(['"', "\\", "{", "}", ",", "\n", "\r", "\t", "\u2028", "\u2029",
                         "\x00", "\x1f", "\x7f", "é", "中", "\U0001f600", "}, {", '", "',
                         ": ", "},\n    {", ",\n      "]),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=6,
).map("".join)
# 1e-05 rounds to 0.0; repr switches to an exponent from 1e16
REPORT_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-05, 0.00005, 1 / 3, 1e16, 2.5e-5]),
    st.floats(-1e6, 1e6, allow_nan=False),
)
DEGREE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-05, 0.00005, 1 / 3, 2.5e-5, 1.0]),
    st.floats(0, 1),
)


@st.composite
def ranking_reports(draw):
    """A report of n = 2, 3 or 200 criteria with any label text, and
    sometimes no rank rows."""
    n = draw(st.sampled_from([2, 3, 200]))
    labels = draw(st.lists(REPORT_LABEL, min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.dirichlet(np.ones(n))
    # about three in ten weights are 0.0, never all of them
    zero = rng.random(n) < 0.3
    zero[rng.integers(n)] = False
    w[zero] = 0.0
    w /= w.sum()
    # a degree of possibility lies in [0, 1], and the largest weight's is
    # the largest degree
    degrees = w / w.max() * draw(DEGREE_FLOATS)
    weights = WeightVector(labels=labels, weights=w, min_degrees=degrees)
    scores = draw(st.lists(REPORT_FLOATS, min_size=2 * n, max_size=2 * n))
    rows = tuple(
        RankRow(rank=r + 1, label=label, score_real=scores[r], score_normalized=scores[n + r])
        for r, label in enumerate(labels)
    )
    # a record may also be built without rank rows
    rows = rows[: draw(st.sampled_from([n, n, 0]))]
    consistency = ConsistencyReport(
        lambda_max=float(n), n=n, ci=draw(REPORT_FLOATS), ir=1.49, cr=draw(REPORT_FLOATS),
        accepted=draw(st.booleans()),
        warnings=tuple(draw(st.lists(REPORT_LABEL, max_size=2))),
    )
    return RankingReport(rows=rows, mse=draw(REPORT_FLOATS), consistency=consistency,
                         weights=weights)


# 12 criteria, so both row lists run past 10 rows, one label that JSON
# escapes; hypothesis runs an explicit example first and does not shrink it
TWELVE_LABELS = [f"c{i}" for i in range(11)] + ['Parks "Picnic"\\\n']
TWELVE_WEIGHTS = np.arange(12) / 66
TWELVE_CRITERIA = RankingReport(
    rows=rank(TWELVE_LABELS, 3 * TWELVE_WEIGHTS, TWELVE_WEIGHTS),
    mse=3.6e-31,
    consistency=ConsistencyReport(
        lambda_max=12.5, n=12, ci=0.045, ir=1.54, cr=0.0292, accepted=True
    ),
    weights=WeightVector(
        labels=TWELVE_LABELS, weights=TWELVE_WEIGHTS, min_degrees=np.arange(12) / 11
    ),
)


class TestRenderJson:
    @given(
        ranking=ranking_reports(),
        input_name=REPORT_LABEL,
        report_scale=st.sampled_from([1.0, 10.0, 0.5, 3.7, 1e-3, 1e6]),
    )
    @example(ranking=TWELVE_CRITERIA, input_name="in\tput.csv", report_scale=10.0)
    @settings(max_examples=150, deadline=None)
    def test_equals_the_indented_encoder(self, ranking, input_name, report_scale):
        echo = RunConfig(input=input_name, schema=input_name, report_scale=report_scale).echo()
        doc = report_to_dict(ranking, echo, report_scale)
        text = render_json(ranking, echo, report_scale)
        assert text == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


class TestRenderMatrixCsv:
    @given(
        values=matrices(),
        labels=st.lists(LABEL_TEXT, min_size=12, max_size=12),
        header=st.lists(LABEL_TEXT, min_size=1, max_size=6),
        block_rows=st.sampled_from([1, 2, 5, report._BLOCK_ROWS]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_cell_oracle(self, values, labels, header, block_rows):
        labels = labels[: len(values)]
        with mock.patch.object(report, "_BLOCK_ROWS", block_rows):
            text = render_matrix_csv(header, labels, values)
        assert text == oracle_matrix_csv(header, labels, values)

    def test_rows_past_one_block(self):
        rows = report._BLOCK_ROWS + 1
        values = np.arange(rows * 3).reshape(rows, 3) % 7 / 4
        values[-1, 0] = -0.0
        labels = [f"u{i}" for i in range(rows)]
        text = render_matrix_csv(["id", "a", "b", "c"], labels, values)
        assert text == oracle_matrix_csv(["id", "a", "b", "c"], labels, values)
        assert text.endswith("\nu4096,-0.0,1.0,1.25\n")

    def test_signed_zeros_in_one_block_keep_their_text(self):
        values = np.array([[0.0, -0.0], [-0.0, 0.0]])
        text = render_matrix_csv(["id", "a", "b"], ["u1", "u2"], values)
        assert text == "id,a,b\nu1,0.0,-0.0\nu2,-0.0,0.0\n"

    @pytest.mark.parametrize("first, second", [(-0.0, 0.0), (0.0, -0.0)])
    def test_signed_zeros_in_consecutive_blocks_keep_their_text(self, first, second):
        values = np.array([[first], [1.0], [second], [1.0]])
        with mock.patch.object(report, "_BLOCK_ROWS", 2):
            text = render_matrix_csv(["id", "a"], ["u1", "u2", "u3", "u4"], values)
        assert text == f"id,a\nu1,{first!r}\nu2,1.0\nu3,{second!r}\nu4,1.0\n"

    def test_values_repeated_in_every_block_are_formatted_once(self):
        pool = np.array([0.1 + 0.2, -0.0, 0.0, 1 / 7, 5e-324])
        values = pool[np.arange(40 * 3).reshape(40, 3) % len(pool)]
        labels = [f"u{i}" for i in range(40)]
        with mock.patch.object(report, "_BLOCK_ROWS", 4), counted_repr() as calls:
            text = render_matrix_csv(["id", "a", "b", "c"], labels, values)
        assert text == oracle_matrix_csv(["id", "a", "b", "c"], labels, values)
        assert len(calls) == len(pool)

    def test_block_sharing_no_value_with_the_one_before(self):
        # the second block's values all sort below, between and above the
        # first's; the third repeats the first, whose texts are gone by then
        values = np.array([[2.0, 4.0], [4.0, 2.0], [1.0, 3.0], [5.0, 3.0],
                           [2.0, 4.0], [4.0, 4.0]])
        labels = [f"u{i}" for i in range(6)]
        with mock.patch.object(report, "_BLOCK_ROWS", 2), counted_repr() as calls:
            text = render_matrix_csv(["id", "a", "b"], labels, values)
        assert text == oracle_matrix_csv(["id", "a", "b"], labels, values)
        assert calls == [2.0, 4.0, 1.0, 3.0, 5.0, 2.0, 4.0]

    def test_label_needing_quotes_only_in_the_last_block(self):
        labels = ["u1", "u2", "u3", "u4", 'u,"5"']
        values = np.arange(5.0).reshape(5, 1)
        with mock.patch.object(report, "_BLOCK_ROWS", 2):
            text = render_matrix_csv(["id", "a"], labels, values)
        assert text == oracle_matrix_csv(["id", "a"], labels, values)
        records = list(csv.reader(io.StringIO(text)))
        assert [record[0] for record in records[1:]] == labels

    def test_zero_columns_over_several_blocks(self):
        values = np.empty((5, 0))
        labels = ["u1", "u2", "u3", "u4", "u5"]
        with mock.patch.object(report, "_BLOCK_ROWS", 2):
            text = render_matrix_csv(["id"], labels, values)
        assert text == "id\nu1\nu2\nu3\nu4\nu5\n"

    @pytest.mark.parametrize("count", [0, 2, 4])
    def test_label_count_must_match_the_rows(self, count):
        labels = [f"u{i}" for i in range(count)]
        with pytest.raises(ValueError, match=f"{count} row labels for 3 rows"):
            render_matrix_csv(["id", "a"], labels, np.ones((3, 1)))


class TestCsvField:
    @pytest.mark.parametrize("text", ["a,b", 'a"b', "a\nb", "a\rb", "a\r\nb"])
    def test_quotes_what_a_csv_reader_would_split(self, text):
        field = _csv_field(text)
        assert field.startswith('"')
        assert next(csv.reader(io.StringIO(field + ",x\n"))) == [text, "x"]

    @pytest.mark.parametrize("text", ["", "u1", "a b", "Parks/Picnic Spots"])
    def test_plain_text_is_unchanged(self, text):
        assert _csv_field(text) == text


class TestWriteText:
    @pytest.mark.parametrize(
        "length",
        [0, 1, report._WRITE_SLICE, 2 * report._WRITE_SLICE + 3],
        ids=["empty", "one", "one-slice", "past-two-slices"],
    )
    def test_writes_the_text_in_utf8_with_no_newline_translation(self, tmp_path, length):
        # multibyte characters straddle the slice boundaries
        text = ("é\r\n€" * length)[:length]
        path = tmp_path / "out.txt"
        report.write_text(path, text)
        assert path.read_bytes() == text.encode("utf-8")
