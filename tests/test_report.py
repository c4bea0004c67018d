"""Report rendering: the matrix dump against a per-cell oracle, CSV quoting."""

import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fahp import report
from fahp.report import _csv_field, render_matrix_csv

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


class TestCsvField:
    @pytest.mark.parametrize("text", ["a,b", 'a"b', "a\nb", "a\rb", "a\r\nb"])
    def test_quotes_what_a_csv_reader_would_split(self, text):
        field = _csv_field(text)
        assert field.startswith('"')
        assert next(csv.reader(io.StringIO(field + ",x\n"))) == [text, "x"]

    @pytest.mark.parametrize("text", ["", "u1", "a b", "Parks/Picnic Spots"])
    def test_plain_text_is_unchanged(self, text):
        assert _csv_field(text) == text
