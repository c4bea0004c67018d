"""Ratings CSV ingestion.

Reads an alternatives-by-criteria table of average user ratings into an
immutable matrix. The default schema follows the public UCI Travel Reviews
layout: one id column and ten category columns mapped to attraction labels.
"""

from __future__ import annotations

import csv
import json
import math
import os
import stat
import warnings
from importlib import resources

import numpy as np

from .errors import (
    DuplicateColumn,
    EmptyDataset,
    MissingColumn,
    NonNumericCell,
    OutOfRange,
    TooFewCriteria,
    UnreadableRecord,
)
from .record import Record, frozen

RATING_MIN = 0.0
RATING_MAX = 4.0

_DEFAULT_SCHEMA_RESOURCE = "travel_reviews_schema.json"


class DatasetSchema(Record):
    """Names the id column and the ordered (column, label) criterion pairs."""

    id_column: str
    criteria_columns: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if not self.criteria_columns:
            raise ValueError("schema needs at least one criteria column")
        names = [col for col, _ in self.criteria_columns]
        labels = [label for _, label in self.criteria_columns]
        if len(set(names)) != len(names):
            raise ValueError("duplicate column names in schema")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate criterion labels in schema")
        if self.id_column in names:
            raise ValueError("id column cannot double as a criteria column")

    @property
    def columns(self) -> list[str]:
        return [col for col, _ in self.criteria_columns]

    @property
    def labels(self) -> list[str]:
        return [label for _, label in self.criteria_columns]

    @classmethod
    def from_dict(cls, doc: dict) -> "DatasetSchema":
        if not isinstance(doc, dict) or not isinstance(doc.get("id_column"), str):
            raise ValueError("schema must be a JSON object with a string 'id_column'")
        pairs = doc.get("criteria_columns")
        if isinstance(pairs, dict):
            pairs = list(pairs.items())
        if not isinstance(pairs, list) or not all(
            isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in pairs
        ):
            raise ValueError(
                "schema 'criteria_columns' must be an object or a list of "
                "[column, label] pairs"
            )
        items = tuple((str(c), str(lab)) for c, lab in pairs)
        return cls(id_column=doc["id_column"], criteria_columns=items)

    @classmethod
    def from_json(cls, path) -> "DatasetSchema":
        with open(path, encoding="utf-8") as fh:
            try:
                return cls.from_dict(json.load(fh))
            except (RecursionError, json.JSONDecodeError) as exc:
                raise ValueError(f"schema {path} is not readable JSON: {exc}") from None

    @classmethod
    def default(cls) -> "DatasetSchema":
        ref = resources.files("fahp.data").joinpath(_DEFAULT_SCHEMA_RESOURCE)
        return cls.from_dict(json.loads(ref.read_text(encoding="utf-8")))


class RatingMatrix(Record):
    """Users by criteria matrix of average ratings in [0, 4].

    values rows follow file order, columns follow schema order. The array
    is frozen after validation so instances are safe to share. row_ids is
    None when the id column was not read; otherwise it holds one id per row.

    A read-only float array that owns its data is taken as is: its holder
    hands it over and must not make it writeable again. Any other values,
    a writeable array or a view of one included, are copied first, so a
    caller's later writes never reach the matrix.
    """

    values: np.ndarray
    row_ids: tuple[str, ...] | None
    criteria: tuple[str, ...]
    source_columns: tuple[str, ...] = ()
    id_column: str = "row"

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-d matrix, got shape {arr.shape}")
        rows, cols = arr.shape
        if rows < 1:
            raise EmptyDataset("rating matrix has no rows")
        if cols < 2:
            raise TooFewCriteria(cols)
        if cols != len(self.criteria):
            raise ValueError(
                f"{cols} columns but {len(self.criteria)} criterion labels"
            )
        if self.row_ids is not None and len(self.row_ids) != rows:
            raise ValueError(f"{rows} rows but {len(self.row_ids)} row ids")
        # a NaN fails both comparisons; the mask is built only to name the
        # first bad cell in row-major order
        if not (arr.min() >= RATING_MIN and arr.max() <= RATING_MAX):
            bad = ~np.isfinite(arr) | (arr < RATING_MIN) | (arr > RATING_MAX)
            i, j = map(int, np.argwhere(bad)[0])
            raise OutOfRange(i + 1, self.criteria[j], float(arr[i, j]))
        object.__setattr__(self, "values", frozen(arr))
        if self.row_ids is not None:
            object.__setattr__(self, "row_ids", tuple(self.row_ids))
        object.__setattr__(self, "criteria", tuple(self.criteria))
        object.__setattr__(self, "source_columns", tuple(self.source_columns))

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def load_csv(
    path, schema: DatasetSchema | None = None, *, row_ids: bool = True
) -> RatingMatrix:
    """Parse a ratings CSV into a RatingMatrix.

    The first row must be a header containing the schema's id column and
    every criteria column, each exactly once. Cells are trimmed; the
    decimal separator is a dot regardless of locale. Row numbers in errors
    are 1-based data rows (the header is row 0). Fully blank lines are
    skipped.

    With row_ids=False the id column is checked in the header but its
    cells are not read, and the matrix's row_ids is None.

    numpy's C reader handles well-formed files. On any record it cannot
    take as is, the file is read again by the per-cell loop, which skips
    blank lines and names the first bad cell.

    numpy is given the file's name, which it reads in chunks; from the
    open handle it pulls one line per Python call. With ids, a file that
    holds a `"` byte is read from the handle, since numpy opens a name with
    universal newlines and would turn a quoted `\r` in an id into `\n`;
    without a `"` no field is quoted and every `\r` ends a record either
    way. So is a file that `_reopen_name` declines: a pipe or a name numpy
    would decompress.
    """
    schema = schema or DatasetSchema.default()
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        id_pos, col_pos = _header_positions(reader, path, schema)
        name = _reopen_name(fh, path)
        # a small file is read for its quotes only once it is known to be
        # regular: reading a pipe would drain it
        fits, unquoted = _scan(path, small_too=row_ids and name is not None)
        id_pos = id_pos if row_ids else None
        if not fits:
            parsed = None
        elif name is None or (row_ids and not unquoted):
            parsed = _parse_bulk(fh, 0, id_pos, col_pos)
        else:
            # line_num counts physical lines, as skiprows does, so a header
            # with a quoted line end is skipped whole
            parsed = _parse_bulk(name, reader.line_num, id_pos, col_pos)
    if parsed is not None:
        try:
            # RatingMatrix checks the shape before the range and counts a
            # non-finite cell as out of range; the loop names the first bad cell
            return _rating_matrix(*parsed, schema)
        except (EmptyDataset, TooFewCriteria, OutOfRange):
            pass
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        values, ids = _parse_cells(
            reader, path, schema.columns, *_header_positions(reader, path, schema)
        )
    return _rating_matrix(values, ids if row_ids else None, schema)


def _header_positions(reader, path, schema: DatasetSchema) -> tuple[int, list[int]]:
    """Read the header row; return the id column's index and the criteria
    columns' indices, in schema order."""
    try:
        header = [cell.strip() for cell in next(reader)]
    except StopIteration:
        raise EmptyDataset(f"{path}: file is empty") from None
    except csv.Error as exc:
        raise UnreadableRecord(0, str(exc)) from None
    positions: dict[str, int] = {}
    repeated = set()
    for idx, name in enumerate(header):
        if positions.setdefault(name, idx) != idx:
            repeated.add(name)
    found = []
    for name in (schema.id_column, *schema.columns):
        if name not in positions:
            raise MissingColumn(name)
        if name in repeated:
            raise DuplicateColumn(name)
        found.append(positions[name])
    return found[0], found[1:]


def _scan(path, small_too: bool) -> tuple[bool, bool | None]:
    """(fits, unquoted) for the file at path, from at most one read of it.

    fits is False when a field could be longer than
    `csv.field_size_limit()`, which the loop reports and numpy reads.
    unquoted is True when the file holds no `"` byte, so that no field is
    quoted. A file larger than the limit is always read: it fits only with
    a line end (`\n` or `\r`, which both end a record) in every run of
    limit + 1 bytes and no `"`, since a quoted field can span lines. A
    smaller file always fits, and is read only when small_too; unread,
    its unquoted is None."""
    limit = csv.field_size_limit()
    if os.path.getsize(path) <= limit and not small_too:
        return True, None
    with open(path, "rb") as fb:
        data = fb.read()
    unquoted = b'"' not in data
    start = 0
    while len(data) - start > limit:
        end = start + limit + 1
        line_end = max(data.rfind(b"\n", start, end), data.rfind(b"\r", start, end))
        if line_end < 0:
            return False, unquoted
        start = line_end + 1
    return unquoted or len(data) <= limit, unquoted


# numpy reads a name with one of these suffixes (case-sensitive) through
# gzip, bz2 or lzma, whatever the bytes are
_DECOMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _reopen_name(fh, path) -> str | None:
    """The name under which numpy reads the file open as fh from its first
    byte as plain text, or None. A pipe or other file that is not regular
    would not start over when reopened, and numpy decompresses a name by
    its suffix. The name is absolute, so numpy never takes it for a URL,
    and not normalized, since `..` after a symlink need not lead where the
    text says."""
    if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
        return None
    name = os.fsdecode(path)
    if name.endswith(_DECOMPRESSED_SUFFIXES):
        return None
    # a relative name was just opened, so the working directory exists
    return name if os.path.isabs(name) else os.path.join(os.getcwd(), name)


def _parse_bulk(source, skiprows: int, id_pos: int | None, col_pos: list[int]):
    """The data records as (values array, row ids), read by numpy's C
    reader, or None when the per-cell loop must read them: a record numpy
    cannot take, or a name it cannot open (numpy also looks up the working
    directory, which may be gone). source is the handle just past the
    header (skiprows 0) or a name from `_reopen_name`, of which the first
    skiprows lines are the header.
    numpy reads floats as `float` does, bit for bit, but refuses a few
    tokens `float` takes (`1_0`, non-ASCII digits). With id_pos None the
    ids are None: a plain float array skips the object field, which is
    most of the cost of reading ids."""
    if id_pos is None:
        usecols, dtype, ndmin = col_pos, float, 2
    else:
        usecols = [id_pos, *col_pos]
        dtype, ndmin = [("id", object), ("v", float, (len(col_pos),))], 1
    try:
        with warnings.catch_warnings():
            # the loop names a file without data records as empty
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(
                source, delimiter=",", quotechar='"', comments=None, ndmin=ndmin,
                usecols=usecols, dtype=dtype, skiprows=skiprows,
                encoding="utf-8-sig",
            )
    except (OSError, ValueError):
        return None
    if id_pos is None:
        return table, None
    return table["v"], [row_id.strip() for row_id in table["id"].tolist()]


def _parse_cells(reader, path, columns: list[str], id_pos: int, col_pos: list[int]):
    """Every data record as (value rows, row ids), checked cell by cell;
    raises the error that names the first bad cell."""
    row_ids: list[str] = []
    data: list[list[float]] = []
    named = list(zip(columns, col_pos))
    for row_num, record in _numbered(reader):
        if not any(cell.strip() for cell in record):
            continue
        parsed = []
        for col_name, pos in named:
            text = record[pos].strip() if pos < len(record) else ""
            if not text:
                raise NonNumericCell(row_num, col_name, text)
            try:
                value = float(text)
            except ValueError:
                raise NonNumericCell(row_num, col_name, text) from None
            if not math.isfinite(value):
                raise NonNumericCell(row_num, col_name, text)
            if not RATING_MIN <= value <= RATING_MAX:
                raise OutOfRange(row_num, col_name, value)
            parsed.append(value)
        row_ids.append(record[id_pos].strip() if id_pos < len(record) else "")
        data.append(parsed)
    if not data:
        raise EmptyDataset(f"{path}: no data rows")
    return data, row_ids


def _numbered(reader):
    """The data records with their 1-based numbers; a record the csv module
    cannot read raises UnreadableRecord with its number."""
    row_num = 0
    try:
        for row_num, record in enumerate(reader, start=1):
            yield row_num, record
    except csv.Error as exc:
        raise UnreadableRecord(row_num + 1, str(exc)) from None


def _rating_matrix(values, row_ids, schema: DatasetSchema) -> RatingMatrix:
    """values is an array or the rows just parsed; frozen here, an array
    that owns its data is handed to the matrix without a copy."""
    values = np.asarray(values, dtype=float)
    values.setflags(write=False)
    return RatingMatrix(
        values=values,
        row_ids=row_ids,
        criteria=tuple(schema.labels),
        source_columns=tuple(schema.columns),
        id_column=schema.id_column,
    )


def column_means(m: RatingMatrix) -> np.ndarray:
    """Per-criterion mean rating, ordered like m.criteria."""
    return m.values.mean(axis=0)
