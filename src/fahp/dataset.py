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


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict; a key given twice is refused, not overwritten."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"schema repeats the key {key!r}")
        doc[key] = value
    return doc


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
        # JSON can spell a lone surrogate ("\udc80"), which no output can encode
        for name in (self.id_column, *names, *labels):
            try:
                name.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(f"schema name {name!r} is not UTF-8 text") from None

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
        mapping = doc.get("criteria_columns")
        if not isinstance(mapping, dict):
            raise ValueError(
                "schema 'criteria_columns' must be an object mapping CSV columns "
                "to criterion labels"
            )
        for column, label in mapping.items():
            if not isinstance(column, str) or not isinstance(label, str):
                raise ValueError(
                    f"schema maps column {column!r} to {label!r}: columns and "
                    "labels must be strings"
                )
        return cls(id_column=doc["id_column"], criteria_columns=tuple(mapping.items()))

    @classmethod
    def from_json(cls, path) -> "DatasetSchema":
        with open(path, encoding="utf-8") as fh:
            try:
                return cls.from_dict(json.load(fh, object_pairs_hook=_unique_keys))
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


def load_csv(
    path, schema: DatasetSchema | None = None, *, row_ids: bool = True
) -> RatingMatrix:
    """Parse a ratings CSV into a RatingMatrix.

    The first row must be a header containing the schema's id column and
    every criteria column, each exactly once. Cells are trimmed; the
    decimal separator is a dot regardless of locale. Row numbers in errors
    are 1-based data rows (the header is row 0). Fully blank lines are
    skipped. A record holding a byte that is not UTF-8 is refused with its
    row number.

    With row_ids=False the id column is checked in the header but its
    cells are not read, and the matrix's row_ids is None.

    The file is opened once and its header parsed once. numpy's C reader
    (`np.loadtxt`) then reads a plain file (see `_plain_name`) by its
    name, in chunks. Every other input, and a plain file holding a record
    numpy cannot take as is, is read by the per-cell loop, which goes on
    from the header on the same open handle, skips blank lines and names
    the first bad cell. A stream is thus read once and never reopened.
    """
    schema = schema or DatasetSchema.default()
    # a byte that is not UTF-8 becomes a lone surrogate, which the record
    # that holds it reports (the handle decodes 8 KiB ahead of the reader)
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        id_pos, col_pos = _header_positions(reader, path, schema)
        name = _plain_name(fh, path)
        parsed = None
        if name is not None:
            parsed = _parse_bulk(name, id_pos if row_ids else None, col_pos)
        if parsed is not None:
            try:
                # RatingMatrix checks the shape before the range and counts a
                # non-finite cell as out of range; the loop names the first bad cell
                return _rating_matrix(*parsed, schema)
            except (EmptyDataset, TooFewCriteria, OutOfRange):
                pass
        # numpy opened the file on its own, so reader is still past the header
        values, ids = _parse_cells(reader, path, schema.columns, id_pos, col_pos)
    return _rating_matrix(values, ids if row_ids else None, schema)


def _header_positions(reader, path, schema: DatasetSchema) -> tuple[int, list[int]]:
    """Read the header row; return the id column's index and the criteria
    columns' indices, in schema order."""
    try:
        record = next(reader)
    except StopIteration:
        raise EmptyDataset(f"{path}: file is empty") from None
    except csv.Error as exc:
        raise UnreadableRecord(0, str(exc)) from None
    _check_decoded(record, 0)
    header = [cell.strip() for cell in record]
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


# numpy reads a name with one of these suffixes (case-sensitive) through
# gzip, bz2 or lzma, whatever the bytes are
_DECOMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _plain_name(fh, path) -> str | None:
    """The absolute name under which numpy reads the file open as fh as
    the loop would, or None when the file is not plain. A file is plain
    when it is regular (a pipe or other stream would not start over when
    reopened), its name does not end in a suffix numpy decompresses, it
    holds no `"` byte, and every run of `csv.field_size_limit()` + 1
    bytes holds a line end (`\n` or `\r`).

    Without a `"` no field is quoted, so every `\r` and `\n` ends a
    record for numpy and the csv module alike and the header is one
    physical line; numpy reads a field of any length, which the loop
    reports when it is over the limit. The name is absolute, so numpy
    never takes it for a URL, and not normalized, since `..` after a
    symlink need not lead where the text says."""
    if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
        return None
    name = os.fsdecode(path)
    if name.endswith(_DECOMPRESSED_SUFFIXES):
        return None
    # a relative name was just opened, so the working directory exists
    name = name if os.path.isabs(name) else os.path.join(os.getcwd(), name)
    with open(name, "rb") as fb:
        data = fb.read()
    if b'"' in data:
        return None
    limit = csv.field_size_limit()
    start = 0
    while len(data) - start > limit:
        end = start + limit + 1
        line_end = max(data.rfind(b"\n", start, end), data.rfind(b"\r", start, end))
        if line_end < 0:
            return None
        start = line_end + 1
    return name


def _parse_bulk(name: str, id_pos: int | None, col_pos: list[int]):
    """The data records of the plain file at name as (values array, row
    ids), read by numpy's C reader past the one-line header, or None when
    the per-cell loop must read them: a record numpy cannot take, or a
    name it cannot open (numpy also looks up the working directory, which
    may be gone).
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
                name, delimiter=",", comments=None, ndmin=ndmin, usecols=usecols,
                dtype=dtype, skiprows=1, encoding="utf-8-sig",
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
    cannot read, or one holding a byte that is not UTF-8, raises
    UnreadableRecord with its number."""
    row_num = 0
    try:
        for row_num, record in enumerate(reader, start=1):
            _check_decoded(record, row_num)
            yield row_num, record
    except csv.Error as exc:
        raise UnreadableRecord(row_num + 1, str(exc)) from None


def _check_decoded(record: list[str], row_num: int) -> None:
    """Raise UnreadableRecord when the record holds a lone surrogate: a
    byte that is not UTF-8, as the surrogateescape handler reads it."""
    text = "".join(record)
    if text.isascii():
        return
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        byte = ord(text[exc.start]) - 0xDC00
        raise UnreadableRecord(row_num, f"byte 0x{byte:02x} is not UTF-8") from None


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
