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
import warnings
from dataclasses import dataclass
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

RATING_MIN = 0.0
RATING_MAX = 4.0

_DEFAULT_SCHEMA_RESOURCE = "travel_reviews_schema.json"


@dataclass(frozen=True)
class DatasetSchema:
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


@dataclass(frozen=True)
class RatingMatrix:
    """Users by criteria matrix of average ratings in [0, 4].

    values rows follow file order, columns follow schema order. The array
    is frozen after validation so instances are safe to share.
    """

    values: np.ndarray
    row_ids: tuple[str, ...]
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
        if len(self.row_ids) != rows:
            raise ValueError(f"{rows} rows but {len(self.row_ids)} row ids")
        bad = ~np.isfinite(arr) | (arr < RATING_MIN) | (arr > RATING_MAX)
        if np.any(bad):
            i, j = map(int, np.argwhere(bad)[0])
            raise OutOfRange(i + 1, self.criteria[j], float(arr[i, j]))
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "row_ids", tuple(self.row_ids))
        object.__setattr__(self, "criteria", tuple(self.criteria))
        object.__setattr__(self, "source_columns", tuple(self.source_columns))

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def load_csv(path, schema: DatasetSchema | None = None) -> RatingMatrix:
    """Parse a ratings CSV into a RatingMatrix.

    The first row must be a header containing the schema's id column and
    every criteria column, each exactly once. Cells are trimmed; the
    decimal separator is a dot regardless of locale. Row numbers in errors
    are 1-based data rows (the header is row 0). Fully blank lines are
    skipped.

    numpy's C reader handles well-formed files. On any record it cannot
    take as is, the file is read again by the per-cell loop, which skips
    blank lines and names the first bad cell.
    """
    schema = schema or DatasetSchema.default()
    with open(path, newline="", encoding="utf-8-sig") as fh:
        positions = _header_positions(csv.reader(fh), path, schema)
        parsed = _parse_bulk(fh, *positions) if _fields_fit(path) else None
    if parsed is not None:
        try:
            # RatingMatrix checks the shape before the range and counts a
            # non-finite cell as out of range; the loop names the first bad cell
            return _rating_matrix(*parsed, schema)
        except (EmptyDataset, TooFewCriteria, OutOfRange):
            pass
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        parsed = _parse_cells(
            reader, path, schema.columns, *_header_positions(reader, path, schema)
        )
    return _rating_matrix(*parsed, schema)


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


def _fields_fit(path) -> bool:
    """False when a field could be longer than `csv.field_size_limit()`,
    which the loop reports and numpy reads. A file larger than the limit
    fits only with a newline in every run of limit + 1 bytes and no `"`,
    since a quoted field can span lines."""
    limit = csv.field_size_limit()
    if os.path.getsize(path) <= limit:
        return True
    with open(path, "rb") as fb:
        data = fb.read()
    start = 0
    while len(data) - start > limit:
        newline = data.rfind(b"\n", start, start + limit + 1)
        if newline < 0:
            return False
        start = newline + 1
    return b'"' not in data


def _parse_bulk(fh, id_pos: int, col_pos: list[int]):
    """The data records after the header as (values array, row ids), read
    by numpy's C reader, or None when a record needs the per-cell loop.
    numpy reads floats as `float` does, bit for bit, but refuses a few
    tokens `float` takes (`1_0`, non-ASCII digits)."""
    try:
        with warnings.catch_warnings():
            # the loop names a file without data records as empty
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(
                fh, delimiter=",", quotechar='"', comments=None, ndmin=1,
                usecols=[id_pos, *col_pos],
                dtype=[("id", object), ("v", float, (len(col_pos),))],
            )
    except ValueError:
        return None
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
    return RatingMatrix(
        values=values,
        row_ids=tuple(row_ids),
        criteria=tuple(schema.labels),
        source_columns=tuple(schema.columns),
        id_column=schema.id_column,
    )


def column_means(m: RatingMatrix) -> np.ndarray:
    """Per-criterion mean rating, ordered like m.criteria."""
    return m.values.mean(axis=0)
