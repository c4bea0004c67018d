"""Column-max (simple additive weighting) normalization."""

from __future__ import annotations

import numpy as np

from .record import Record, frozen


class NormalizedMatrix(Record):
    """Decision matrix rescaled so each positive column peaks at 1.

    column_max_used holds the per-column divisor so the transform is
    auditable and reversible for positive columns. Every cell must lie in
    [0, 1] and every divisor must be finite and nonnegative; a NaN is
    neither.

    Both arrays are frozen. As in RatingMatrix, a read-only float array
    that owns its data is taken as is, and any other is copied first.
    """

    values: np.ndarray
    criteria: tuple[str, ...]
    column_max_used: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        maxima = np.asarray(self.column_max_used, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-d matrix, got shape {arr.shape}")
        if arr.shape[1] != len(self.criteria):
            raise ValueError("column count does not match criterion labels")
        if maxima.shape != (arr.shape[1],):
            raise ValueError("column_max_used must have one entry per column")
        # a NaN fails both comparisons
        if arr.size and not (arr.min() >= 0 and arr.max() <= 1):
            raise ValueError("normalized cells must lie in [0, 1]")
        if not (np.all(np.isfinite(maxima)) and np.all(maxima >= 0)):
            raise ValueError("column_max_used must be finite and nonnegative")
        object.__setattr__(self, "values", frozen(arr))
        object.__setattr__(self, "column_max_used", frozen(maxima))
        object.__setattr__(self, "criteria", tuple(self.criteria))

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def saw_normalize(values) -> tuple[np.ndarray, np.ndarray]:
    """Divide each column by its maximum; a column whose maximum is not
    positive maps to +0.0 throughout.

    Returns (normalized array, column maxima used), both new and writeable.
    A positive column gets the bits of `arr / col_max`, a `-0.0` cell
    included; such a cell in a zero column becomes +0.0.
    """
    arr = np.asarray(values, dtype=float)
    col_max = arr.max(axis=0)
    positive = col_max > 0
    # one divide; a column that is not positive is divided by 1, then zeroed
    out = arr / np.where(positive, col_max, 1.0)
    out[:, ~positive] = 0.0
    return out, col_max


def normalize(m) -> NormalizedMatrix:
    """Normalize a rating matrix (or re-normalize a normalized one).

    Idempotent: positive columns already peaking at 1 are unchanged. The
    arrays are new, frozen here and handed to the record without a copy.
    """
    values, col_max = saw_normalize(m.values)
    values.setflags(write=False)
    col_max.setflags(write=False)
    return NormalizedMatrix(
        values=values,
        criteria=tuple(m.criteria),
        column_max_used=col_max,
    )
