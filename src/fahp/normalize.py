"""Column-max (simple additive weighting) normalization."""

from __future__ import annotations

import numpy as np

from .record import Record, frozen


class NormalizedMatrix(Record):
    """Decision matrix rescaled so each positive column peaks at 1.

    Every cell must lie in [0, 1], which a NaN does not.

    The values array is frozen. As in RatingMatrix, a read-only float
    array that owns its data is taken as is, and any other is copied first.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-d matrix, got shape {arr.shape}")
        # a NaN fails both comparisons
        if arr.size and not (arr.min() >= 0 and arr.max() <= 1):
            raise ValueError("normalized cells must lie in [0, 1]")
        object.__setattr__(self, "values", frozen(arr))


def saw_normalize(values) -> np.ndarray:
    """Divide each column by its maximum; a column whose maximum is not
    positive maps to +0.0 throughout.

    Returns the normalized array, new and writeable. A positive column
    gets the bits of `arr / col_max`, a `-0.0` cell included; such a cell
    in a zero column becomes +0.0.
    """
    arr = np.asarray(values, dtype=float)
    col_max = arr.max(axis=0)
    positive = col_max > 0
    # one divide; a column that is not positive is divided by 1, then zeroed
    out = arr / np.where(positive, col_max, 1.0)
    out[:, ~positive] = 0.0
    return out


def normalize(m) -> NormalizedMatrix:
    """Normalize a rating matrix (or re-normalize a normalized one).

    Idempotent: positive columns already peaking at 1 are unchanged. The
    array is new, frozen here and handed to the record without a copy.
    """
    values = saw_normalize(m.values)
    values.setflags(write=False)
    return NormalizedMatrix(values=values)
