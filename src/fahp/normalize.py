"""Column-max (simple additive weighting) normalization."""

from __future__ import annotations

import numpy as np

from .record import Record


class NormalizedMatrix(Record):
    """Decision matrix rescaled so each positive column peaks at 1.

    column_max_used holds the per-column divisor so the transform is
    auditable and reversible for positive columns.
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
        if np.any(arr < 0) or np.any(arr > 1):
            raise ValueError("normalized cells must lie in [0, 1]")
        arr = arr.copy()
        arr.setflags(write=False)
        maxima = maxima.copy()
        maxima.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "column_max_used", maxima)
        object.__setattr__(self, "criteria", tuple(self.criteria))

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def saw_normalize(values) -> tuple[np.ndarray, np.ndarray]:
    """Divide each column by its maximum; zero-max columns map to zeros.

    Returns (normalized array, column maxima used).
    """
    arr = np.asarray(values, dtype=float)
    col_max = arr.max(axis=0)
    out = np.zeros_like(arr)
    np.divide(arr, col_max, out=out, where=col_max > 0)
    return out, col_max


def normalize(m) -> NormalizedMatrix:
    """Normalize a rating matrix (or re-normalize a normalized one).

    Idempotent: positive columns already peaking at 1 are unchanged.
    """
    values, col_max = saw_normalize(m.values)
    return NormalizedMatrix(
        values=values,
        criteria=tuple(m.criteria),
        column_max_used=col_max,
    )
