"""Extent analysis over a fuzzy comparison matrix.

Row sums of the fuzzy matrix are divided by the grand total (via the TFN
reciprocal rule) to give one synthetic extent per criterion; pairwise
degrees of possibility are folded to a minimum degree per criterion; the
minimum degrees normalize to the weight vector.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import AllZeroDegrees, TooFewCriteria
from .record import Record, frozen
from .tfn import ROW_TABLE, FuzzyComparisonMatrix, Tfn


def synthetic_extents(f: FuzzyComparisonMatrix) -> np.ndarray:
    """One synthetic extent per criterion, as an (n, 3) array of (l, m, u).

    S_i = (R_i.l / T.u, R_i.m / T.m, R_i.u / T.l) where R_i is the i-th
    fuzzy row sum and T the sum of all row sums. Crossing the components
    is the TFN reciprocal rule applied to T and keeps l <= m <= u valid.

    The row sums fold the gathered scale rows one column of codes at a
    time, left to right: the order in which `f.values.sum(axis=1)` adds,
    so the sums are bit-identical to it without the (n, n, 3) gather.
    """
    columns = f.codes.T.copy()
    sums = ROW_TABLE[columns[0]]
    gathered = np.empty_like(sums)
    for column in columns[1:]:
        ROW_TABLE.take(column, axis=0, out=gathered)
        sums += gathered
    total = sums.sum(axis=0)
    return sums / total[::-1]


def possibility_matrix(extents: np.ndarray) -> np.ndarray:
    """V[i, k], the degree of possibility that extent i >= extent k.

    extents is an (n, 3) array of (l, m, u) rows; ValueError unless every
    row satisfies l <= m <= u, which also rejects NaN.

    Branch order matters: equal-or-higher modal value wins outright (so
    the diagonal is 1), disjoint supports lose outright, and only genuine
    overlaps (m_i < m_k and l_k < u_i) reach the ordinate
    (l_k - u_i) / ((m_i - u_i) - (m_k - l_k)). There m_i <= u_i and
    m_k >= l_k, and both differences cannot be zero at once (that would
    give m_k = l_k < u_i = m_i), so the denominator is provably negative.
    """
    components = np.asarray(extents, dtype=float)
    if components.ndim != 2 or components.shape[1] != 3:
        raise ValueError(f"expected extents of shape (n, 3), got {components.shape}")
    # three (n, 1) columns; their transposes are the (1, n) rows
    low, mid, up = components.T[:, :, None]
    if not np.all((low <= mid) & (mid <= up)):
        raise ValueError("every extent must satisfy l <= m <= u")
    overlap = (mid < mid.T) & (low.T < up)
    degree = np.divide(
        low.T - up,
        (mid - up) - (mid.T - low.T),
        out=np.zeros(overlap.shape),
        where=overlap,
    )
    degree[mid >= mid.T] = 1.0
    return degree


def possibility(m2: Tfn, m1: Tfn) -> float:
    """Degree of possibility that m2 >= m1, in [0, 1]."""
    return float(possibility_matrix([m2.as_tuple(), m1.as_tuple()])[0, 1])


def min_degrees(extents: np.ndarray) -> np.ndarray:
    """Smallest possibility that each extent dominates every other one."""
    if len(extents) < 2:
        raise TooFewCriteria(len(extents))
    degree = possibility_matrix(extents)
    np.fill_diagonal(degree, np.inf)
    return degree.min(axis=1)


class WeightVector(Record):
    """Nonnegative criterion weights on the unit simplex.

    min_degrees holds the pre-normalization d'(A_i) values so reports can
    show both.
    """

    labels: tuple[str, ...]
    weights: np.ndarray
    min_degrees: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        d = np.asarray(self.min_degrees, dtype=float)
        if w.ndim != 1 or d.shape != w.shape:
            raise ValueError("weights and min_degrees must be equal-length vectors")
        if len(self.labels) != w.size:
            raise ValueError("one label per weight required")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {float(w.sum())!r}")
        object.__setattr__(self, "weights", frozen(w))
        object.__setattr__(self, "min_degrees", frozen(d))
        object.__setattr__(self, "labels", tuple(self.labels))

    def __len__(self) -> int:
        return self.weights.size


def weights(extents: np.ndarray, labels: Sequence[str] | None = None) -> WeightVector:
    """Normalize the minimum degrees into the weight vector.

    Raises AllZeroDegrees when every minimum degree is 0 (mutually
    disjoint extents), which cannot happen for extents computed from a
    valid fuzzy comparison matrix.
    """
    d = min_degrees(extents)
    total = float(d.sum())
    if total == 0.0:
        raise AllZeroDegrees()
    if labels is None:
        labels = tuple(f"C{i + 1}" for i in range(len(extents)))
    return WeightVector(
        labels=tuple(labels), weights=d / total, min_degrees=d
    )
