"""Triangular fuzzy numbers and the comparative scale.

A triangular fuzzy number (TFN) is a triple (l, m, u) with l <= m <= u:
membership rises linearly from 0 at l to 1 at m and falls back to 0 at u.
The scale table maps each Saaty intensity 1..9 to a TFN pair: the direct
("real") group used when a criterion dominates, and the inverse group,
always the reciprocal (1/u, 1/m, 1/l) of the direct row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .errors import NonPositiveSupport, NonScaleEntry, UnknownIntensity

# how close a crisp entry must be to an intensity or its reciprocal
SCALE_MATCH_TOL = 1e-9

# reciprocity slack for fuzzy matrix validation
RECIPROCITY_TOL = 1e-12


@dataclass(frozen=True)
class Tfn:
    """Triangular fuzzy number (lower, modal, upper)."""

    l: float
    m: float
    u: float

    def __post_init__(self):
        if not (self.l <= self.m <= self.u):
            raise ValueError(f"not a valid TFN: l={self.l} m={self.m} u={self.u}")

    def reciprocal(self) -> "Tfn":
        if self.l <= 0:
            raise NonPositiveSupport(self.l)
        return Tfn(1.0 / self.u, 1.0 / self.m, 1.0 / self.l)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.l, self.m, self.u)


# Direct-group rows as exact fractions, intensity 1..9 in order. Inverse rows
# are always derived as (1/u, 1/m, 1/l) so the two groups stay mutually
# reciprocal; no inverse row is stored independently.
_DIRECT_ROWS = (
    ("1", "1", "1"),
    ("1/2", "3/4", "1"),
    ("2/3", "1", "3/2"),
    ("1", "3/2", "2"),
    ("3/2", "2", "5/2"),
    ("2", "5/2", "3"),
    ("5/2", "3", "7/2"),
    ("3", "7/2", "4"),
    ("7/2", "4", "9/2"),
)


@dataclass(frozen=True)
class ScaleTable:
    """Intensity (1..len) to (direct TFN, inverse TFN) lookup.

    The table is plain data so alternative fuzzifications of the Saaty
    scale can be swapped in; the default is built from exact fractions.
    """

    rows: tuple[tuple[Tfn, Tfn], ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("scale table has no rows")
        prev_m = None
        for k, (real, inverse) in enumerate(self.rows, start=1):
            if real.l <= 0 or inverse.l <= 0:
                raise ValueError(f"intensity {k}: scale TFNs need l > 0")
            expected = real.reciprocal()
            off = max(
                abs(inverse.l - expected.l),
                abs(inverse.m - expected.m),
                abs(inverse.u - expected.u),
            )
            if off > 1e-15:
                raise ValueError(
                    f"intensity {k}: inverse row is not the reciprocal "
                    f"of the direct row (off by {off:.3e})"
                )
            # modal values climb from intensity 2 upward; the first
            # "intermediate" row legitimately dips under the just-equal 1
            if k > 2 and real.m < prev_m:
                raise ValueError(
                    f"intensity {k}: direct modal values must be nondecreasing"
                )
            prev_m = real.m

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple[int, Tfn, Tfn]]:
        for k, (real, inverse) in enumerate(self.rows, start=1):
            yield k, real, inverse

    def real(self, intensity: int) -> Tfn:
        if not 1 <= intensity <= len(self.rows):
            raise UnknownIntensity(intensity)
        return self.rows[intensity - 1][0]

    def inverse(self, intensity: int) -> Tfn:
        if not 1 <= intensity <= len(self.rows):
            raise UnknownIntensity(intensity)
        return self.rows[intensity - 1][1]

    @classmethod
    def default(cls) -> "ScaleTable":
        rows = []
        for l, m, u in _DIRECT_ROWS:
            fl, fm, fu = Fraction(l), Fraction(m), Fraction(u)
            real = Tfn(float(fl), float(fm), float(fu))
            inverse = Tfn(float(1 / fu), float(1 / fm), float(1 / fl))
            rows.append((real, inverse))
        return cls(rows=tuple(rows))


_DEFAULT_TABLE: ScaleTable | None = None


def default_scale_table() -> ScaleTable:
    global _DEFAULT_TABLE
    if _DEFAULT_TABLE is None:
        _DEFAULT_TABLE = ScaleTable.default()
    return _DEFAULT_TABLE


@dataclass(frozen=True)
class FuzzyComparisonMatrix:
    """n x n matrix of TFNs, reciprocal across the diagonal.

    values has shape (n, n, 3), last axis ordered (l, m, u).
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 3:
            raise ValueError(f"expected shape (n, n, 3), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("fuzzy matrix entries must be finite")
        if np.any(arr[:, :, 0] > arr[:, :, 1]) or np.any(arr[:, :, 1] > arr[:, :, 2]):
            raise ValueError("every entry must satisfy l <= m <= u")
        if np.any(arr[:, :, 0] <= 0):
            raise ValueError("entries must be strictly positive TFNs")
        n = arr.shape[0]
        diag = arr[np.arange(n), np.arange(n), :]
        if not np.all(diag == 1.0):
            raise ValueError("diagonal entries must be exactly (1, 1, 1)")
        # entries[j][i] must equal the reciprocal of entries[i][j]
        mirrored = np.stack(
            [
                1.0 / arr.transpose(1, 0, 2)[:, :, 2],
                1.0 / arr.transpose(1, 0, 2)[:, :, 1],
                1.0 / arr.transpose(1, 0, 2)[:, :, 0],
            ],
            axis=2,
        )
        if np.max(np.abs(arr - mirrored)) > RECIPROCITY_TOL:
            raise ValueError("matrix violates TFN reciprocity across the diagonal")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def fuzzify(comparison, table: ScaleTable | None = None) -> FuzzyComparisonMatrix:
    """Replace each crisp comparison entry by its scale-table TFN.

    Entries at or above 1 use the direct group, entries below 1 the inverse
    group; the diagonal always maps to (1, 1, 1). Entries that are not a
    scale intensity or its reciprocal within 1e-9 raise NonScaleEntry,
    naming the first such entry in row-major order.
    """
    table = table or default_scale_table()
    size = len(table)
    # the diagonal is never matched: pin it to 1 so it indexes a valid row
    entries = np.array(comparison.entries, dtype=float)
    np.fill_diagonal(entries, 1.0)
    inverse = entries < 1.0
    # nearest intensity k, matched against k itself or against 1/k; entries
    # <= 0 are never on the scale and must not warn on the way there
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.divide(1.0, entries, where=inverse, out=entries.copy())
        np.rint(k, out=k)
        target = np.divide(1.0, k, where=inverse, out=k.copy())
    target -= entries
    np.abs(target, out=target)
    on_scale = (k >= 1.0) & (k <= size) & (target <= SCALE_MATCH_TOL)
    if not on_scale.all():
        i, j = np.unravel_index(np.argmin(on_scale), on_scale.shape)
        raise NonScaleEntry(int(i), int(j), float(entries[i, j]))
    # rows 0..size-1 of the stacked table are the direct group, then the
    # inverse group in the same intensity order
    stacked = np.array(
        [real.as_tuple() for _, real, _ in table]
        + [inv.as_tuple() for _, _, inv in table]
    )
    index = k.astype(np.min_scalar_type(2 * size))
    index -= 1
    np.add(index, size, out=index, where=inverse)
    out = stacked[index]
    diagonal = np.arange(len(entries))
    out[diagonal, diagonal] = 1.0
    return FuzzyComparisonMatrix(values=out)
