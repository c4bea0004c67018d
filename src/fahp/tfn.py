"""Triangular fuzzy numbers and the comparative scale.

A triangular fuzzy number (TFN) is a triple (l, m, u) with l <= m <= u:
membership rises linearly from 0 at l to 1 at m and falls back to 0 at u.
The scale table maps each Saaty intensity 1..9 to a TFN pair: the direct
("real") group used when a criterion dominates, and the inverse group,
always the reciprocal (1/u, 1/m, 1/l) of the direct row.

A fuzzified comparison matrix is held as an n x n matrix of scale-row
codes: code k - 1 is the direct row of intensity k and code size + k - 1
its inverse row, so every entry is one of the table's 2 * size rows.
Reciprocity is then an integer identity on the codes, and the (n, n, 3)
float form is only gathered when something prints it.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import NonPositiveSupport, NonScaleEntry, UnknownIntensity
from .record import Record

# how close a crisp entry must be to an intensity or its reciprocal
SCALE_MATCH_TOL = 1e-9


class Tfn(Record):
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


# Direct-group rows as (numerator, denominator) pairs, intensity 1..9 in
# order; int / int is correctly rounded, so each bound is the float nearest
# its fraction. Inverse rows are always derived as (1/u, 1/m, 1/l) so the
# two groups stay mutually reciprocal; no inverse row is stored on its own.
_DIRECT_ROWS = (
    ((1, 1), (1, 1), (1, 1)),
    ((1, 2), (3, 4), (1, 1)),
    ((2, 3), (1, 1), (3, 2)),
    ((1, 1), (3, 2), (2, 1)),
    ((3, 2), (2, 1), (5, 2)),
    ((2, 1), (5, 2), (3, 1)),
    ((5, 2), (3, 1), (7, 2)),
    ((3, 1), (7, 2), (4, 1)),
    ((7, 2), (4, 1), (9, 2)),
)


class ScaleTable(Record):
    """Intensity (1..len) to (direct TFN, inverse TFN) lookup.

    The table is plain data so alternative fuzzifications of the Saaty
    scale can be swapped in; the default divides the pairs of `_DIRECT_ROWS`.
    """

    rows: tuple[tuple[Tfn, Tfn], ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("scale table has no rows")
        # the diagonal of every fuzzy matrix is the intensity-1 direct row
        if self.rows[0][0].as_tuple() != (1.0, 1.0, 1.0):
            raise ValueError("intensity 1: the direct row must be (1, 1, 1)")
        prev_m = None
        for k, (real, inverse) in enumerate(self.rows, start=1):
            if real.l <= 0 or inverse.l <= 0:
                raise ValueError(f"intensity {k}: scale TFNs need l > 0")
            # the loop oracle sums the bounds exactly as integer ratios
            if not np.isfinite(real.as_tuple() + inverse.as_tuple()).all():
                raise ValueError(f"intensity {k}: scale TFNs need finite bounds")
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

    @cached_property
    def row_table(self) -> np.ndarray:
        """Read-only (2 * len, 3) array that scale-row codes index: the
        direct rows of intensity 1..len, then the inverse rows in the
        same order."""
        table = np.array(
            [real.as_tuple() for real, _ in self.rows]
            + [inverse.as_tuple() for _, inverse in self.rows]
        )
        table.setflags(write=False)
        return table

    @cached_property
    def mirror(self) -> np.ndarray:
        """Read-only map from the code of an entry to the code its
        transposed entry must have. Direct intensity k >= 2 and its
        inverse swap. Just-equal is always the direct code 0, its own
        mirror; the inverse code of intensity 1, never emitted, maps to 0
        too, so no matrix that holds it passes the check."""
        size = len(self.rows)
        codes = np.arange(2 * size, dtype=self.code_dtype)
        mirror = np.concatenate([codes[size:], codes[:size]])
        mirror[0] = 0
        mirror.setflags(write=False)
        return mirror

    @property
    def code_dtype(self) -> np.dtype:
        """Smallest unsigned integer type that holds every row code."""
        return np.min_scalar_type(2 * len(self.rows) - 1)

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
            real = Tfn(l[0] / l[1], m[0] / m[1], u[0] / u[1])
            inverse = Tfn(u[1] / u[0], m[1] / m[0], l[1] / l[0])
            rows.append((real, inverse))
        return cls(rows=tuple(rows))


_DEFAULT_TABLE: ScaleTable | None = None


def default_scale_table() -> ScaleTable:
    global _DEFAULT_TABLE
    if _DEFAULT_TABLE is None:
        _DEFAULT_TABLE = ScaleTable.default()
    return _DEFAULT_TABLE


class FuzzyComparisonMatrix(Record):
    """n x n matrix of TFNs, reciprocal across the diagonal, held as codes.

    codes index the rows of table.row_table (see the module docstring).
    The one check, codes.T == table.mirror[codes] over the whole matrix,
    also pins every diagonal code to 0, the (1, 1, 1) row, and refuses
    the inverse code of intensity 1, which fuzzify never emits: 0 is the
    only code that is its own mirror. ScaleTable holds every row to be a
    TFN with l > 0 and every inverse row to be the reciprocal of its
    direct row, so codes that pass give finite, ordered, positive,
    reciprocal floats. Where two codes share a row the check is stricter
    than a float one: 3 at both (i, j) and (j, i) is refused, although
    (2/3, 1, 3/2) is its own reciprocal.

    values, the (n, n, 3) floats with the last axis ordered (l, m, u), is
    a gather on each access, not stored: only the fuzzy dump and the demos
    read it, and synthetic_extents folds the codes.
    """

    codes: np.ndarray
    table: ScaleTable

    def __post_init__(self):
        codes = np.asarray(self.codes)
        if codes.ndim != 2 or codes.shape[0] != codes.shape[1] or codes.size == 0:
            raise ValueError(f"expected a non-empty (n, n) code matrix, got {codes.shape}")
        if codes.dtype.kind not in "iu":
            raise ValueError(f"codes must be integers, got {codes.dtype}")
        size = len(self.table)
        if codes.min() < 0 or codes.max() >= 2 * size:
            raise ValueError(f"codes must lie in 0..{2 * size - 1}")
        codes = codes.astype(self.table.code_dtype)
        mirrored = self.table.mirror[codes]
        if not np.array_equal(codes.T, mirrored):
            i, j = np.argwhere(codes.T != mirrored)[0]
            raise ValueError(
                f"codes violate reciprocity at ({i}, {j}): code {codes[i, j]} "
                f"needs {mirrored[i, j]} at ({j}, {i}), found {codes[j, i]}"
            )
        codes.setflags(write=False)
        object.__setattr__(self, "codes", codes)

    @property
    def n(self) -> int:
        return self.codes.shape[0]

    @property
    def values(self) -> np.ndarray:
        """The entries as an (n, n, 3) float array, gathered on each call."""
        return self.table.row_table[self.codes]


def fuzzify(comparison, table: ScaleTable | None = None) -> FuzzyComparisonMatrix:
    """Replace each crisp comparison entry by the code of its scale row.

    Entries above 1 use the direct group, entries below 1 the inverse
    group; 1 itself, its near misses and the diagonal use the direct
    (1, 1, 1) row. Entries that are not a scale intensity or its
    reciprocal within 1e-9 raise NonScaleEntry, naming the first such
    entry in row-major order.
    """
    table = table or default_scale_table()
    size = len(table)
    # the diagonal is never matched: pin it to 1 so it indexes a valid row
    entries = np.array(comparison.entries, dtype=float)
    np.fill_diagonal(entries, 1.0)
    inverse = entries < 1.0
    # nearest intensity k, matched against k itself or against 1/k; entries
    # <= 0, infinite ones and those whose reciprocal overflows are never on
    # the scale and must not warn on the way there
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        k = np.divide(1.0, entries, where=inverse, out=entries.copy())
        np.rint(k, out=k)
        target = np.divide(1.0, k, where=inverse, out=k.copy())
        target -= entries
    np.abs(target, out=target)
    on_scale = (k >= 1.0) & (k <= size) & (target <= SCALE_MATCH_TOL)
    if not on_scale.all():
        i, j = np.unravel_index(np.argmin(on_scale), on_scale.shape)
        raise NonScaleEntry(int(i), int(j), float(entries[i, j]))
    # codes 0..size-1 are the direct group, then the inverse group in the
    # same intensity order; an inverse match of intensity 1 keeps code 0
    codes = k.astype(table.code_dtype)
    codes -= 1
    np.add(codes, size, out=codes, where=inverse & (codes > 0))
    return FuzzyComparisonMatrix(codes=codes, table=table)
