"""Triangular fuzzy numbers and the comparative scale.

A triangular fuzzy number (TFN) is a triple (l, m, u) with l <= m <= u:
membership rises linearly from 0 at l to 1 at m and falls back to 0 at u.
The one comparative scale maps each Saaty intensity 1..9 to a TFN pair:
the direct ("real") group used when a criterion dominates, and the inverse
group, always the reciprocal (1/u, 1/m, 1/l) of the direct row. Both are
module constants, built once at import.

A comparison matrix on the scale is held as an n x n matrix of scale-row
codes: code k - 1 is the direct row of intensity k and code k + 7 the
inverse row of k >= 2, so every entry is one of the 17 rows of ROW_TABLE.
Intensity 1 has one code, 0: its inverse row is the same (1, 1, 1).
Reciprocity is then an integer identity on the codes. The codes carry
both readings of the matrix, gathered only when something reads them:
the crisp entry each stands for, k or 1.0 / k, from CRISP, and its fuzzy
row from ROW_TABLE.
"""

from __future__ import annotations

import numpy as np

from .errors import NonPositiveSupport, NonScaleEntry, UnknownIntensity
from .record import Record, frozen

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

# the direct and the inverse TFN of each intensity, in intensity order
_REAL = tuple(Tfn(*(p / q for p, q in row)) for row in _DIRECT_ROWS)
_INVERSE = tuple(Tfn(*(q / p for p, q in reversed(row))) for row in _DIRECT_ROWS)

# Read-only (17, 3) array that scale-row codes index: the direct rows of
# intensity 1..9, then the inverse rows of intensity 2..9.
ROW_TABLE = np.array([tfn.as_tuple() for tfn in _REAL + _INVERSE[1:]])
ROW_TABLE.setflags(write=False)

# Read-only map from the code of an entry to the code its transposed entry
# must have: just-equal, code 0, is its own mirror, and direct intensity
# k >= 2 and its inverse swap.
MIRROR = np.array([0, *range(9, 17), *range(1, 9)], dtype=np.uint8)
MIRROR.setflags(write=False)

# Read-only map from a code to its crisp comparison entry: intensity k
# itself, then the correctly rounded 1.0 / k of intensity 2..9.
CRISP = np.array([*range(1, 10), *(1.0 / k for k in range(2, 10))], dtype=float)
CRISP.setflags(write=False)


def _row(intensity: int) -> int:
    if not 1 <= intensity <= len(_REAL):
        raise UnknownIntensity(intensity)
    return intensity - 1


class _Scale:
    """The comparative scale looked up by Saaty intensity 1..9."""

    def real(self, intensity: int) -> Tfn:
        """The direct TFN, used where a criterion dominates."""
        return _REAL[_row(intensity)]

    def inverse(self, intensity: int) -> Tfn:
        """The reciprocal (1/u, 1/m, 1/l) of the direct TFN."""
        return _INVERSE[_row(intensity)]


_SCALE = _Scale()


def default_scale_table() -> _Scale:
    """The one comparative scale that every run uses."""
    return _SCALE


class FuzzyComparisonMatrix(Record):
    """n x n reciprocal comparison matrix on the scale, held as codes.

    codes index the rows of CRISP and ROW_TABLE (see the module docstring)
    and are kept as a read-only uint8 array once codes.T == MIRROR[codes];
    that one check also pins every diagonal code to 0, the only code that
    is its own mirror. A read-only uint8 array that owns its data is taken
    as is; any other is copied first.

    Codes that pass give crisp entries that pass every float check of a
    ComparisonMatrix (each CRISP value is finite, in [1/9, 9], exactly 1
    at code 0, and times its mirror's value within 1e-12 of 1) and fuzzy
    entries that are finite, ordered, positive, reciprocal TFNs. Where two
    codes share a row the check is stricter than a float one: 3 at both
    (i, j) and (j, i) is refused, although (2/3, 1, 3/2) is its own
    reciprocal.

    entries, the crisp (n, n) floats, and values, the (n, n, 3) floats
    ordered (l, m, u), are gathered on each access, not stored.
    """

    codes: np.ndarray

    def __post_init__(self):
        codes = np.asarray(self.codes)
        if codes.ndim != 2 or codes.shape[0] != codes.shape[1] or codes.size == 0:
            raise ValueError(f"expected a non-empty (n, n) code matrix, got {codes.shape}")
        if codes.dtype.kind not in "iu":
            raise ValueError(f"codes must be integers, got {codes.dtype}")
        if codes.min() < 0 or codes.max() >= len(MIRROR):
            raise ValueError(f"codes must lie in 0..{len(MIRROR) - 1}")
        codes = frozen(codes.astype(MIRROR.dtype, copy=False))
        mirrored = MIRROR.take(codes)
        if not np.array_equal(codes.T, mirrored):
            i, j = np.argwhere(codes.T != mirrored)[0]
            raise ValueError(
                f"codes violate reciprocity at ({i}, {j}): code {codes[i, j]} "
                f"needs {mirrored[i, j]} at ({j}, {i}), found {codes[j, i]}"
            )
        object.__setattr__(self, "codes", codes)

    @property
    def n(self) -> int:
        return self.codes.shape[0]

    @property
    def entries(self) -> np.ndarray:
        """The crisp entries, k or 1.0 / k, read-only, gathered on each call."""
        entries = CRISP[self.codes]
        entries.setflags(write=False)
        return entries

    @property
    def values(self) -> np.ndarray:
        """The entries as an (n, n, 3) float array, gathered on each call."""
        return ROW_TABLE[self.codes]


def fuzzify(comparison) -> FuzzyComparisonMatrix:
    """The comparison matrix as the codes of its scale rows.

    A FuzzyComparisonMatrix, which build_comparison returns, is returned
    as it is. The floats of any other matrix, a ComparisonMatrix, are
    matched by _match_codes.
    """
    if isinstance(comparison, FuzzyComparisonMatrix):
        return comparison
    return FuzzyComparisonMatrix(codes=_match_codes(comparison.entries))


def _match_codes(crisp) -> np.ndarray:
    """The code of each crisp entry's scale row.

    Entries above 1 use the direct group, entries below 1 the inverse
    group; 1 itself, its near misses and the diagonal use the direct
    (1, 1, 1) row. Entries that are not a scale intensity or its
    reciprocal within 1e-9 raise NonScaleEntry, naming the first such
    entry in row-major order.
    """
    size = len(_REAL)
    # the diagonal is never matched: pin it to 1 so it indexes a valid row
    entries = np.array(crisp, dtype=float)
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
    # codes 0..size-1 are the direct group, then the inverse group of
    # intensity 2..size; an inverse match of intensity 1 keeps code 0
    codes = k.astype(MIRROR.dtype)
    codes -= 1
    np.add(codes, size - 1, out=codes, where=inverse & (codes > 0))
    return codes
