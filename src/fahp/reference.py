"""Straight-line recomputation used by the validation stage.

This is the second route behind the report's MSE figure. It shares the
scale table as data but none of the vectorized code: plain lists, explicit
loops and exact integer sums, so a defect in the main path is unlikely to
be mirrored here.

Every scale bound is a finite float, so a dyadic rational: over the
table's largest denominator each bound is an integer numerator. A row sum
is the integer sum of those numerators, each times the number of cells
that hold it, divided once by the denominator. Python's int / int is
correctly rounded, as `math.fsum` of the same terms is, so the two give
the same float.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

from .errors import NonScaleEntry
from .tfn import ScaleTable, default_scale_table

_MATCH_TOL = 1e-9

_AGGREGATES = ("mean", "sum")

# (table, den, numerators) of the last table seen, checked by identity so
# the default table's are built once, not on every call; tables are frozen
_last_exact: tuple = (None, 1, {})


def _match(value: float, table: ScaleTable) -> tuple[float, float, float] | None:
    # an infinite entry, or a reciprocal that overflows, is never on the
    # scale: test before round(), which cannot take an infinity
    if value >= 1.0:
        if value != math.inf:
            k = round(value)
            if 1 <= k <= len(table) and abs(value - k) <= _MATCH_TOL:
                return table.real(k).as_tuple()
    elif value > 0.0:
        inverse = 1.0 / value
        if inverse != math.inf:
            k = round(inverse)
            if 1 <= k <= len(table) and abs(value - 1.0 / k) <= _MATCH_TOL:
                return table.inverse(k).as_tuple()
    return None


def _exact_bounds(table: ScaleTable) -> tuple[int, dict]:
    """The table's common denominator `den`, and each scale row's (l, m, u)
    mapped to its bounds as integer numerators over `den`."""
    global _last_exact
    last, den, numerators = _last_exact
    if last is table:
        return den, numerators
    ratios = {
        tfn.as_tuple(): [x.as_integer_ratio() for x in tfn.as_tuple()]
        for _, real, inverse in table
        for tfn in (real, inverse)
    }
    # every denominator is a power of two, so the largest is their lcm
    den = max(q for pairs in ratios.values() for _, q in pairs)
    numerators = {
        row: tuple(p * (den // q) for p, q in pairs) for row, pairs in ratios.items()
    }
    _last_exact = (table, den, numerators)
    return den, numerators


def _first_off_scale(row: list, i: int, table: ScaleTable) -> NonScaleEntry:
    """The error a per-cell loop over row i raises: its first off-scale
    entry, named with its own column and bits (a row's counts hold -0.0
    and 0.0 under one key, and may hold the diagonal's value)."""
    for j, value in enumerate(row):
        if j != i and _match(float(value), table) is None:
            return NonScaleEntry(i, j, float(value))
    raise AssertionError(f"row {i} holds no off-scale entry")


def reference_weights(
    comparison_entries: Sequence[Sequence[float]],
    table: ScaleTable | None = None,
) -> list[float]:
    """Crisp comparison matrix to normalized weights, one loop at a time.

    Each row's off-diagonal entries are counted, and each distinct entry
    is looked up in the scale table once per call. A row sum is the exact
    integer sum of count times numerator, divided once by the table's
    denominator: bit-equal to `math.fsum` over the row's cells. A failed
    lookup names the first off-scale entry in row-major order, as a plain
    loop would. The degree loop skips pairs with V = 1 and stops at the
    first disjoint pair, where V = 0.
    """
    table = table or default_scale_table()
    den, numerators = _exact_bounds(table)
    n = len(comparison_entries)

    matched: dict = {}
    row_sums = []
    for i in range(n):
        row = list(comparison_entries[i])
        counts = Counter(row)
        # the very object at (i, i), so a NaN diagonal is taken off too
        counts[row[i]] -= 1
        # the diagonal is (1, 1, 1): den over den
        l = m = u = den
        for value, count in counts.items():
            if not count:
                continue
            exact = matched.get(value)
            if exact is None:
                tfn = _match(float(value), table)
                if tfn is None:
                    raise _first_off_scale(row, i, table)
                exact = matched[value] = numerators[tfn]
            l += count * exact[0]
            m += count * exact[1]
            u += count * exact[2]
        row_sums.append((l / den, m / den, u / den))
    total_l, total_m, total_u = map(math.fsum, zip(*row_sums))
    extents = [(l / total_u, m / total_m, u / total_l) for l, m, u in row_sums]

    degrees = []
    for l_i, m_i, u_i in extents:
        best = 1.0
        for l_k, m_k, u_k in extents:
            # V(S_i >= S_k) = 1 cannot lower the minimum; k == i lands here
            if m_i >= m_k:
                continue
            if l_k >= u_i:
                # disjoint: V = 0, the least a degree can be
                best = 0.0
                break
            v = (l_k - u_i) / ((m_i - u_i) - (m_k - l_k))
            if v < best:
                best = v
        degrees.append(best)

    total = math.fsum(degrees)
    return [d / total for d in degrees]


def reference_scores(
    cells: Sequence[Sequence[float]],
    comparison_entries: Sequence[Sequence[float]],
    table: ScaleTable | None = None,
    aggregate: str = "mean",
) -> list[float]:
    """Independent score vector: recomputed weights times column folds;
    cells holds one sequence of floats per criterion column, not per row.

    A criterion whose recomputed weight is exactly 0.0 scores 0.0 and its
    column is never read: 0.0 times the fold of finite ratings in [0, 4]
    is 0.0, so the score never depended on those cells. (A non-finite cell
    in such a column, which no RatingMatrix holds, no longer turns the
    score into NaN.)"""
    if aggregate not in _AGGREGATES:
        raise ValueError(f"aggregate must be one of {_AGGREGATES}, got {aggregate!r}")
    w = reference_weights(comparison_entries, table)
    scores = []
    for c, column in enumerate(cells):
        if w[c] == 0.0:
            scores.append(0.0)
            continue
        total = math.fsum(column)
        scores.append(w[c] * (total / len(column) if aggregate == "mean" else total))
    return scores
