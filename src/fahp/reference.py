"""Straight-line recomputation used by the validation stage.

This is the second route behind the report's MSE figure. It reads the
comparative scale as data but shares none of the vectorized code: plain
lists, explicit loops and exact integer sums, so a defect in the main path
is unlikely to be mirrored here.

Every scale bound is a finite float, so a dyadic rational: over the
scale's largest denominator each bound is an integer numerator. A row sum
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
from .tfn import default_scale_table

_MATCH_TOL = 1e-9

_AGGREGATES = ("mean", "sum")

# (intensity, is_inverse) -> the scale row's (l, m, u) as integer ratios,
# for Saaty's intensities 1..9
_SCALE = default_scale_table()
_RATIOS = {
    (k, is_inverse): [x.as_integer_ratio() for x in tfn.as_tuple()]
    for k in range(1, 10)
    for is_inverse, tfn in ((False, _SCALE.real(k)), (True, _SCALE.inverse(k)))
}
# every denominator is a power of two, so the largest is their lcm
_DEN = max(q for ratios in _RATIOS.values() for _, q in ratios)
# the same keys -> the row's bounds as integer numerators over _DEN
_NUMERATORS = {
    key: tuple(p * (_DEN // q) for p, q in ratios) for key, ratios in _RATIOS.items()
}


def _match(value: float) -> tuple[int, int, int] | None:
    """The numerators of the scale row value stands for; None off the scale."""
    # an infinite entry, or a reciprocal that overflows, is never on the
    # scale: test before round(), which cannot take an infinity
    if value >= 1.0:
        if value != math.inf:
            k = round(value)
            if abs(value - k) <= _MATCH_TOL:
                return _NUMERATORS.get((k, False))
    elif value > 0.0:
        inverse = 1.0 / value
        if inverse != math.inf:
            k = round(inverse)
            if abs(value - 1.0 / k) <= _MATCH_TOL:
                return _NUMERATORS.get((k, True))
    return None


def _first_off_scale(row: list, i: int) -> NonScaleEntry:
    """The error a per-cell loop over row i raises: its first off-scale
    entry, named with its own column and bits (a row's counts hold -0.0
    and 0.0 under one key, and may hold the diagonal's value)."""
    for j, value in enumerate(row):
        if j != i and _match(float(value)) is None:
            return NonScaleEntry(i, j, float(value))
    raise AssertionError(f"row {i} holds no off-scale entry")


def reference_weights(comparison_entries: Sequence[Sequence[float]]) -> list[float]:
    """Crisp comparison matrix to normalized weights, one loop at a time.

    Each row's off-diagonal entries are counted, and each distinct entry
    is looked up in the scale once per call. A row sum is the exact
    integer sum of count times numerator, divided once by the scale's
    denominator: bit-equal to `math.fsum` over the row's cells. A failed
    lookup names the first off-scale entry in row-major order, as a plain
    loop would. The degree loop skips pairs with V = 1 and stops at the
    first disjoint pair, where V = 0.
    """
    n = len(comparison_entries)

    matched: dict = {}
    row_sums = []
    for i in range(n):
        row = list(comparison_entries[i])
        counts = Counter(row)
        # the very object at (i, i), so a NaN diagonal is taken off too
        counts[row[i]] -= 1
        # the diagonal is (1, 1, 1): _DEN over _DEN
        l = m = u = _DEN
        for value, count in counts.items():
            if not count:
                continue
            exact = matched.get(value)
            if exact is None:
                exact = _match(float(value))
                if exact is None:
                    raise _first_off_scale(row, i)
                matched[value] = exact
            l += count * exact[0]
            m += count * exact[1]
            u += count * exact[2]
        row_sums.append((l / _DEN, m / _DEN, u / _DEN))
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
    w = reference_weights(comparison_entries)
    scores = []
    for c, column in enumerate(cells):
        if w[c] == 0.0:
            scores.append(0.0)
            continue
        total = math.fsum(column)
        scores.append(w[c] * (total / len(column) if aggregate == "mean" else total))
    return scores
