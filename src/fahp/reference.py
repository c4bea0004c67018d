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
the same float. The cells that hold one value are counted as a run of a
sorted copy of the row, and the degree loop scans the extents sorted by
modal value; both use only the standard library's `bisect`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Sequence

from .errors import NonScaleEntry
from .tfn import default_scale_table

_MATCH_TOL = 1e-9

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


def _first_off_scale(row: Sequence[float], i: int) -> NonScaleEntry:
    """The error a per-cell loop over row i raises: its first off-scale
    entry, named with its own column and bits (a run of the sorted row
    holds -0.0 and 0.0 together, in either order)."""
    for j, value in enumerate(row):
        if j != i and _match(float(value)) is None:
            return NonScaleEntry(i, j, float(value))
    raise AssertionError(f"row {i} holds no off-scale entry")


def reference_weights(comparison_entries: Sequence[Sequence[float]]) -> list[float]:
    """Crisp comparison matrix to normalized weights, one loop at a time.

    Each row's off-diagonal entries are sorted, and each run of equal
    entries is measured with `bisect_right` and looked up in the scale
    once per call. A row holding a NaN is refused before the sort, since
    a NaN breaks the order and could hide inside a run. A row sum is the
    exact integer sum of run length times numerator, divided once by the
    scale's denominator: bit-equal to `math.fsum` over the row's cells. A
    failed lookup names the first off-scale entry in row-major order, as
    a plain loop would.

    The degree loop sorts the extents by modal value once. For extent i,
    `bisect_right` gives the suffix with m_k > m_i; every other pair has
    V = 1. When the largest lower bound in that suffix reaches u_i, some
    pair is disjoint and the degree is 0. Otherwise V is computed for each
    pair of the suffix: the same values a loop over every k takes the
    minimum of, and min does not depend on their order.
    """
    n = len(comparison_entries)

    matched: dict = {}
    row_sums = []
    for i in range(n):
        row = comparison_entries[i]
        # plain floats in a new list: on numpy scalars the sum below is
        # numpy's, which warns on +inf + -inf
        entries = row.tolist() if hasattr(row, "tolist") else list(row)
        del entries[i]
        # NaN != NaN: a NaN, or +inf and -inf together, make the sum NaN;
        # either is off the scale
        total = sum(entries)
        if total != total:
            raise _first_off_scale(row, i)
        entries.sort()
        # the diagonal is (1, 1, 1): _DEN over _DEN
        l = m = u = _DEN
        start = 0
        while start < len(entries):
            value = entries[start]
            end = bisect_right(entries, value, start)
            exact = matched.get(value)
            if exact is None:
                exact = _match(float(value))
                if exact is None:
                    raise _first_off_scale(row, i)
                matched[value] = exact
            count = end - start
            l += count * exact[0]
            m += count * exact[1]
            u += count * exact[2]
            start = end
        row_sums.append((l / _DEN, m / _DEN, u / _DEN))
    total_l, total_m, total_u = map(math.fsum, zip(*row_sums))
    extents = [(l / total_u, m / total_m, u / total_l) for l, m, u in row_sums]

    by_modal = sorted(extents, key=lambda extent: extent[1])
    modals = [m for _, m, _ in by_modal]
    # top_lower[s]: the largest lower bound among by_modal[s:]
    top_lower = [-math.inf] * (n + 1)
    for s in range(n - 1, -1, -1):
        top_lower[s] = max(top_lower[s + 1], by_modal[s][0])

    degrees = []
    for l_i, m_i, u_i in extents:
        # V(S_i >= S_k) = 1 when m_k <= m_i, k == i included; the rest
        # have m_k > m_i and start here
        start = bisect_right(modals, m_i)
        if top_lower[start] >= u_i:
            # a disjoint pair: V = 0, the least a degree can be
            degrees.append(0.0)
            continue
        best = 1.0
        for l_k, m_k, _ in by_modal[start:]:
            v = (l_k - u_i) / ((m_i - u_i) - (m_k - l_k))
            if v < best:
                best = v
        degrees.append(best)

    total = math.fsum(degrees)
    return [d / total for d in degrees]


def reference_scores(
    cells: Sequence[Sequence[float]],
    comparison_entries: Sequence[Sequence[float]],
) -> list[float]:
    """Independent score vector: recomputed weights times column means, each
    mean the correctly rounded sum over the column length; cells holds one
    sequence of floats per criterion column, not per row.

    A criterion whose recomputed weight is exactly 0.0 scores 0.0 and its
    column is never read: 0.0 times the mean of finite ratings in [0, 4]
    is 0.0, so the score never depended on those cells. (A non-finite cell
    in such a column, which no RatingMatrix holds, no longer turns the
    score into NaN.)"""
    w = reference_weights(comparison_entries)
    scores = []
    for c, column in enumerate(cells):
        if w[c] == 0.0:
            scores.append(0.0)
            continue
        scores.append(w[c] * (math.fsum(column) / len(column)))
    return scores
