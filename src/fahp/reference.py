"""Straight-line recomputation used by the validation stage.

This is the second route behind the report's MSE figure. It shares the
scale table as data but none of the vectorized code: plain lists, explicit
loops, and fsum accumulation, so a defect in the main path is unlikely to
be mirrored here.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import NonScaleEntry
from .tfn import ScaleTable, default_scale_table

_MATCH_TOL = 1e-9

_DIAGONAL = (1.0, 1.0, 1.0)


def _lookup(value: float, table: ScaleTable, i: int, j: int) -> tuple[float, float, float]:
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
    raise NonScaleEntry(i, j, value)


def reference_weights(
    comparison_entries: Sequence[Sequence[float]],
    table: ScaleTable | None = None,
) -> list[float]:
    """Crisp comparison matrix to normalized weights, one loop at a time.

    Each distinct entry is looked up in the scale table once per call;
    only matches are remembered, so the first off-scale entry in
    row-major order raises NonScaleEntry as a plain loop would.
    """
    table = table or default_scale_table()
    n = len(comparison_entries)

    matched: dict = {}
    row_sums = []
    for i in range(n):
        row = comparison_entries[i]
        tfns = []
        for j in range(n):
            if j == i:
                tfns.append(_DIAGONAL)
                continue
            value = row[j]
            tfn = matched.get(value)
            if tfn is None:
                tfn = matched[value] = _lookup(float(value), table, i, j)
            tfns.append(tfn)
        row_sums.append(tuple(map(math.fsum, zip(*tfns))))
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
                v = 0.0
            else:
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
    cells holds one sequence of floats per criterion column, not per row."""
    w = reference_weights(comparison_entries, table)
    folded = []
    for column in cells:
        total = math.fsum(column)
        folded.append(total / len(column) if aggregate == "mean" else total)
    return [w[c] * folded[c] for c in range(len(cells))]
