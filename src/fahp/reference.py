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


def _lookup(value: float, table: ScaleTable, i: int, j: int) -> tuple[float, float, float]:
    if value >= 1.0:
        k = int(round(value))
        if 1 <= k <= len(table) and abs(value - k) <= _MATCH_TOL:
            return table.real(k).as_tuple()
        raise NonScaleEntry(i, j, value)
    if value > 0.0:
        k = int(round(1.0 / value))
        if 1 <= k <= len(table) and abs(value - 1.0 / k) <= _MATCH_TOL:
            return table.inverse(k).as_tuple()
    raise NonScaleEntry(i, j, value)


def reference_weights(
    comparison_entries: Sequence[Sequence[float]],
    table: ScaleTable | None = None,
) -> list[float]:
    """Crisp comparison matrix to normalized weights, one loop at a time."""
    table = table or default_scale_table()
    n = len(comparison_entries)

    fuzzy: list[list[tuple[float, float, float]]] = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append((1.0, 1.0, 1.0))
            else:
                row.append(_lookup(float(comparison_entries[i][j]), table, i, j))
        fuzzy.append(row)

    row_sums = []
    for i in range(n):
        l = math.fsum(fuzzy[i][j][0] for j in range(n))
        m = math.fsum(fuzzy[i][j][1] for j in range(n))
        u = math.fsum(fuzzy[i][j][2] for j in range(n))
        row_sums.append((l, m, u))
    total_l = math.fsum(r[0] for r in row_sums)
    total_m = math.fsum(r[1] for r in row_sums)
    total_u = math.fsum(r[2] for r in row_sums)
    extents = [
        (r[0] / total_u, r[1] / total_m, r[2] / total_l) for r in row_sums
    ]

    degrees = []
    for i in range(n):
        best = 1.0
        for k in range(n):
            if k == i:
                continue
            s_i, s_k = extents[i], extents[k]
            if s_i[1] >= s_k[1]:
                v = 1.0
            elif s_k[0] >= s_i[2]:
                v = 0.0
            else:
                v = (s_k[0] - s_i[2]) / ((s_i[1] - s_i[2]) - (s_k[1] - s_k[0]))
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
