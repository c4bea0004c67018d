"""Straight-line brute-force reference for the fuzzy weight chain.

Written before the library and kept deliberately dumb: plain lists, plain
loops, one step per statement, and its own copy of the comparative scale
as exact fractions. Nothing here imports the package under test, so a bug
in the library cannot hide in this file.
"""

import math
from fractions import Fraction

# intensity -> (l, m, u) of the direct group; the inverse group is always
# (1/u, 1/m, 1/l) of the same row
SCALE = {
    1: (Fraction(1), Fraction(1), Fraction(1)),
    2: (Fraction(1, 2), Fraction(3, 4), Fraction(1)),
    3: (Fraction(2, 3), Fraction(1), Fraction(3, 2)),
    4: (Fraction(1), Fraction(3, 2), Fraction(2)),
    5: (Fraction(3, 2), Fraction(2), Fraction(5, 2)),
    6: (Fraction(2), Fraction(5, 2), Fraction(3)),
    7: (Fraction(5, 2), Fraction(3), Fraction(7, 2)),
    8: (Fraction(3), Fraction(7, 2), Fraction(4)),
    9: (Fraction(7, 2), Fraction(4), Fraction(9, 2)),
}


def scale_real(intensity):
    l, m, u = SCALE[intensity]
    return (float(l), float(m), float(u))


def scale_inverse(intensity):
    l, m, u = SCALE[intensity]
    return (float(1 / u), float(1 / m), float(1 / l))


def mean_gap(means):
    """Comparison matrix from per-criterion means, as an n x n nested list.

    The larger mean of each pair gets 1 + round-half-up(8 * gap / span),
    kept within 1..9, and the smaller one its reciprocal.
    """
    n = len(means)
    span = max(means) - min(means)
    crisp = [[1.0] * n for _ in range(n)]
    if span == 0:
        return crisp
    for i in range(n):
        for j in range(n):
            gap = means[i] - means[j]
            if gap < 0:
                continue
            s = 1 + math.floor(8.0 * gap / span + 0.5)
            s = min(max(s, 1), 9)
            crisp[i][j] = float(s)
            crisp[j][i] = 1.0 / s
    return crisp


def fuzzify(crisp):
    """crisp: n x n nested list of Saaty intensities or their reciprocals."""
    n = len(crisp)
    fuzzy = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                fuzzy[i][j] = (1.0, 1.0, 1.0)
            elif crisp[i][j] >= 1.0:
                fuzzy[i][j] = scale_real(round(crisp[i][j]))
            else:
                fuzzy[i][j] = scale_inverse(round(1.0 / crisp[i][j]))
    return fuzzy


def synthetic_extents(fuzzy):
    n = len(fuzzy)
    row_sums = []
    for i in range(n):
        l = sum(fuzzy[i][j][0] for j in range(n))
        m = sum(fuzzy[i][j][1] for j in range(n))
        u = sum(fuzzy[i][j][2] for j in range(n))
        row_sums.append((l, m, u))
    total_l = sum(r[0] for r in row_sums)
    total_m = sum(r[1] for r in row_sums)
    total_u = sum(r[2] for r in row_sums)
    return [(r[0] / total_u, r[1] / total_m, r[2] / total_l) for r in row_sums]


def possibility(m2, m1):
    if m2[1] >= m1[1]:
        return 1.0
    if m1[0] >= m2[2]:
        return 0.0
    return (m1[0] - m2[2]) / ((m2[1] - m2[2]) - (m1[1] - m1[0]))


def min_degrees(extents):
    n = len(extents)
    degrees = []
    for i in range(n):
        d = min(possibility(extents[i], extents[k]) for k in range(n) if k != i)
        degrees.append(d)
    return degrees


def weights_from_crisp(crisp):
    """The whole chain: crisp comparison matrix -> normalized weight list."""
    degrees = min_degrees(synthetic_extents(fuzzify(crisp)))
    total = sum(degrees)
    return [d / total for d in degrees]


def column_means(cells):
    rows = len(cells)
    cols = len(cells[0])
    return [sum(cells[r][c] for r in range(rows)) / rows for c in range(cols)]


def scores_from_cells(cells, weight_list):
    """Real-data path scores: per-column mean times the criterion weight."""
    means = column_means(cells)
    return [weight_list[c] * means[c] for c in range(len(means))]
