"""From crisp intensities to fuzzy weights, step by step.

Shows the triangular comparative scale, fuzzifies a small comparison
matrix, sums the rows into synthetic extents, and walks the degree of
possibility calculation that turns extents into a weight vector.
"""

import numpy as np

from fahp import (
    ComparisonMatrix,
    default_scale_table,
    fuzzify,
    min_degrees,
    possibility_matrix,
    synthetic_extents,
    weights,
)

table = default_scale_table()

print("comparative scale (direct group and its reciprocals)")
print(f"  {'k':>2}  {'real':<22} inverse")
for k in range(1, 10):
    real = table.real(k)
    inv = table.inverse(k)
    real_s = f"({real.l:.3f}, {real.m:.3f}, {real.u:.3f})"
    inv_s = f"({inv.l:.3f}, {inv.m:.3f}, {inv.u:.3f})"
    print(f"  {k:>2}  {real_s:<22} {inv_s}")
print()

# A 3 criteria example: the first is strongly preferred to the second
# (intensity 5) and mildly to the third (intensity 3).
crisp = ComparisonMatrix(
    entries=np.array(
        [
            [1.0, 5.0, 3.0],
            [1.0 / 5.0, 1.0, 1.0 / 3.0],
            [1.0 / 3.0, 3.0, 1.0],
        ]
    )
)
# Each fuzzy entry is one row of the scale, held as its code: k - 1 for
# the direct row of intensity k, k + 7 for the inverse row of k >= 2.
fuzzy = fuzzify(crisp)
print("fuzzified entries of row 0")
for j in range(3):
    code = int(fuzzy.codes[0, j])
    print(f"  codes[0, {j}] = {code:2d}  values[0, {j}] = {tuple(fuzzy.values[0, j].tolist())}")
print()

# Row sums divided by the component-reversed grand total give one
# triangular number per criterion, the synthetic extent: one (l, m, u)
# row of an (n, 3) array.
extents = synthetic_extents(fuzzy)
for i, (l, m, u) in enumerate(extents):
    print(f"  S{i} = ({l:.4f}, {m:.4f}, {u:.4f})")
print()

# The degree of possibility V(S_i >= S_k) reads how far extent i
# reaches above extent k; the minimum over k is the raw weight.
print("possibility matrix V(row >= column)")
degree = possibility_matrix(extents)
for i in range(3):
    row = "  ".join(
        f"{degree[i, k]:.4f}" if k != i else "  .   " for k in range(3)
    )
    print(f"  {row}")
print()

degrees = min_degrees(extents)
print("minimum degrees:", np.round(degrees, 4))

w = weights(extents, labels=("price", "comfort", "reach"))
print("normalized weights")
for label, value in zip(w.labels, w.weights):
    print(f"  {label:<8} {value:.4f}")
