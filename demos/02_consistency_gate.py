"""The Saaty consistency gate, accepted and rejected.

Derives a pairwise comparison matrix from the dataset's column means,
estimates its principal eigenvalue by power iteration, and evaluates the
consistency ratio. A matrix with circular preferences is then pushed
through the same check to show a rejection. The compatibility mode with
its forced principal value of 1 comes last.
"""

import os
from pathlib import Path

import numpy as np

from fahp import (
    CR_LIMIT,
    ComparisonMatrix,
    build_comparison,
    check,
    column_means,
    lambda_max,
    load_csv,
)


def dataset_path() -> Path:
    root = Path(__file__).resolve().parent.parent
    env = os.environ.get("TRAVEL_REVIEWS_CSV")
    if env:
        return Path(env)
    original = root / "data" / "tripadvisor_review.csv"
    if original.exists():
        return original
    return root / "data" / "travel_reviews_surrogate.csv"


matrix = load_csv(dataset_path())
means = column_means(matrix)

# The mean_gap rule bins each pairwise mean difference onto the 1..9
# intensity ladder. Wide gaps become strong preferences.
comparison = build_comparison(means, rule="mean_gap")
print("comparison entries between the top two and bottom criteria")
order = np.argsort(means)
lo, hi = order[0], order[-1]
print(f"  {matrix.criteria[hi]} vs {matrix.criteria[lo]}: "
      f"{comparison.entries[hi, lo]:.0f}")
print(f"  {matrix.criteria[lo]} vs {matrix.criteria[hi]}: "
      f"{comparison.entries[lo, hi]:.4f}")
print()

t = lambda_max(comparison)
report = check(comparison)
print(f"principal eigenvalue: {t:.6f} (n = {comparison.n})")
print(f"CI = {report.ci:.4f}, IR = {report.ir}, CR = {report.cr:.4f}")
print(f"accepted (CR <= {CR_LIMIT}):", report.accepted)
print()

# A three-way cycle (A beats B, B beats C, C beats A, all strongly) is
# the canonical inconsistent judgment. The gate should slam shut.
cycle = ComparisonMatrix(
    entries=np.array(
        [
            [1.0, 9.0, 1.0 / 9.0],
            [1.0 / 9.0, 1.0, 9.0],
            [9.0, 1.0 / 9.0, 1.0],
        ]
    )
)
rejected = check(cycle)
print(f"circular judgments: CR = {rejected.cr:.2f}, accepted = {rejected.accepted}")
print()

# The compatibility mode reproduces a published diagnostic row: the
# principal value is pinned to 1 and the random index constant is 180,
# which drives CI to -1 and CR slightly below zero. The report keeps
# warnings about both oddities.
compat = check(comparison, ir_mode="paper_compat")
print(f"compat mode: CI = {compat.ci}, CR = {compat.cr:.4f}, "
      f"accepted = {compat.accepted}")
for note in compat.warnings:
    print(f"  warning: {note}")
