"""Walk through the ingestion and normalization stages.

Loads the travel ratings table, peeks at the raw numbers, then shows
what simple additive normalization does to them: every column is divided
by its own maximum, so each criterion peaks at exactly 1 and the columns
become comparable.
"""

import os
from pathlib import Path

import numpy as np

from fahp import column_means, load_csv, normalize


def dataset_path() -> Path:
    # a real copy of the public dataset takes priority when present;
    # otherwise the shipped surrogate with the same layout and means
    root = Path(__file__).resolve().parent.parent
    env = os.environ.get("TRAVEL_REVIEWS_CSV")
    if env:
        return Path(env)
    original = root / "data" / "tripadvisor_review.csv"
    if original.exists():
        return original
    return root / "data" / "travel_reviews_surrogate.csv"


path = dataset_path()
matrix = load_csv(path)
rows, criteria = matrix.values.shape

print(f"loaded {path.name}: {rows} rows x {criteria} criteria")
print()

# Each column is the average user rating (0 to 4) one reviewer gave a
# category of attraction. The first few rows, first few columns:
print("raw ratings (first 4 rows, first 5 criteria)")
for i in range(4):
    cells = "  ".join(f"{v:6.2f}" for v in matrix.values[i, :5])
    print(f"  {matrix.row_ids[i]:<10} {cells}")
print()

# The per-criterion means already tell most of the ranking story.
print("column means")
for label, mu in zip(matrix.criteria, column_means(matrix)):
    print(f"  {label:<24} {mu:.4f}")
print()

norm = normalize(matrix)
print("after normalization every column max is exactly 1:")
print(" ", norm.values.max(axis=0))
print()

# Normalizing twice changes nothing. The maxima of an already
# normalized matrix are all 1, so the second division is by 1.
again = normalize(norm)
print("idempotent:", np.array_equal(again.values, norm.values))
