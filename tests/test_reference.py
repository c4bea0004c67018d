"""The built-in oracle: one sequence per criterion column in, fsum folds out."""

import math

import numpy as np
import pytest

from fahp import reference_scores, reference_weights

# mild preferences, so every criterion keeps a non-zero weight
ENTRIES = [[1.0, 2.0, 3.0], [0.5, 1.0, 2.0], [1.0 / 3.0, 0.5, 1.0]]


@pytest.mark.parametrize("aggregate", ["mean", "sum"])
def test_scores_fold_each_column(aggregate):
    values = np.random.default_rng(5).uniform(0.0, 4.0, size=(7, 3))
    columns = values.T.tolist()
    w = reference_weights(ENTRIES)
    assert all(w)
    expected = []
    for c, column in enumerate(columns):
        total = math.fsum(column)
        expected.append(w[c] * (total / 7 if aggregate == "mean" else total))
    scores = reference_scores(columns, ENTRIES, aggregate=aggregate)
    assert np.array(scores).tobytes() == np.array(expected).tobytes()
    # the pipeline hands over read-only column views of the rating matrix
    views = [memoryview(column) for column in values.T]
    assert reference_scores(views, ENTRIES, aggregate=aggregate) == scores
