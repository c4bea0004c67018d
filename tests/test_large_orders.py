"""The comparison, power-iteration, fuzzify and extent kernels, and the
built-in loop oracle, at large n.

The acceptance oracle check stops at six criteria; these cover the sizes
wide inputs reach, with distinct means and with heavily tied ones.
"""

import numpy as np
import pytest

import oracle
from fahp import (
    build_comparison,
    fuzzify,
    lambda_max,
    reference_weights,
    synthetic_extents,
    weights,
)
from test_reference import loop_reference_weights


def draw_means(seed, n, tied):
    rng = np.random.default_rng(seed)
    means = rng.uniform(0.0, 5.0, size=n)
    if tied:
        # about 50 distinct values, so most criteria share their mean
        means = np.round(means, 1)
    return [float(m) for m in means]


@pytest.mark.parametrize("tied", [False, True], ids=["random", "tied"])
@pytest.mark.parametrize("n", [20, 50, 200])
def test_mean_gap_matrix_and_weights_match_the_oracle(n, tied):
    for seed in range(3):
        means = draw_means(1000 * n + seed, n, tied)
        expected = oracle.mean_gap(means)
        comparison = build_comparison(means)
        assert comparison.entries.tolist() == expected

        # the dominant eigenvalue of a positive matrix is real and simple
        eigenvalue = np.linalg.eigvals(comparison.entries).real.max()
        assert lambda_max(comparison) == pytest.approx(eigenvalue, rel=1e-12)

        library = weights(synthetic_extents(fuzzify(comparison))).weights
        reference = np.array(oracle.weights_from_crisp(expected))
        assert np.max(np.abs(library - reference)) <= 1e-10
        # the oracle behind the report's mse, on the same matrix
        built_in = np.array(reference_weights(expected))
        assert np.max(np.abs(built_in - reference)) <= 1e-10


@pytest.mark.parametrize("tied", [False, True], ids=["random", "tied"])
@pytest.mark.parametrize("n", [200, 500])
def test_built_in_oracle_matches_the_per_entry_loop(n, tied):
    # the property stops at 60 criteria; here each row counts hundreds of
    # cells, and the per-entry loop sums them one float at a time
    entries = oracle.mean_gap(draw_means(7000 + n, n, tied))
    expected = loop_reference_weights(entries)
    assert np.array(reference_weights(entries)).tobytes() == np.array(expected).tobytes()
