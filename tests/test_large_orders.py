"""The comparison, power-iteration, fuzzify and extent kernels, and the
built-in loop oracle, at large n.

The acceptance oracle check stops at six criteria; these cover the sizes
wide inputs reach, with distinct means and with heavily tied ones.
"""

import numpy as np
import pytest

import oracle
from fahp import (
    ComparisonMatrix,
    build_comparison,
    fuzzify,
    lambda_max,
    reference_weights,
    synthetic_extents,
    weights,
)
from test_reference import exact_fuzzy, loop_weights


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
        # the rule's codes are the ones the float matcher finds
        float_built = ComparisonMatrix(entries=comparison.entries.copy())
        assert comparison.codes.tolist() == fuzzify(float_built).codes.tolist()

        uniform = build_comparison(means, rule="uniform")
        assert uniform.entries.tolist() == [[1.0] * n] * n
        float_uniform = ComparisonMatrix(entries=uniform.entries.copy())
        assert uniform.codes.tolist() == fuzzify(float_uniform).codes.tolist()

        # the dominant eigenvalue of a positive matrix is real and simple
        eigenvalue = np.linalg.eigvals(comparison.entries).real.max()
        assert lambda_max(comparison) == pytest.approx(eigenvalue, rel=1e-12)

        library = weights(synthetic_extents(fuzzify(comparison))).weights
        reference = np.array(oracle.weights_from_crisp(expected))
        assert np.max(np.abs(library - reference)) <= 1e-10
        # the oracle behind the report's mse bins the same means exactly:
        # means rounded to 0.1 put some gaps on a bin edge in decimal, and
        # there the float rule above may round the other way
        built_in = reference_weights(means, "mean_gap")
        exact = loop_weights(exact_fuzzy(means, "mean_gap"))
        assert np.array(built_in).tobytes() == np.array(exact).tobytes()


@pytest.mark.parametrize("tied", [False, True], ids=["random", "tied"])
@pytest.mark.parametrize("n", [20, 50, 200, 500])
def test_built_in_oracle_matches_the_per_entry_loop(n, tied):
    # the property stops at 60 criteria; here each row counts hundreds of
    # cells, and the per-entry loop over the main path's fuzzy matrix sums
    # them one float at a time. These means sit on no bin edge, so the
    # oracle's exact bins are the main path's and the weights agree to the
    # bit; the main path's own weights, summed left to right, to the last
    # bits, with the same zeros
    means = draw_means(7000 + n, n, tied)
    comparison = build_comparison(means)
    expected = loop_weights(comparison.values.tolist())
    got = reference_weights(means, "mean_gap")
    assert np.array(got).tobytes() == np.array(expected).tobytes()
    main_path = weights(synthetic_extents(comparison)).weights
    assert np.max(np.abs(main_path - got)) <= 1e-15
    assert [w == 0.0 for w in main_path.tolist()] == [w == 0.0 for w in got]
