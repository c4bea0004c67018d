"""Go/no-go contract checks, one per criterion, with stated tolerances.

Each check prints a single [PASS]/[FAIL] line and registers it with the
session so the record is echoed after the run. Runtime limits are
measured around the check's own computation, not fixture setup.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import conftest
import oracle
from fahp import (
    ComparisonMatrix,
    RunConfig,
    Tfn,
    build_comparison,
    check,
    consistency_index,
    consistency_ratio,
    default_scale_table,
    fuzzify,
    mse,
    possibility,
    run,
    saw_normalize,
    synthetic_extents,
    weights,
)
from fahp.cli import main as cli_main
from fahp.report import report_to_dict

TOTAL = 9


def _record(number: int, text: str, ok: bool) -> None:
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] acceptance {number}/{TOTAL}: {text}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


@contextmanager
def criterion(number: int, text: str):
    try:
        yield
    except BaseException:
        _record(number, text, ok=False)
        raise
    _record(number, text, ok=True)


@pytest.fixture(scope="module")
def thousand_matrices():
    """1,000 valid reciprocal crisp matrices of order 3 to 6.

    Half come from the derivation rule applied to random mean vectors,
    half from uniformly drawn Saaty intensities with random direction.
    """
    rng = np.random.default_rng(20260816)
    matrices = []
    for index in range(1000):
        n = int(rng.integers(3, 7))
        if index % 2 == 0:
            entries = build_comparison(rng.uniform(0.0, 4.0, size=n)).entries
        else:
            entries = np.ones((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    k = float(rng.integers(1, 10))
                    if rng.integers(0, 2) == 0:
                        entries[i, j], entries[j, i] = k, 1.0 / k
                    else:
                        entries[i, j], entries[j, i] = 1.0 / k, k
        matrices.append(np.asarray(entries))
    return matrices


def _library_weights(entries: np.ndarray) -> np.ndarray:
    fuzzy = fuzzify(ComparisonMatrix(entries=entries))
    return weights(synthetic_extents(fuzzy)).weights


def test_compat_consistency_reproduction():
    with criterion(1, "forced-principal-value gate yields ci -1 and cr -0.0056"):
        ci = consistency_index(1.0, 10)
        assert ci == -1.0
        cr = consistency_ratio(ci, 180.0)
        assert abs(cr - (-0.0056)) < 5e-5

        comparison = ComparisonMatrix(entries=np.ones((10, 10)))
        report = check(comparison, ir_mode="paper_compat")
        assert report.lambda_max == 1.0
        assert report.n == 10
        assert report.ci == -1.0
        assert report.ir == 180.0
        assert abs(report.cr - (-0.0056)) < 5e-5
        assert report.accepted


def test_possibility_branch_table():
    with criterion(2, "possibility branches: equal 1, disjoint 0, overlap 0.6"):
        equal = Tfn(1.0, 2.0, 3.0)
        assert possibility(equal, equal) == 1.0
        assert possibility(Tfn(1.0, 1.5, 2.0), Tfn(3.0, 4.0, 5.0)) == 0.0
        overlap = possibility(Tfn(1.0, 2.0, 3.5), Tfn(2.0, 3.0, 4.0))
        assert abs(overlap - 0.6) <= 1e-12


PRINTED_DIRECT_ROWS = {
    1: ("1", "1", "1"),
    2: ("1/2", "3/4", "1"),
    3: ("2/3", "1", "3/2"),
    4: ("1", "3/2", "2"),
    5: ("3/2", "2", "5/2"),
    6: ("2", "5/2", "3"),
    7: ("5/2", "3", "7/2"),
    8: ("3", "7/2", "4"),
    9: ("7/2", "4", "9/2"),
}


def test_scale_table_coherence():
    with criterion(3, "all nine scale rows cohere with their reciprocals"):
        table = default_scale_table()
        for k, printed in PRINTED_DIRECT_ROWS.items():
            frac = tuple(Fraction(part) for part in printed)
            frac_inverse = tuple(1 / f for f in reversed(frac))
            real = table.real(k)
            inverse = table.inverse(k)
            # stored rows are exactly the printed rationals and their
            # exact reciprocals, so coherence holds with no float slack
            assert real.as_tuple() == tuple(float(f) for f in frac)
            assert inverse.as_tuple() == tuple(float(f) for f in frac_inverse)
            # the float-arithmetic reciprocal agrees to within rounding
            for got, want in zip(real.reciprocal().as_tuple(), inverse.as_tuple()):
                assert got == pytest.approx(want, rel=1e-15)

        assert table.real(5).as_tuple() == (1.5, 2.0, 2.5)
        assert table.inverse(5).as_tuple() == (0.4, 0.5, float(Fraction(2, 3)))
        # rows 6 and 8 carry the reciprocal-coherent inverse triples
        assert table.inverse(6).as_tuple() == (
            float(Fraction(1, 3)), 0.4, 0.5,
        )
        assert table.inverse(8).as_tuple() == (
            0.25, float(Fraction(2, 7)), float(Fraction(1, 3)),
        )


def test_weight_simplex_property(thousand_matrices):
    with criterion(4, "weights stay on the simplex for 1,000 random matrices"):
        start = time.perf_counter()
        for entries in thousand_matrices:
            w = _library_weights(entries)
            assert np.all(w >= 0.0)
            assert abs(float(w.sum()) - 1.0) <= 1e-9
        for n in range(2, 11):
            w = _library_weights(np.ones((n, n)))
            assert float(np.max(np.abs(w - 1.0 / n))) <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0


def test_oracle_equivalence(thousand_matrices):
    with criterion(5, "library weights match the straight-line oracle to 1e-10"):
        start = time.perf_counter()
        for entries in thousand_matrices:
            lib = _library_weights(entries)
            ref = np.asarray(oracle.weights_from_crisp(entries.tolist()))
            assert float(np.max(np.abs(lib - ref))) <= 1e-10
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0


def test_normalization_properties():
    with criterion(6, "normalization: idempotent, column max 1, scale invariant"):
        rng = np.random.default_rng(6161)
        start = time.perf_counter()
        for _ in range(1000):
            rows = int(rng.integers(1, 30))
            cols = int(rng.integers(2, 9))
            values = rng.uniform(0.0, 4.0, size=(rows, cols))

            normalized = saw_normalize(values)
            again = saw_normalize(normalized)
            assert np.array_equal(again, normalized)
            assert np.all(normalized.max(axis=0) == 1.0)

            scale = rng.uniform(0.1, 10.0, size=cols)
            scaled = saw_normalize(values * scale)
            denom = np.where(normalized == 0.0, 1.0, np.abs(normalized))
            assert float(np.max(np.abs(scaled - normalized) / denom)) <= 1e-15
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0


def test_rank_order_reproduction(dataset_path, published_means, published_rank_order):
    with criterion(7, "dataset rank order and scores match the reference column"):
        start = time.perf_counter()
        config = RunConfig(
            input=str(dataset_path),
            derivation="uniform",
            report_scale=10.0,
        )
        result = run(config)
        doc = report_to_dict(result.report, config.echo(), config.report_scale)
        labels = [row["label"] for row in doc["ranking"]]
        assert labels == published_rank_order
        for row in doc["ranking"]:
            assert abs(row["score_real"] - published_means[row["label"]]) <= 1e-3
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0


def test_mse_validation(dataset_path):
    with criterion(8, "pipeline-vs-oracle mse within 1e-3 on the dataset run"):
        result = run(RunConfig(input=str(dataset_path)))
        assert result.validation.passed
        assert result.report.mse <= 1e-3

        ref_weights = oracle.weights_from_crisp(result.comparison.entries.tolist())
        ref_scores = oracle.scores_from_cells(
            result.matrix.values.tolist(), ref_weights
        )
        by_label = {row.label: row.score_real for row in result.report.rows}
        lib_scores = [by_label[label] for label in result.matrix.criteria]
        assert mse(lib_scores, ref_scores) <= 1e-3


def test_report_determinism(dataset_path, tmp_path):
    with criterion(9, "two identical runs emit byte-identical reports"):
        paths = [tmp_path / "first.json", tmp_path / "second.json"]
        for path in paths:
            code = cli_main(
                ["rank", "--input", str(dataset_path), "--out-json", str(path)]
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
