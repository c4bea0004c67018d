#!/usr/bin/env python3
"""Print how each kernel's in-process time grows with the number of criteria.

Run from the repository root:

    python3 tools/kernel_sweep.py --runs 5

For each n of 10, 50, 200, 500, 1000 and 2000 criteria it writes a
seeded 50-row ratings file to a temporary directory: two-decimal ratings
in [0, 4] with pairwise distinct column means, and a schema naming the
n columns. It then times each kernel on that input:

- `build_comparison` of the column means (the mean-gap rule);
- `lambda_max` of that matrix, timed alone, since paper_compat skips it;
- `fuzzify_float`, `fuzzify` of the same entries as a float-built
  `ComparisonMatrix`, as the demos and tests build one: the float
  matcher `_match_codes` runs only for such a matrix, never in a run;
- `synthetic_extents` of the matrix and `weights` of the extents;
- `weights_full_stair`, `weights` of n extents whose modal values fall
  while their lower bounds rise, so the staircase that `min_degrees`
  walks holds all n of them: its worst case, n² ordinates as before;
- `reference_weights` and `reference_scores`, the run-time oracle;
- `run` of the file under paper_compat, ingest to report.

The first table gives each kernel's median raw ms over the runs. The
second gives the spread of the same runs: the distance between their
quartiles (`statistics.quantiles`) as a percentage of their median, so
a difference between two trees smaller than it is not resolved. It
needs at least two runs; with three, as in CI, the quartiles of the
default method are the fastest and the slowest run. Everything runs in this one process, with the
BLAS pool held to one thread, and the `fahp` of this checkout's `src/`
is measured, ahead of any installed copy. The tables are a reading, not
a check: they set no threshold.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

# set before numpy loads, so no BLAS worker thread is started
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from fahp import (  # noqa: E402
    ComparisonMatrix,
    DatasetSchema,
    RunConfig,
    build_comparison,
    column_means,
    fuzzify,
    lambda_max,
    load_csv,
    reference_scores,
    reference_weights,
    run,
    synthetic_extents,
    weights,
)

ORDERS = (10, 50, 200, 500, 1000, 2000)
ROWS = 50
SEED = 7


def write_ratings(directory: Path, n: int) -> tuple[Path, Path]:
    """Write the ratings of n criteria and their schema; return both paths."""
    rng = np.random.default_rng(SEED + n)
    # pairwise distinct column sums in cents give pairwise distinct means
    targets = rng.choice(np.arange(20 * ROWS, 380 * ROWS + 1), n, replace=False)
    draw = rng.normal(targets / ROWS, 60.0, (ROWS, n))
    cents = np.clip(np.rint(draw), 0, 400).astype(np.int64)
    columns = np.arange(n)
    # walk every column onto its target, one cent of one random row per step
    while (gaps := targets - cents.sum(axis=0)).any():
        rows = rng.integers(0, ROWS, n)
        cents[rows, columns] = np.clip(cents[rows, columns] + np.sign(gaps), 0, 400)

    names = [f"C{j + 1:04d}" for j in range(n)]
    schema = directory / f"schema_{n}.json"
    schema.write_text(
        json.dumps({"id_column": "id", "criteria_columns": {c: c for c in names}}),
        encoding="utf-8",
    )
    ratings = directory / f"ratings_{n}.csv"
    with open(ratings, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["id", *names]) + "\n")
        for i, row in enumerate(cents.tolist()):
            cells = ",".join(f"{c // 100}.{c % 100:02d}" for c in row)
            fh.write(f"R{i + 1},{cells}\n")
    return ratings, schema


def full_stair(n: int) -> np.ndarray:
    """n extents, each on the staircase: m falls from 1 to 0.5 while l
    rises from 0 to 0.4."""
    mid = np.linspace(1.0, 0.5, n)
    return np.stack([np.linspace(0.0, 0.4, n), mid, mid + 0.3], axis=1)


def _ms(call) -> float:
    gc.collect()
    start = time.perf_counter()
    call()
    return (time.perf_counter() - start) * 1e3


def sweep(ratings: Path, schema: Path, runs: int) -> dict[str, list[float]]:
    """The raw ms of each kernel's runs calls on one file."""
    matrix = load_csv(str(ratings), DatasetSchema.from_json(str(schema)), row_ids=False)
    means = column_means(matrix)
    comparison = build_comparison(means)
    float_built = ComparisonMatrix(entries=comparison.entries.copy())
    extents = synthetic_extents(comparison)
    stair = full_stair(len(means))
    columns = [memoryview(column) for column in matrix.values.T]
    config = RunConfig(input=str(ratings), schema=str(schema), ir_mode="paper_compat")
    calls = {
        "build_comparison": lambda: build_comparison(means),
        "lambda_max": lambda: lambda_max(comparison),
        "fuzzify_float": lambda: fuzzify(float_built),
        "synthetic_extents": lambda: synthetic_extents(comparison),
        "weights": lambda: weights(extents),
        "weights_full_stair": lambda: weights(stair),
        "reference_weights": lambda: reference_weights(means, "mean_gap"),
        "reference_scores": lambda: reference_scores(columns, means, "mean_gap"),
        "run": lambda: run(config),
    }
    return {name: [_ms(call) for _ in range(runs)] for name, call in calls.items()}


def spread_percent(times: list[float]) -> float:
    """The interquartile range of times as a percentage of their median."""
    q1, _, q3 = statistics.quantiles(times, n=4)
    return (q3 - q1) / statistics.median(times) * 100.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="timed calls per kernel and n")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        table = {n: sweep(*write_ratings(Path(tmp), n), args.runs) for n in ORDERS}

    kernels = list(table[ORDERS[0]])
    width = max(len(name) for name in kernels)
    header = f"{'kernel':<{width}}" + "".join(f"  {f'n={n}':>9}" for n in ORDERS)
    print(f"median raw ms over {args.runs} in-process calls, {ROWS} rows, mean-gap rule")
    print(header)
    for name in kernels:
        cells = (statistics.median(table[n][name]) for n in ORDERS)
        print(f"{name:<{width}}" + "".join(f"  {ms:9.2f}" for ms in cells))
    if args.runs < 2:
        print("no spread: it needs at least two calls per kernel and n")
        return 0
    print()
    print(f"interquartile range of the same {args.runs} calls, in % of their median")
    print(header)
    for name in kernels:
        cells = (spread_percent(table[n][name]) for n in ORDERS)
        print(f"{name:<{width}}" + "".join(f"  {pct:8.1f}%" for pct in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
