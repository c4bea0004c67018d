"""Seeded input generators for the three benchmark workloads.

Every workload writes its inputs into a caller-given directory under fixed
file names, so the reports (whose config echo carries the input path) have
the same bytes in every set-up of a run and between runs with one seed.

- paper: the shipped 980 x 10 surrogate, copied unchanged.
- tall:  50 copies of the surrogate's rows (49 000) in a seeded order, fresh
         ids. Column sums are 50 times the surrogate's, so every stage
         after ingest sees the paper's means.
- wide:  200 criteria x 50 rows with seeded, pairwise distinct column
         means and a generated schema.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("paper", "tall", "wide")

RATINGS = "ratings.csv"
SCHEMA = "schema.json"

TALL_COPIES = 50
WIDE_CRITERIA = 200
WIDE_ROWS = 50


@dataclass(frozen=True)
class InputFile:
    name: str
    size: int
    sha256: str


@dataclass(frozen=True)
class Inputs:
    """Generated files of one workload, plus the CLI flags that select them."""

    directory: Path
    files: tuple[InputFile, ...]
    flags: tuple[str, ...]
    rows: int
    criteria: int

    @property
    def cells(self) -> int:
        return self.rows * self.criteria


def surrogate_path(root: Path) -> Path:
    return root / "data" / "travel_reviews_surrogate.csv"


def _describe(path: Path) -> InputFile:
    data = path.read_bytes()
    return InputFile(path.name, len(data), hashlib.sha256(data).hexdigest())


def _split_surrogate(root: Path) -> tuple[str, list[str]]:
    lines = surrogate_path(root).read_text(encoding="utf-8").splitlines()
    return lines[0], lines[1:]


def write_paper(root: Path, out: Path, seed: int) -> Inputs:
    # the paper's input is fixed; the seed has nothing to vary
    shutil.copyfile(surrogate_path(root), out / RATINGS)
    _, rows = _split_surrogate(root)
    return Inputs(out, (_describe(out / RATINGS),), ("--input", RATINGS), len(rows), 10)


def write_tall(root: Path, out: Path, seed: int) -> Inputs:
    header, rows = _split_surrogate(root)
    cells = [row.split(",", 1)[1] for row in rows] * TALL_COPIES
    order = np.random.default_rng(seed).permutation(len(cells))
    width = len(str(len(cells)))
    with open(out / RATINGS, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(f"T{i:0{width}d},{cells[k]}\n" for i, k in enumerate(order))
    return Inputs(out, (_describe(out / RATINGS),), ("--input", RATINGS), len(cells), 10)


def wide_cents(seed: int) -> np.ndarray:
    """WIDE_ROWS x WIDE_CRITERIA integer cents in [0, 400].

    Each column sums to its own target and the targets are distinct, so
    the column means are pairwise distinct by construction.
    """
    rng = np.random.default_rng(seed)
    targets = rng.choice(
        np.arange(20 * WIDE_ROWS, 380 * WIDE_ROWS + 1), WIDE_CRITERIA, replace=False
    )
    cents = np.empty((WIDE_ROWS, WIDE_CRITERIA), dtype=np.int64)
    for j, target in enumerate(targets):
        draw = rng.normal(target / WIDE_ROWS, 60.0, WIDE_ROWS)
        col = np.clip(np.rint(draw), 0, 400).astype(np.int64)
        # walk the column onto its exact target one cent at a time
        order = rng.permutation(WIDE_ROWS)
        k = 0
        while (gap := int(target - col.sum())) != 0:
            pos = order[k % WIDE_ROWS]
            k += 1
            moved = col[pos] + (1 if gap > 0 else -1)
            if 0 <= moved <= 400:
                col[pos] = moved
        cents[:, j] = col
    return cents


def write_wide(root: Path, out: Path, seed: int) -> Inputs:
    cents = wide_cents(seed)
    columns = [f"C{j + 1:03d}" for j in range(WIDE_CRITERIA)]
    schema = {
        "id_column": "id",
        "criteria_columns": {c: f"Criterion {c[1:]}" for c in columns},
    }
    (out / SCHEMA).write_text(json.dumps(schema, indent=1) + "\n", encoding="utf-8")
    with open(out / RATINGS, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["id", *columns]) + "\n")
        for i, row in enumerate(cents):
            cells = ",".join(f"{c // 100}.{c % 100:02d}" for c in row.tolist())
            fh.write(f"W{i + 1:02d},{cells}\n")
    files = (_describe(out / RATINGS), _describe(out / SCHEMA))
    flags = ("--input", RATINGS, "--schema", SCHEMA, "--ir-mode", "paper_compat")
    return Inputs(out, files, flags, WIDE_ROWS, WIDE_CRITERIA)


WRITERS = {"paper": write_paper, "tall": write_tall, "wide": write_wide}


def write_inputs(workload: str, root: Path, out: Path, seed: int) -> Inputs:
    """Write the workload's inputs into the existing directory out."""
    return WRITERS[workload](root, out, seed)
