"""Output checks applied to every benchmark operation.

A check returns the list of problems it found; an empty list is a pass.
The runner counts an operation with any problem as failed and keeps its
time out of the latency samples.
"""

from __future__ import annotations

import json

# the seed's rank order on the paper run (default flags): four criteria
# carry weight, the six with zero weight tie at score 0 and sort by label;
# paper and tall share the surrogate's column means, so both must give it
SEED_RANK_ORDER = (
    "Parks/Picnic Spots",
    "Beaches",
    "Religious Institutions",
    "Resorts",
    "Art Galleries",
    "Dance Clubs",
    "Juice Bars",
    "Museums",
    "Restaurants",
    "Theaters",
)

# each reported weight is rounded to 4 decimals
_WEIGHT_ROUNDING = 5e-5


def report_sections(report: bytes) -> tuple:
    """The weights and ranking sections of a rank JSON report."""
    doc = json.loads(report)
    return doc["weights"], doc["ranking"]


def rank_problems(
    report: bytes,
    rank_order: tuple[str, ...] | None = None,
    expected_sections: tuple | None = None,
) -> list[str]:
    """Semantic checks on one `fahp rank --out-json` report."""
    try:
        doc = json.loads(report)
        mse = doc["mse"]
        tolerance = doc["config_echo"]["mse_tol"]
        ranking = doc["ranking"]
        weights = doc["weights"]
        accepted = doc["consistency"]["accepted"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"report is not a complete rank report: {exc!r}"]
    problems = []
    if not isinstance(mse, (int, float)) or not mse <= tolerance:
        problems.append(f"mse {mse!r} exceeds the tolerance {tolerance!r}")
    if not accepted:
        problems.append("consistency gate did not accept the matrix")
    labels = [row["label"] for row in ranking]
    if [row["rank"] for row in ranking] != list(range(1, len(ranking) + 1)):
        problems.append("ranks are not 1..n in order")
    scores = [row["score_real"] for row in ranking]
    if any(a < b for a, b in zip(scores, scores[1:])):
        problems.append("real-path scores are not in descending order")
    if sorted(labels) != sorted(row["label"] for row in weights):
        problems.append("ranking and weights cover different labels")
    total = sum(row["weight"] for row in weights)
    if abs(total - 1.0) > _WEIGHT_ROUNDING * len(weights) + 1e-9:
        problems.append(f"weights sum to {total!r}, not 1")
    if rank_order is not None and tuple(labels) != tuple(rank_order):
        problems.append(f"rank order {labels} is not the expected {list(rank_order)}")
    if expected_sections is not None and (weights, ranking) != tuple(expected_sections):
        problems.append("weights or ranking differ from the paper run's")
    return problems


def dump_problems(dump: bytes, rows: int) -> list[str]:
    """A normalized dump has a header plus one line per input row."""
    lines = dump.count(b"\n")
    if lines != rows + 1 or not dump.endswith(b"\n"):
        return [f"dump has {lines} lines, expected {rows + 1}"]
    return []
