"""Weighted scoring, rank assembly, and the cross-check against the reference."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .consistency import ConsistencyReport
from .errors import DimensionMismatch, EmptyInput, LengthMismatch
from .extent import WeightVector
from .record import Record

def score(data, w: WeightVector) -> np.ndarray:
    """score_j = w_j * mean_i(data_ij), column by column: the paper's score,
    a criterion's weight times its mean rating. A score on another scale,
    such as the column sum, is the report's --report-scale.

    Returns a new read-only array ordered like w.labels, the column order.
    """
    values = np.asarray(data.values, dtype=float)
    if values.shape[1] != len(w):
        raise DimensionMismatch(values.shape[1], len(w))
    scores = w.weights * values.mean(axis=0)
    scores.setflags(write=False)
    return scores


class RankRow(Record):
    rank: int
    label: str
    score_real: float
    score_normalized: float


def rank(
    labels: Sequence[str], real: Sequence[float], normalized: Sequence[float]
) -> tuple[RankRow, ...]:
    """Order criteria by descending real score; ties break by ascending label.

    The three sequences run in the same criterion order, and each row takes
    its label and both scores from one position; unequal lengths raise
    ValueError.
    """
    if len(labels) == 0:
        raise EmptyInput("cannot rank an empty score vector")
    ordered = sorted(
        zip(labels, real, normalized, strict=True),
        key=lambda row: (-row[1], row[0]),
    )
    return tuple(
        RankRow(
            rank=position,
            label=label,
            score_real=float(value),
            score_normalized=float(companion),
        )
        for position, (label, value, companion) in enumerate(ordered, start=1)
    )


class RankingReport(Record):
    """Ordered rank rows plus the evidence backing them."""

    rows: tuple[RankRow, ...]
    mse: float
    consistency: ConsistencyReport
    weights: WeightVector


def build_report(
    real_scores: np.ndarray,
    normalized_scores: np.ndarray,
    consistency: ConsistencyReport,
    weight_vector: WeightVector,
    mse: float,
) -> RankingReport:
    rows = rank(weight_vector.labels, real_scores, normalized_scores)
    return RankingReport(
        rows=rows,
        mse=mse,
        consistency=consistency,
        weights=weight_vector,
    )


def mse(f: Sequence[float], y: Sequence[float]) -> float:
    """Mean squared error between two equal-length vectors."""
    fv = np.asarray(f, dtype=float).ravel()
    yv = np.asarray(y, dtype=float).ravel()
    if fv.size != yv.size:
        raise LengthMismatch(int(fv.size), int(yv.size))
    if fv.size == 0:
        raise EmptyInput("mse needs at least one element")
    diff = fv - yv
    return float(np.mean(diff * diff))


class ValidationRecord(Record):
    """The MSE, and one message per check that disagrees with the reference."""

    mse: float
    failures: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures


def validate(
    labels: Sequence[str], scores: Sequence[float], oracle_scores: Sequence[float],
    means: Sequence[float], folded: dict[int, float], rows: int, tolerance: float = 1e-3,
) -> ValidationRecord:
    """Cross-check a run against an independent recomputation, in the
    labels' order: the MSE, the rank order (descending score, then label),
    the zero scores, and the run's means against those the recomputation
    folded, correctly rounded over `rows` ratings. The run adds the
    non-negative ratings in any order, within gamma = (rows - 1) u / (1 -
    (rows - 1) u) of the exact sum (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., section 4.2), and divides, so with the
    fold's own rounding the two means are within (gamma + 3u) of the fold."""
    value = mse(scores, oracle_scores)
    failures = [] if value <= tolerance else ["mse exceeds the configured tolerance"]
    order = sorted(range(len(labels)), key=lambda c: (-scores[c], labels[c]))
    expected = sorted(range(len(labels)), key=lambda c: (-oracle_scores[c], labels[c]))
    if order != expected:
        p = next(p for p, (a, b) in enumerate(zip(order, expected)) if a != b)
        failures.append(
            f"rank order differs from the reference at rank {p + 1}: "
            f"{labels[order[p]]} here, {labels[expected[p]]} in the reference"
        )
    zeros = {c for c, s in enumerate(scores) if s == 0.0}
    zeros ^= {c for c, s in enumerate(oracle_scores) if s == 0.0}
    if zeros:
        names = ", ".join(labels[c] for c in sorted(zeros))
        failures.append(f"zero scores differ from the reference for {names}")
    u = 2.0**-53
    bound = (rows - 1) * u / (1 - (rows - 1) * u) + 3 * u
    off = [labels[c] for c, fold in folded.items() if not abs(means[c] - fold) <= bound * fold]
    if off:
        names = ", ".join(off)
        failures.append(f"means differ from the reference beyond summation error for {names}")
    return ValidationRecord(mse=value, failures=tuple(failures))
