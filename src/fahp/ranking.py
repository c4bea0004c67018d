"""Weighted scoring, rank assembly, and the mean-squared-error cross-check."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .consistency import ConsistencyReport
from .errors import DimensionMismatch, EmptyInput, LengthMismatch
from .extent import WeightVector

AGGREGATES = ("mean", "sum")


@dataclass(frozen=True)
class ScoreVector:
    """Per-criterion score: weight times the aggregated column value."""

    labels: tuple[str, ...]
    scores: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=float)
        if s.ndim != 1 or s.size != len(self.labels):
            raise ValueError("one score per label required")
        if not np.all(np.isfinite(s)) or np.any(s < 0):
            raise ValueError("scores must be finite and nonnegative")
        s = s.copy()
        s.setflags(write=False)
        object.__setattr__(self, "scores", s)
        object.__setattr__(self, "labels", tuple(self.labels))


def score(data, w: WeightVector, aggregate: str = "mean") -> ScoreVector:
    """score_j = w_j * aggregate_i(data_ij), column by column."""
    values = np.asarray(data.values, dtype=float)
    if values.shape[1] != len(w):
        raise DimensionMismatch(values.shape[1], len(w))
    if aggregate == "mean":
        folded = values.mean(axis=0)
    elif aggregate == "sum":
        folded = values.sum(axis=0)
    else:
        raise ValueError(f"aggregate must be one of {AGGREGATES}, got {aggregate!r}")
    return ScoreVector(labels=tuple(data.criteria), scores=w.weights * folded)


@dataclass(frozen=True)
class RankRow:
    rank: int
    label: str
    score_real: float
    score_normalized: float | None


def rank(scores: ScoreVector, normalized: ScoreVector | None = None) -> tuple[RankRow, ...]:
    """Order criteria by descending score; ties break by ascending label.

    The primary vector fills score_real; an optional companion vector
    (matched by label) fills score_normalized.
    """
    if scores.scores.size == 0:
        raise EmptyInput("cannot rank an empty score vector")
    companion = {}
    if normalized is not None:
        if set(normalized.labels) != set(scores.labels):
            raise ValueError("companion scores must cover the same labels")
        companion = dict(zip(normalized.labels, normalized.scores))
    ordered = sorted(
        zip(scores.labels, scores.scores), key=lambda pair: (-pair[1], pair[0])
    )
    rows = []
    for position, (label, value) in enumerate(ordered, start=1):
        rows.append(
            RankRow(
                rank=position,
                label=label,
                score_real=float(value),
                score_normalized=(
                    float(companion[label]) if label in companion else None
                ),
            )
        )
    return tuple(rows)


@dataclass(frozen=True)
class RankingReport:
    """Ordered rank rows plus the evidence backing them."""

    rows: tuple[RankRow, ...]
    mse: float | None
    consistency: ConsistencyReport
    weights: WeightVector

    def score_by_label(self) -> dict[str, float]:
        return {row.label: row.score_real for row in self.rows}

    def with_mse(self, value: float) -> "RankingReport":
        return replace(self, mse=value)


def build_report(
    real_scores: ScoreVector,
    normalized_scores: ScoreVector,
    consistency: ConsistencyReport,
    weight_vector: WeightVector,
) -> RankingReport:
    rows = rank(real_scores, normalized_scores)
    return RankingReport(
        rows=rows,
        mse=None,
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


@dataclass(frozen=True)
class ValidationRecord:
    mse: float
    tolerance: float
    passed: bool


def validate(
    report: RankingReport,
    oracle_scores: Sequence[float],
    tolerance: float = 1e-3,
) -> ValidationRecord:
    """Cross-check report scores against an independent recomputation.

    oracle_scores must be ordered like report.weights.labels (the original
    criteria order); rows are realigned by label before comparing.
    """
    by_label = report.score_by_label()
    pipeline = [by_label[label] for label in report.weights.labels]
    value = mse(pipeline, oracle_scores)
    return ValidationRecord(mse=value, tolerance=tolerance, passed=value <= tolerance)
