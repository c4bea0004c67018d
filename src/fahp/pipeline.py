"""End-to-end pipeline shared by the CLI and the demo scripts.

Stage order: ingest -> normalize -> build_comparison -> consistency gate
-> fuzzify -> synthetic extents -> weights -> score -> rank -> validate.
Failures are wrapped with the offending stage named; a failed gate raises
GateRejected unless the config forces continuation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .consistency import (
    ComparisonMatrix,
    ConsistencyReport,
    build_comparison,
    check,
)
from .dataset import DatasetSchema, RatingMatrix, column_means, load_csv
from .errors import FahpError, GateRejected, PipelineError
from .extent import WeightVector, synthetic_extents, weights
from .normalize import NormalizedMatrix, normalize
from .ranking import (
    RankingReport,
    ScoreVector,
    ValidationRecord,
    build_report,
    score,
    validate,
)
from .reference import reference_scores
from .tfn import FuzzyComparisonMatrix, default_scale_table, fuzzify

MODES = ("standard", "paper_compat")


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on; echoed into the report for round-trips."""

    input: str
    schema: str | None = None
    ir_mode: str = "standard"
    derivation: str = "mean_gap"
    aggregate: str = "mean"
    report_scale: float = 1.0
    out_json: str | None = None
    out_csv: str | None = None
    out_svg: str | None = None
    mse_tol: float = 1e-3
    force: bool = False

    def __post_init__(self):
        if self.ir_mode not in MODES:
            raise ValueError(f"ir_mode must be one of {MODES}")
        if not (math.isfinite(self.report_scale) and self.report_scale > 0):
            raise ValueError("report_scale must be finite and positive")
        if not (math.isfinite(self.mse_tol) and self.mse_tol > 0):
            raise ValueError("mse_tol must be finite and positive")

    def echo(self) -> dict:
        """Report-facing view; output paths are omitted on purpose so the
        report bytes never depend on where they are written."""
        return {
            "input": self.input,
            "schema": self.schema,
            "ir_mode": self.ir_mode,
            "derivation": self.derivation,
            "aggregate": self.aggregate,
            "report_scale": self.report_scale,
            "mse_tol": self.mse_tol,
            "force": self.force,
        }

    @classmethod
    def from_echo(cls, doc: dict) -> "RunConfig":
        return cls(
            input=doc["input"],
            schema=doc.get("schema"),
            ir_mode=doc.get("ir_mode", "standard"),
            derivation=doc.get("derivation", "mean_gap"),
            aggregate=doc.get("aggregate", "mean"),
            report_scale=float(doc.get("report_scale", 1.0)),
            mse_tol=float(doc.get("mse_tol", 1e-3)),
            force=bool(doc.get("force", False)),
        )


@dataclass(frozen=True)
class PipelineResult:
    """Every intermediate a run produced, for reports, dumps, and demos."""

    config: RunConfig
    matrix: RatingMatrix
    normalized: NormalizedMatrix
    means: np.ndarray
    comparison: ComparisonMatrix
    consistency: ConsistencyReport
    fuzzy: FuzzyComparisonMatrix | None = None
    extents: np.ndarray | None = None
    weight_vector: WeightVector | None = None
    real_scores: ScoreVector | None = None
    normalized_scores: ScoreVector | None = None
    report: RankingReport | None = None
    validation: ValidationRecord | None = None


def _stage(name: str):
    class _Guard:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            if exc is None or isinstance(exc, (GateRejected, PipelineError)):
                return False
            if isinstance(exc, (FahpError, OSError, ValueError, KeyError)):
                raise PipelineError(name, exc) from exc
            return False

    return _Guard()


def _load_schema(config: RunConfig) -> DatasetSchema:
    if config.schema is None:
        return DatasetSchema.default()
    return DatasetSchema.from_json(config.schema)


def run_to_consistency(config: RunConfig) -> PipelineResult:
    """Run ingest through the consistency check, no gate applied."""
    with _stage("ingest"):
        schema = _load_schema(config)
        matrix = load_csv(config.input, schema)
    with _stage("normalize"):
        normalized = normalize(matrix)
    with _stage("comparison"):
        means = column_means(matrix)
        comparison = build_comparison(means, rule=config.derivation)
    with _stage("consistency"):
        forced = 1.0 if config.ir_mode == "paper_compat" else None
        report = check(comparison, ir_mode=config.ir_mode, force_lambda_max=forced)
    return PipelineResult(
        config=config,
        matrix=matrix,
        normalized=normalized,
        means=means,
        comparison=comparison,
        consistency=report,
    )


def run_to_extents(config: RunConfig) -> PipelineResult:
    """Run ingest through the synthetic extents; raises GateRejected when
    the consistency ratio exceeds the limit and the config does not force
    continuation."""
    partial = run_to_consistency(config)
    if not partial.consistency.accepted and not config.force:
        raise GateRejected(partial.consistency)

    with _stage("fuzzify"):
        fuzzy = fuzzify(partial.comparison, default_scale_table())
    with _stage("extents"):
        extents = synthetic_extents(fuzzy)
    return replace(partial, fuzzy=fuzzy, extents=extents)


def run(config: RunConfig) -> PipelineResult:
    """Execute the full pipeline and return every intermediate; raises
    GateRejected as run_to_extents does."""
    partial = run_to_extents(config)
    with _stage("weights"):
        weight_vector = weights(partial.extents, labels=partial.matrix.criteria)
    with _stage("score"):
        real_scores = score(partial.matrix, weight_vector, config.aggregate)
        normalized_scores = score(partial.normalized, weight_vector, config.aggregate)
    with _stage("rank"):
        report = build_report(
            real_scores, normalized_scores, partial.consistency, weight_vector
        )
    with _stage("validate"):
        # column views, not lists: no Python float is held per cell
        oracle = reference_scores(
            [memoryview(column) for column in partial.matrix.values.T],
            partial.comparison.entries.tolist(),
            aggregate=config.aggregate,
        )
        record = validate(report, oracle, tolerance=config.mse_tol)
        report = report.with_mse(record.mse)

    return replace(
        partial,
        weight_vector=weight_vector,
        real_scores=real_scores,
        normalized_scores=normalized_scores,
        report=report,
        validation=record,
    )
