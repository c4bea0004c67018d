"""End-to-end pipeline shared by the CLI and the demo scripts.

Stage order: ingest -> build_comparison -> consistency gate -> fuzzify
-> synthetic extents -> weights -> normalize -> score -> validate -> rank;
the normalized dump runs ingest and normalize only. A score is a
criterion's weight times its column mean, as in the paper: score and the
oracle each fold by the mean, and no option selects another fold.
Failures are wrapped with the offending stage named; a failed gate raises
GateRejected unless the config forces continuation.

build_comparison gives the comparison matrix as scale codes, one
FuzzyComparisonMatrix that is checked once: the gate reads its crisp
entries and fuzzify returns it as it is. The validate stage hands the
oracle the column means and the rule, never the matrix, so the oracle
re-derives the matrix, the weights and the scores from them.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .consistency import (
    DERIVATION_RULES,
    MODES,
    ConsistencyReport,
    build_comparison,
    check,
)
from .dataset import DatasetSchema, RatingMatrix, column_means, load_csv
from .errors import FahpError, GateRejected, PipelineError, UnknownDerivationRule
from .extent import synthetic_extents, weights
from .normalize import NormalizedMatrix, normalize
from .ranking import (
    RankingReport,
    ValidationRecord,
    build_report,
    score,
    validate,
)
from .record import Record
from .reference import reference_scores
# default_scale_table is unused here, but perfbench/spans.py traces it by this name
from .tfn import FuzzyComparisonMatrix, default_scale_table, fuzzify  # noqa: F401


class RunConfig(Record):
    """Everything a run depends on; echoed into the report for round-trips.

    The fields are the one definition of each run option's name and
    default: the command-line flags take their defaults from them.
    """

    input: str
    schema: str | None = None
    ir_mode: str = "standard"
    derivation: str = "mean_gap"
    report_scale: float = 1.0
    mse_tol: float = 1e-3
    force: bool = False

    def __post_init__(self):
        if self.ir_mode not in MODES:
            raise ValueError(f"ir_mode must be one of {MODES}")
        if self.derivation not in DERIVATION_RULES:
            raise UnknownDerivationRule(self.derivation, sorted(DERIVATION_RULES))
        if not (math.isfinite(self.report_scale) and self.report_scale > 0):
            raise ValueError("report_scale must be finite and positive")
        if not (math.isfinite(self.mse_tol) and self.mse_tol > 0):
            raise ValueError("mse_tol must be finite and positive")

    def echo(self) -> dict:
        """Report-facing view, so `RunConfig(**echo)` rebuilds the run. No
        field is an output path, so the report bytes never depend on
        where they are written."""
        return {name: getattr(self, name) for name in self._fields}


class PipelineResult(Record):
    """The intermediates a run produced that reports, dumps and demos read;
    the weights and scores are read from the report.

    matrix.row_ids is None: no stage of the method reads the id column.
    means are the column means the comparison matrix was derived from.
    """

    matrix: RatingMatrix
    means: np.ndarray
    comparison: FuzzyComparisonMatrix
    consistency: ConsistencyReport | None = None
    report: RankingReport | None = None
    validation: ValidationRecord | None = None


@contextlib.contextmanager
def _stage(name: str):
    """Names the stage a failure came from: FahpError, OSError, ValueError
    and KeyError become PipelineError(name, exc); GateRejected and an
    already wrapped PipelineError pass through."""
    try:
        yield
    except (GateRejected, PipelineError):
        raise
    except (FahpError, OSError, ValueError, KeyError) as exc:
        raise PipelineError(name, exc) from exc


def _ingest(config: RunConfig, *, row_ids: bool = False) -> RatingMatrix:
    with _stage("ingest"):
        schema = None if config.schema is None else DatasetSchema.from_json(config.schema)
        return load_csv(config.input, schema, row_ids=row_ids)


def run_to_normalized(config: RunConfig) -> tuple[RatingMatrix, NormalizedMatrix]:
    """Ingest with the row ids and normalize: all the normalized dump
    prints, so no comparison matrix is derived."""
    matrix = _ingest(config, row_ids=True)
    with _stage("normalize"):
        return matrix, normalize(matrix)


def run_to_comparison(config: RunConfig) -> PipelineResult:
    """Run ingest through the comparison matrix; the id column is not
    read, since no stage of the method uses it."""
    matrix = _ingest(config)
    with _stage("comparison"):
        means = column_means(matrix)
        comparison = build_comparison(means, rule=config.derivation)
    return PipelineResult(matrix=matrix, means=means, comparison=comparison)


def run_to_consistency(config: RunConfig) -> PipelineResult:
    """Run ingest through the consistency check, no gate applied."""
    partial = run_to_comparison(config)
    with _stage("consistency"):
        report = check(partial.comparison, ir_mode=config.ir_mode)
    return PipelineResult(partial.matrix, partial.means, partial.comparison, report)


def fuzzify_stage(comparison: FuzzyComparisonMatrix) -> FuzzyComparisonMatrix:
    """The fuzzify stage; it applies no gate, so the fuzzy and extents
    dumps call it straight after run_to_comparison."""
    with _stage("fuzzify"):
        return fuzzify(comparison)


def extents_stage(fuzzy: FuzzyComparisonMatrix) -> np.ndarray:
    """The synthetic-extents stage, also ungated."""
    with _stage("extents"):
        return synthetic_extents(fuzzy)


def run(config: RunConfig) -> PipelineResult:
    """Execute the full pipeline and return its intermediates; raises
    GateRejected when the consistency ratio exceeds the limit and the
    config does not force continuation."""
    partial = run_to_consistency(config)
    if not partial.consistency.accepted and not config.force:
        raise GateRejected(partial.consistency)
    extents = extents_stage(fuzzify_stage(partial.comparison))
    with _stage("weights"):
        weight_vector = weights(extents, labels=partial.matrix.criteria)
    with _stage("normalize"):
        normalized = normalize(partial.matrix)
    with _stage("score"):
        real_scores = score(partial.matrix, weight_vector)
        normalized_scores = score(normalized, weight_vector)
    with _stage("validate"):
        # column views, not lists: no Python float is held per cell
        columns = [memoryview(column) for column in partial.matrix.values.T]
        oracle, folded = reference_scores(columns, partial.means, config.derivation)
        record = validate(
            partial.matrix.criteria, real_scores, oracle, partial.means, folded,
            len(partial.matrix.values), config.mse_tol,
        )
    with _stage("rank"):
        report = build_report(
            real_scores,
            normalized_scores,
            partial.consistency,
            weight_vector,
            record.mse,
        )

    return PipelineResult(
        partial.matrix, partial.means, partial.comparison, partial.consistency, report, record
    )
