"""Command-line entry points: rank, check, dump.

Exit codes: 0 success, 1 input or configuration error, 2 when the
consistency-ratio gate rejects the comparison matrix.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

from .errors import (
    FahpError,
    GateRejected,
    PipelineError,
    ScaledScoreOverflow,
    UnknownStage,
)
from .pipeline import MODES, RunConfig, run, run_to_consistency, run_to_extents
from .report import (
    render_fuzzy_json,
    render_json,
    render_matrix_csv,
    render_ranking_csv,
    render_scores_svg,
    write_text,
)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_GATE_REJECTED = 2

DUMP_STAGES = ("normalized", "comparison", "fuzzy", "extents")


class _Parser(argparse.ArgumentParser):
    # usage mistakes are input/config errors, so exit 1 instead of
    # argparse's default 2 (reserved for the consistency gate)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="ratings CSV path")
    parser.add_argument(
        "--schema",
        help="JSON schema override mapping CSV columns to criterion labels",
    )
    parser.add_argument(
        "--ir-mode",
        choices=MODES,
        default="standard",
        help="random-index source: Saaty table, or the compatibility "
        "constant 180 with a forced principal value of 1",
    )
    parser.add_argument(
        "--derivation",
        default="mean_gap",
        help="comparison-derivation rule name: mean_gap or uniform (a "
        "custom rule exists only for library callers of "
        "register_derivation_rule)",
    )
    parser.add_argument(
        "--aggregate",
        choices=("mean", "sum"),
        default="mean",
        help="column fold used by the scoring stage",
    )
    parser.add_argument(
        "--report-scale",
        type=float,
        default=1.0,
        help="factor applied to reported scores (report only, default 1)",
    )
    parser.add_argument("--out-json", help="write the full report as JSON")
    parser.add_argument("--out-csv", help="write the ranking rows as CSV")
    parser.add_argument("--out-svg", help="write a bar chart of the scores")
    parser.add_argument(
        "--mse-tol",
        type=float,
        default=1e-3,
        help="validation tolerance for the pipeline-vs-reference MSE",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="continue past a failed consistency gate",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fahp", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    rank_cmd = commands.add_parser(
        "rank", help="run the full pipeline and emit the ranking report"
    )
    _add_common_flags(rank_cmd)

    check_cmd = commands.add_parser(
        "check", help="run through the consistency stage and print the report"
    )
    _add_common_flags(check_cmd)

    dump_cmd = commands.add_parser(
        "dump", help="write one intermediate stage artifact"
    )
    _add_common_flags(dump_cmd)
    dump_cmd.add_argument(
        "--dump",
        required=True,
        choices=DUMP_STAGES,
        metavar="STAGE",
        help=f"stage to dump: one of {', '.join(DUMP_STAGES)}",
    )

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        input=args.input,
        schema=args.schema,
        ir_mode=args.ir_mode,
        derivation=args.derivation,
        aggregate=args.aggregate,
        report_scale=args.report_scale,
        out_json=args.out_json,
        out_csv=args.out_csv,
        out_svg=args.out_svg,
        mse_tol=args.mse_tol,
        force=args.force,
    )


def cmd_rank(config: RunConfig) -> int:
    result = run(config)
    report = result.report
    for row in report.rows:
        for value in (row.score_real, row.score_normalized or 0.0):
            if not math.isfinite(value * config.report_scale):
                raise ScaledScoreOverflow(row.label, config.report_scale)
    echo = config.echo()
    if config.out_json:
        write_text(config.out_json, render_json(report, echo, config.report_scale))
    if config.out_csv:
        write_text(config.out_csv, render_ranking_csv(report, config.report_scale))
    if config.out_svg:
        write_text(config.out_svg, render_scores_svg(report, config.report_scale))

    cons = report.consistency
    print(f"consistency: cr = {cons.cr:.4f}, accepted = {str(cons.accepted).lower()}")
    for row in report.rows:
        real = row.score_real * config.report_scale
        print(f"{row.rank:3d}  {row.label:<24}  {real:.4f}")
    print(f"mse vs reference: {report.mse:.3e} (tolerance {config.mse_tol:g})")
    if result.validation is not None and not result.validation.passed:
        print(
            "fahp: validation: mse exceeds the configured tolerance",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_check(config: RunConfig) -> int:
    result = run_to_consistency(config)
    cons = result.consistency
    print(f"lambda_max: {cons.lambda_max:.4f}")
    print(f"n: {cons.n}")
    print(f"ci: {cons.ci:.4f}")
    print(f"ir: {cons.ir:.4f}")
    print(f"cr: {cons.cr:.4f}")
    print(f"accepted: {str(cons.accepted).lower()}")
    for note in cons.warnings:
        print(f"warning: {note}")
    return EXIT_OK if cons.accepted else EXIT_GATE_REJECTED


def cmd_dump(config: RunConfig, stage: str) -> int:
    if stage not in DUMP_STAGES:
        raise UnknownStage(stage)
    if stage in ("normalized", "comparison"):
        result = run_to_consistency(config)
        if stage == "normalized":
            norm = result.normalized
            # keep the original header when the source columns are known
            if norm.source_columns:
                header = [result.matrix.id_column, *norm.source_columns]
            else:
                header = ["row", *norm.criteria]
            row_labels = norm.row_ids or tuple(
                str(i + 1) for i in range(norm.shape[0])
            )
            text = render_matrix_csv(header, row_labels, norm.values)
        else:
            text = render_matrix_csv(
                ["criterion", *result.matrix.criteria],
                result.matrix.criteria,
                result.comparison.entries,
            )
        out_path = config.out_csv
    else:
        # dumps are for audit, so run past a failed gate
        result = run_to_extents(replace(config, force=True))
        if stage == "fuzzy":
            text = render_fuzzy_json(result.matrix.criteria, result.fuzzy)
            out_path = config.out_json
        else:
            text = render_matrix_csv(
                ["label", "l", "m", "u"], result.matrix.criteria, result.extents
            )
            out_path = config.out_csv

    if out_path:
        write_text(out_path, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        config = _config_from_args(args)
    except (ValueError, FahpError) as exc:
        print(f"fahp: config: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    try:
        if args.command == "rank":
            return cmd_rank(config)
        if args.command == "check":
            return cmd_check(config)
        return cmd_dump(config, args.dump)
    except GateRejected as exc:
        print(f"fahp: consistency: {exc}", file=sys.stderr)
        return EXIT_GATE_REJECTED
    except PipelineError as exc:
        print(f"fahp: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except FileNotFoundError as exc:
        print(f"fahp: input: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except FahpError as exc:
        print(f"fahp: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except BrokenPipeError:
        # downstream consumer (head, less) closed the pipe; not an error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
