"""Command-line entry points: rank, check, dump.

Exit codes: 0 success, 1 input, configuration or output error, 2 when the
consistency-ratio gate rejects the comparison matrix.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import (
    FahpError,
    GateRejected,
    ScaledScoreOverflow,
    UnwritableOutput,
)
from .consistency import MODES
from .pipeline import (
    RunConfig,
    extents_stage,
    fuzzify_stage,
    run,
    run_to_comparison,
    run_to_consistency,
    run_to_normalized,
)
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


# each command's flags in help order, with their add_argument keywords: the
# only definition, which build_parser and _plain_args both read
_INPUT_FLAGS = {
    "--input": {"required": True, "help": "ratings CSV path"},
    "--schema": {
        "default": RunConfig.schema,
        "help": "JSON schema override mapping CSV columns to criterion labels",
    },
    "--ir-mode": {
        "choices": MODES,
        "default": RunConfig.ir_mode,
        "help": "random-index source: Saaty table, or the compatibility "
        "constant 180 with a forced principal value of 1",
    },
    "--derivation": {
        "default": RunConfig.derivation,
        "help": "comparison-derivation rule name: mean_gap or uniform",
    },
}

# command -> (its line in the top-level help, its flags)
_COMMANDS = {
    "rank": (
        "run the full pipeline and emit the ranking report",
        {
            **_INPUT_FLAGS,
            "--report-scale": {
                "type": float,
                "default": RunConfig.report_scale,
                "help": "factor applied to reported scores (report only, default "
                "%(default)g)",
            },
            "--out-json": {"help": "write the full report as JSON"},
            "--out-csv": {"help": "write the ranking rows as CSV"},
            "--out-svg": {"help": "write a bar chart of the scores"},
            "--mse-tol": {
                "type": float,
                "default": RunConfig.mse_tol,
                "help": "validation tolerance for the pipeline-vs-reference MSE",
            },
            "--force": {
                "action": "store_true",
                "default": RunConfig.force,
                "help": "continue past a failed consistency gate",
            },
        },
    ),
    "check": (
        "run through the consistency stage and print the report",
        _INPUT_FLAGS,
    ),
    "dump": (
        "write one intermediate stage artifact",
        {
            **_INPUT_FLAGS,
            "--dump": {
                "required": True,
                "choices": DUMP_STAGES,
                "metavar": "STAGE",
                "help": f"stage to dump: one of {', '.join(DUMP_STAGES)}",
            },
            "--out-json": {"help": "write the fuzzy dump as JSON instead of to stdout"},
            "--out-csv": {"help": "write any other dump as CSV instead of to stdout"},
        },
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The full grammar, one sub-parser per command of _COMMANDS. Help, usage
    errors and exit codes come from it; _plain_args reads argv without it."""
    parser = _Parser(prog="fahp", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (summary, flags) in _COMMANDS.items():
        sub_parser = commands.add_parser(name, help=summary)
        for flag, keywords in flags.items():
            sub_parser.add_argument(flag, **keywords)
    return parser


def _unwritten_output(args: argparse.Namespace) -> str | None:
    """The fuzzy dump writes only --out-json and every other dump only
    --out-csv; the flag a stage would not write is a usage error."""
    if args.command != "dump":
        return None
    if args.dump == "fuzzy" and args.out_csv is not None:
        return (
            "argument --out-csv: only --dump normalized, comparison or extents "
            "takes it, not --dump fuzzy"
        )
    if args.dump != "fuzzy" and args.out_json is not None:
        return f"argument --out-json: only --dump fuzzy takes it, not --dump {args.dump}"
    return None


def _plain_args(argv: list[str]) -> argparse.Namespace | None:
    """The tree's Namespace for a plain command line, else None: a command,
    then its flags spelled in full, each but --force followed by a value not
    starting with "-" that passes the flag's type and choices, every required
    flag given, and no dump output that _unwritten_output refuses."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    flags = _COMMANDS[argv[0]][1]
    given = {}
    words = iter(argv[1:])
    for flag in words:
        keywords = flags.get(flag)
        if keywords is None:
            return None
        if keywords.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(words, None)
        if value is None or value.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        given[flag] = value
    if any(k.get("required") and f not in given for f, k in flags.items()):
        return None
    args = argparse.Namespace(command=argv[0])
    for flag, keywords in flags.items():
        dest = flag[2:].replace("-", "_")
        setattr(args, dest, given.get(flag, keywords.get("default")))
    return None if _unwritten_output(args) else args


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """A plain command line is read from the flag table alone; any other argv
    goes through the full tree, so help, usage errors and exit codes read as
    the tree's."""
    args = _plain_args(argv)
    if args is None:
        parser = build_parser()
        args = parser.parse_args(argv)
        refusal = _unwritten_output(args)
        if refusal is not None:
            parser.error(refusal)
    return args


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**{k: v for k, v in vars(args).items() if k in RunConfig._fields})


def _write_output(path: str, text: str) -> None:
    try:
        write_text(path, text)
    except OSError as exc:
        raise UnwritableOutput(path, exc.strerror or str(exc)) from exc


def cmd_rank(config: RunConfig, args: argparse.Namespace) -> int:
    result = run(config)
    report = result.report
    for row in report.rows:
        for value in (row.score_real, row.score_normalized):
            if not math.isfinite(value * config.report_scale):
                raise ScaledScoreOverflow(row.label, config.report_scale)
    echo = config.echo()
    # an empty path is written to, and refused as unwritable
    if args.out_json is not None:
        _write_output(args.out_json, render_json(report, echo, config.report_scale))
    if args.out_csv is not None:
        _write_output(args.out_csv, render_ranking_csv(report, config.report_scale))
    if args.out_svg is not None:
        _write_output(args.out_svg, render_scores_svg(report, config.report_scale))

    cons = report.consistency
    lines = [f"consistency: cr = {cons.cr:.4f}, accepted = {str(cons.accepted).lower()}"]
    for row in report.rows:
        real = row.score_real * config.report_scale
        lines.append(f"{row.rank:3d}  {row.label:<24}  {real:.4f}")
    lines.append(f"mse vs reference: {report.mse:.3e} (tolerance {config.mse_tol:g})")
    print("\n".join(lines))
    for failure in result.validation.failures:
        print(f"fahp: validation: {failure}", file=sys.stderr)
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


def cmd_dump(config: RunConfig, args: argparse.Namespace) -> int:
    # dumps are for audit and never write the gate's output, so no stage
    # runs the consistency check; each runs only the stages it prints
    if args.dump == "normalized":
        matrix, normalized = run_to_normalized(config)
        text = render_matrix_csv(
            [matrix.id_column, *matrix.source_columns],
            matrix.row_ids,
            normalized.values,
        )
    else:
        result = run_to_comparison(config)
        criteria = result.matrix.criteria
        if args.dump == "comparison":
            text = render_matrix_csv(
                ["criterion", *criteria], criteria, result.comparison.entries
            )
        elif args.dump == "fuzzy":
            text = render_fuzzy_json(criteria, fuzzify_stage(result.comparison))
        else:
            extents = extents_stage(fuzzify_stage(result.comparison))
            text = render_matrix_csv(["label", "l", "m", "u"], criteria, extents)

    out_path = args.out_json if args.dump == "fuzzy" else args.out_csv
    if out_path is not None:
        _write_output(out_path, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        config = _config_from_args(args)
    except (ValueError, FahpError) as exc:
        print(f"fahp: config: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    try:
        if args.command == "rank":
            return cmd_rank(config, args)
        if args.command == "check":
            return cmd_check(config)
        return cmd_dump(config, args)
    except GateRejected as exc:
        print(f"fahp: consistency: {exc}", file=sys.stderr)
        return EXIT_GATE_REJECTED
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
