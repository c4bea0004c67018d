"""A run builds its comparison matrix from scale codes.

The derivation rule returns the codes, so no command matches a float to
the scale: with the float matcher made to raise, every command still
runs, and a run whose comparison matrix is rebuilt from the same floats
writes the same bytes. The codes are one record, checked once per run:
fuzzify returns it as it is, and its crisp entries are gathered from it.
"""

import contextlib
import io
import os
import re
import sys

import numpy as np
import pytest

from fahp import ComparisonMatrix, FuzzyComparisonMatrix, build_comparison, fuzzify
from fahp import pipeline, tfn
from fahp.cli import EXIT_INPUT_ERROR, EXIT_OK, main
from fahp.consistency import DERIVATION_RULES

from conftest import REPO_ROOT

if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from perfbench.inputs import write_wide  # noqa: E402

# each command, its input flags left out; files go to the working directory
COMMANDS = {
    "rank": [
        "rank", "--out-json", "report.json", "--out-csv", "ranking.csv",
        "--out-svg", "scores.svg",
    ],
    "rank-uniform": ["rank", "--derivation", "uniform", "--out-json", "uniform.json"],
    "check": ["check"],
    **{
        f"dump-{stage}": ["dump", "--dump", stage]
        for stage in ("normalized", "comparison", "fuzzy", "extents")
    },
    "dump-comparison-file": ["dump", "--dump", "comparison", "--out-csv", "comparison.csv"],
    "dump-fuzzy-file": ["dump", "--dump", "fuzzy", "--out-json", "fuzzy.json"],
}


@pytest.fixture(params=["paper", "wide"])
def input_flags(request, tmp_path, monkeypatch):
    """The input flags of the shipped dataset or of a 200-criterion file;
    the working directory is an empty one, for the outputs."""
    if request.param == "paper":
        flags = ["--input", str(request.getfixturevalue("dataset_path"))]
    else:
        inputs = write_wide(REPO_ROOT, tmp_path, 7)
        flags = [
            str(tmp_path / flag) if flag.endswith((".csv", ".json")) else flag
            for flag in inputs.flags
        ]
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.chdir(out)
    return flags


def outcome(flags, command):
    """Exit code, stdout, stderr and the bytes of every file written, which
    is then removed."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([command[0], *flags, *command[1:]])
    files = {}
    for name in sorted(os.listdir(".")):
        with open(name, "rb") as fh:
            files[name] = fh.read()
        os.unlink(name)
    return code, stdout.getvalue(), stderr.getvalue(), files


def float_built(monkeypatch):
    """Make every run rebuild its comparison matrix from the floats of the
    code-built one; returns the list the float matcher appends to."""
    build = pipeline.build_comparison
    match = tfn._match_codes
    calls = []

    def rebuilt(means, rule):
        return ComparisonMatrix(entries=build(means, rule=rule).entries.copy())

    def counted(crisp):
        calls.append(len(crisp))
        return match(crisp)

    monkeypatch.setattr(pipeline, "build_comparison", rebuilt)
    monkeypatch.setattr(tfn, "_match_codes", counted)
    return calls


@pytest.mark.parametrize("command", COMMANDS.values(), ids=list(COMMANDS))
def test_no_command_matches_a_float(input_flags, command, monkeypatch):
    def refuse(crisp):
        raise AssertionError("the float matcher ran on a code-built matrix")

    monkeypatch.setattr(tfn, "_match_codes", refuse)
    code, _, err, files = outcome(input_flags, command)
    assert (code, err) == (EXIT_OK, "")
    assert len(files) == sum(word.startswith("--out-") for word in command)


@pytest.mark.parametrize("command", COMMANDS.values(), ids=list(COMMANDS))
def test_a_float_built_matrix_gives_the_same_bytes(input_flags, command, monkeypatch):
    from_codes = outcome(input_flags, command)
    calls = float_built(monkeypatch)
    from_floats = outcome(input_flags, command)
    assert from_floats == from_codes
    # the rebuilt matrix reached the float matcher wherever a stage fuzzifies
    fuzzifies = command[0] == "rank" or command[-1] in ("fuzzy", "extents", "fuzzy.json")
    assert bool(calls) == fuzzifies


def _not_mirrored(codes):
    # (0, 1) holds intensity 2, so (1, 0) must hold its inverse, code 9
    codes[0, 1] = 1


def _past_the_table(codes):
    codes[0, 1], codes[1, 0] = 17, 9


@pytest.mark.parametrize(
    "edit, dtype, message",
    [
        (_not_mirrored, np.uint8, r"codes violate reciprocity at \(0, 1\)"),
        (_past_the_table, np.int64, r"codes must lie in 0\.\.16"),
        (lambda codes: None, float, "codes must be integers, got float64"),
    ],
    ids=["not-mirrored", "past-the-table", "floats"],
)
def test_a_rule_whose_codes_fail_the_check_is_refused(
    dataset_path, edit, dtype, message, monkeypatch, capsys
):
    def rule(means):
        codes = np.zeros((means.size, means.size), dtype=dtype)
        edit(codes)
        return codes

    monkeypatch.setitem(DERIVATION_RULES, "edited_test", rule)
    code = main(["rank", "--input", str(dataset_path), "--derivation", "edited_test"])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT_ERROR
    assert captured.out == ""
    assert re.fullmatch(f"fahp: comparison: {message}.*\n", captured.err)


@pytest.mark.parametrize("rule", ["mean_gap", "uniform"])
@pytest.mark.parametrize("n", [2, 10, 200])
def test_the_built_matrix_is_the_one_record(n, rule):
    means = np.random.default_rng(n).uniform(0.0, 5.0, size=n)
    comparison = build_comparison(means, rule=rule)
    assert fuzzify(comparison) is comparison
    entries = comparison.entries
    assert entries.tobytes() == tfn.CRISP[comparison.codes].tobytes()
    with pytest.raises(ValueError, match="read-only"):
        entries[0, 1] = 2.0
    # a float-built matrix carries no codes; its floats match the rule's
    float_built = ComparisonMatrix(entries=entries.copy())
    assert not hasattr(float_built, "codes")
    assert fuzzify(float_built).codes.tobytes() == comparison.codes.tobytes()


@pytest.mark.parametrize("command", COMMANDS.values(), ids=list(COMMANDS))
def test_the_codes_are_checked_once_per_command(input_flags, command, monkeypatch):
    checks, fuzzified = [], []
    post_init = FuzzyComparisonMatrix.__post_init__
    stage = pipeline.fuzzify

    def counted(self):
        checks.append(self)
        post_init(self)

    def recorded(comparison):
        fuzzified.append((comparison, stage(comparison)))
        return fuzzified[-1][1]

    monkeypatch.setattr(FuzzyComparisonMatrix, "__post_init__", counted)
    monkeypatch.setattr(pipeline, "fuzzify", recorded)
    code, _, err, _ = outcome(input_flags, command)
    assert (code, err) == (EXIT_OK, "")
    assert len(checks) == (0 if command[-1] == "normalized" else 1)
    # the stages that fuzzify get back the record the comparison stage checked
    assert all(given is result is checks[0] for given, result in fuzzified)


@pytest.mark.parametrize("order", [3, 11])
@pytest.mark.parametrize(
    "command",
    [["check"], ["rank"], ["dump", "--dump", "comparison"]],
    ids=["check", "rank", "dump-comparison"],
)
def test_a_rule_of_the_wrong_order_is_refused(
    dataset_path, command, order, monkeypatch, capsys
):
    # the shipped dataset has 10 criteria
    def rule(means):
        return np.zeros((order, order), dtype=np.uint8)

    monkeypatch.setitem(DERIVATION_RULES, "wrong_order_test", rule)
    argv = [command[0], "--input", str(dataset_path), "--derivation", "wrong_order_test"]
    code = main([*argv, *command[1:]])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT_ERROR
    assert captured.out == ""
    assert captured.err == (
        "fahp: comparison: rule 'wrong_order_test' gave codes of shape "
        f"({order}, {order}) for 10 means\n"
    )
