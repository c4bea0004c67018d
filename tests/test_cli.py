"""Command-line behavior, exercised in process through main(argv)."""

import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fahp import (
    DatasetSchema,
    RunConfig,
    fuzzify,
    load_csv,
    normalize,
    run,
    synthetic_extents,
)
from fahp import cli, pipeline
from fahp.cli import EXIT_GATE_REJECTED, EXIT_INPUT_ERROR, EXIT_OK, main
from fahp.consistency import DERIVATION_RULES
from fahp.report import render_fuzzy_json, render_json, render_matrix_csv
from fahp.tfn import MIRROR

import oracle
from conftest import ID_CELLS, NEEDS_DEV_FD, REPO_ROOT, piped


def schema_json(columns, id_column="ID"):
    return json.dumps({"id_column": id_column, "criteria_columns": columns})


SMALL_CSV = "ID,c1,c2\nu1,1.0,3.0\nu2,2.0,4.0\nu3,3.0,2.0\n"
SMALL_SCHEMA = schema_json({"c1": "First", "c2": "Second"})

# column means 1, 2 and 3: the mean-gap rule rates the pairs 5, 5 and 9,
# and the standard gate rejects that matrix with CR = 0.10095
TRIO_CSV = "ID,c1,c2,c3\nu1,0.5,1.5,2.5\nu2,1.5,2.5,3.5\n"
TRIO_SCHEMA = schema_json({"c1": "First", "c2": "Second", "c3": "Third"})


@pytest.fixture
def small_inputs(tmp_path):
    csv_path = tmp_path / "ratings.csv"
    csv_path.write_text(SMALL_CSV, encoding="utf-8")
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(SMALL_SCHEMA, encoding="utf-8")
    return str(csv_path), str(schema_path)


@pytest.fixture
def trio_inputs(tmp_path):
    csv_path = tmp_path / "trio.csv"
    csv_path.write_text(TRIO_CSV, encoding="utf-8")
    schema_path = tmp_path / "trio_schema.json"
    schema_path.write_text(TRIO_SCHEMA, encoding="utf-8")
    return str(csv_path), str(schema_path)


class Prefix(str):
    """Stderr pinned by the start of its one line; the rest is a Python error's text."""


class Usage(str):
    """The last stderr line of a usage error; argparse wraps the usage to COLUMNS."""


def refusal(argv, err, *, code=EXIT_INPUT_ERROR, out="", ratings=SMALL_CSV, schema=SMALL_SCHEMA):
    return argv, ratings, schema, code, out, err


RANK = "rank --input ../ratings.csv --schema ../schema.json"
OVERSIZED = "9" * 200_000
UNREADABLE = (
    "fahp: ingest: row 1: CSV record cannot be read: field larger than field limit (131072)\n"
)
OBJECT = "schema must be a JSON object with a string 'id_column'"
MAPPING = "schema 'criteria_columns' must be an object mapping CSV columns to criterion labels"
SCALE = "report_scale must be finite and positive"
LABEL = "schema maps column 'c2' to {}: columns and labels must be strings"

# case id -> (schema.json, what it is refused for)
MALFORMED_SCHEMAS = {
    "list": ("[]", OBJECT),
    "null": ("null", OBJECT),
    "string": ('"text"', OBJECT),
    "no-id": ('{"criteria_columns": {"c1": "First", "c2": "Second"}}', OBJECT),
    "numeric-id": (schema_json({"c1": "First", "c2": "Second"}, id_column=3), OBJECT),
    "number-columns": (schema_json(5), MAPPING),
    "short-pair": (schema_json([["c1"], ["c2", "Second"]]), MAPPING),
    "string-pairs": (schema_json(["c1", "c2"]), MAPPING),
    "pairs": (schema_json([["c1", "First"], ["c2", "Second"]]), MAPPING),
    "null-label": (schema_json({"c1": "First", "c2": None}), LABEL.format("None")),
    "number-label": (schema_json({"c1": "First", "c2": 2}), LABEL.format("2")),
    "list-label": (schema_json({"c1": "First", "c2": ["x"]}), LABEL.format("['x']")),
}

# the CLI's refusals by test id: (argv, ratings.csv, schema.json, exit code,
# stdout, stderr). The argv is split on spaces and run in an empty
# directory; its parent holds the two inputs.
REFUSALS = {
    "TestInputErrors::test_missing_input_file": refusal(
        "rank --input /no/such/file.csv",
        "fahp: ingest: [Errno 2] No such file or directory: '/no/such/file.csv'\n",
    ),
    **{
        f"TestInputErrors::test_missing_schema_file[{command}]": refusal(
            f"{command} --input ../ratings.csv --schema ../no_schema.json{extra}",
            "fahp: ingest: [Errno 2] No such file or directory: '../no_schema.json'\n",
        )
        for command, extra in [("rank", ""), ("check", ""), ("dump", " --dump normalized")]
    },
    # valid JSON that spells a lone surrogate, which no output can encode
    **{
        f"TestInputErrors::test_schema_label_that_is_not_utf8_is_refused[{flag}]": refusal(
            f"{RANK} {flag} out",
            "fahp: ingest: schema name '\\udc80' is not UTF-8 text\n",
            schema=schema_json({"c1": "\udc80", "c2": "Second"}),
        )
        for flag in ["--out-json", "--out-csv"]
    },
    "TestInputErrors::test_missing_required_flag": refusal(
        "rank", Usage("fahp rank: error: the following arguments are required: --input")
    ),
    "TestInputErrors::test_unknown_command": refusal(
        "frobnicate --input x.csv",
        Usage(
            "fahp: error: argument command: invalid choice: 'frobnicate' "
            "(choose from 'rank', 'check', 'dump')"
        ),
    ),
    "TestDump::test_stage_flag_required": refusal(
        "dump --input ../ratings.csv --schema ../schema.json",
        Usage("fahp dump: error: the following arguments are required: --dump"),
    ),
    "TestInputErrors::test_single_criterion_schema": refusal(
        RANK,
        "fahp: ingest: need at least 2 criteria, got 1\n",
        ratings="ID,c1\nu1,1.0\n",
        schema=schema_json({"c1": "Only"}),
    ),
    "TestInputErrors::test_missing_column": refusal(
        RANK, "fahp: ingest: column 'c2' not found in the CSV header\n", ratings="ID,c1\nu1,1.0\n"
    ),
    "TestInputErrors::test_repeated_header_column": refusal(
        RANK,
        "fahp: ingest: column 'c1' appears more than once in the CSV header\n",
        ratings="ID,c1,c2,c1\nu1,1.0,2.0,3.0\n",
    ),
    "TestInputErrors::test_unreadable_record": refusal(
        RANK, UNREADABLE, ratings=f"ID,c1,c2\nu1,1.0,{OVERSIZED}\n"
    ),
    "TestInputErrors::test_unusable_file_prints_one_line[header-only]": refusal(
        RANK, "fahp: ingest: ../ratings.csv: no data rows\n", ratings="ID,c1,c2\n"
    ),
    "TestInputErrors::test_unusable_file_prints_one_line[oversized-id]": refusal(
        RANK, UNREADABLE, ratings=f"ID,c1,c2\n{OVERSIZED},1.0,2.0\n"
    ),
    "TestInputErrors::test_unusable_file_prints_one_line[oversized-unused]": refusal(
        RANK, UNREADABLE, ratings=f"ID,c1,c2,x\nu1,1.0,2.0,{OVERSIZED}\n"
    ),
    "TestInputErrors::test_out_of_range_cell": refusal(
        RANK,
        "fahp: ingest: row 1, column 'c2': value 5.0 outside [0, 4]\n",
        ratings="ID,c1,c2\nu1,1.0,5.0\n",
    ),
    "TestInputErrors::test_non_numeric_cell": refusal(
        RANK,
        "fahp: ingest: row 1, column 'c2': cell 'abc' is not a number\n",
        ratings="ID,c1,c2\nu1,1.0,abc\n",
    ),
    # -1 starts with "-", so the full tree reads it, as a number
    **{
        f"TestInputErrors::test_nonpositive_report_scale[{scale}]": refusal(
            f"{RANK} --report-scale {scale}",
            f"fahp: config: {SCALE}\n",
        )
        for scale in ["0", "-1"]
    },
    **{
        f"TestInputErrors::test_non_finite_output_is_refused[{case}]": refusal(
            f"{RANK} {flags} --out-json=r.json --out-csv=r.csv --out-svg=r.svg", f"fahp: {err}\n"
        )
        for case, flags, err in [
            ("infinite-scale", "--report-scale inf", f"config: {SCALE}"),
            ("infinite-tolerance", "--mse-tol inf", "config: mse_tol must be finite and positive"),
            (
                "overflowing-scale",
                "--report-scale 1.6e308",
                "report: scale 1.6e+308 makes the score of 'Second' non-finite",
            ),
        ]
    },
    **{
        f"TestInputErrors::test_malformed_schema_document[{case}]": refusal(
            RANK, f"fahp: ingest: {err}\n", schema=text
        )
        for case, (text, err) in MALFORMED_SCHEMAS.items()
    },
    **{
        f"TestInputErrors::test_unreadable_schema_json[{case}]": refusal(
            RANK, Prefix("fahp: ingest: schema ../schema.json is not readable JSON: "), schema=text
        )
        for case, text in [("deeply-nested", "[" * 200_000), ("truncated", '{"id_column": ')]
    },
    # json keeps the last value of a repeated key, so each of these would
    # rank a schema the file does not say
    **{
        f"TestInputErrors::test_repeated_schema_key_is_refused[{case}]": refusal(
            RANK, f"fahp: ingest: schema repeats the key {key!r}\n", schema=text
        )
        for case, key, text in [
            (
                "criteria-column",
                "c2",
                '{"id_column": "ID", "criteria_columns": '
                '{"c1": "First", "c2": "Second", "c2": "Third"}}',
            ),
            (
                "top-level",
                "id_column",
                '{"id_column": "c1", "criteria_columns": '
                '{"c1": "First", "c2": "Second"}, "id_column": "ID"}',
            ),
        ]
    },
    "TestGate::test_rank_stops_at_rejected_gate": refusal(
        RANK,
        "fahp: consistency: consistency ratio 0.1009 exceeds the 0.1 limit\n",
        code=EXIT_GATE_REJECTED,
        ratings=TRIO_CSV,
        schema=TRIO_SCHEMA,
    ),
    "TestCheck::test_rejection_exits_2": refusal(
        "check --input ../ratings.csv --schema ../schema.json",
        "",
        code=EXIT_GATE_REJECTED,
        out="lambda_max: 3.1171\nn: 3\nci: 0.0585\nir: 0.5800\ncr: 0.1009\naccepted: false\n",
        ratings=TRIO_CSV,
        schema=TRIO_SCHEMA,
    ),
}


def assert_refusal(tmp_path, monkeypatch, capsys, argv, ratings, schema, code, out, err):
    (tmp_path / "ratings.csv").write_text(ratings, encoding="utf-8")
    (tmp_path / "schema.json").write_text(schema, encoding="utf-8")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv.split()) == code
    captured = capsys.readouterr()
    assert captured.out == out
    if isinstance(err, Usage):
        assert captured.err.startswith("usage: fahp")
        assert captured.err.endswith(f"\n{err}\n")
    elif isinstance(err, Prefix):
        assert captured.err.startswith(err)
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    else:
        assert captured.err == err
    assert os.listdir(work) == []
    assert caught == []


def with_refusals(cls):
    """Add to cls the REFUSALS rows whose ids name it, under those ids; a
    test whose ids end in [case] is parametrized by its cases."""
    tests = {}
    for test_id, row in REFUSALS.items():
        owner, _, test = test_id.partition("::")
        name, _, case = test.partition("[")
        if owner == cls.__name__:
            tests.setdefault(name, {})[case.rstrip("]")] = row
    for name, rows in tests.items():
        if list(rows) == [""]:
            def test(self, tmp_path, monkeypatch, capsys, _row=rows[""]):
                assert_refusal(tmp_path, monkeypatch, capsys, *_row)
        else:
            @pytest.mark.parametrize("row", list(rows.values()), ids=list(rows))
            def test(self, tmp_path, monkeypatch, capsys, row):
                assert_refusal(tmp_path, monkeypatch, capsys, *row)
        setattr(cls, name, test)
    return cls


class TestRank:
    def test_defaults_write_full_report(self, dataset_path, tmp_path, capsys):
        out_json = tmp_path / "report.json"
        out_csv = tmp_path / "ranking.csv"
        out_svg = tmp_path / "scores.svg"
        code = main(
            [
                "rank",
                "--input", str(dataset_path),
                "--out-json", str(out_json),
                "--out-csv", str(out_csv),
                "--out-svg", str(out_svg),
            ]
        )
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith("consistency: cr = ")
        assert "accepted = true" in captured.out.splitlines()[0]
        assert "mse vs reference:" in captured.out
        assert captured.err == ""

        doc = json.loads(out_json.read_text(encoding="utf-8"))
        assert list(doc) == ["consistency", "weights", "ranking", "mse", "config_echo"]
        assert len(doc["ranking"]) == 10
        assert doc["ranking"][0]["rank"] == 1
        assert doc["ranking"][0]["label"] == "Parks/Picnic Spots"
        assert {"label", "weight", "d_prime"} == set(doc["weights"][0])
        assert doc["mse"] <= 1e-3

        csv_lines = out_csv.read_text(encoding="utf-8").splitlines()
        assert csv_lines[0] == "rank,label,score_real,score_normalized"
        assert len(csv_lines) == 11

        svg = out_svg.read_text(encoding="utf-8")
        assert svg.startswith("<svg ")
        assert svg.count("<rect ") == 10

    def test_uniform_scaled_scores_match_published_means(
        self, dataset_path, tmp_path, published_means
    ):
        out_json = tmp_path / "report.json"
        code = main(
            [
                "rank",
                "--input", str(dataset_path),
                "--derivation", "uniform",
                "--report-scale", "10",
                "--out-json", str(out_json),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(out_json.read_text(encoding="utf-8"))
        for row in doc["ranking"]:
            assert row["score_real"] == pytest.approx(
                published_means[row["label"]], abs=1e-3
            )
        assert doc["ranking"][0]["score_real"] == pytest.approx(3.1809, abs=1e-3)

    def test_optimized_interpreter_writes_the_same_report(self, dataset_path, tmp_path):
        # python -O strips assert statements; no invariant may rest on one
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        artifacts = {
            "--out-json": "report.json",
            "--out-csv": "ranking.csv",
            "--out-svg": "scores.svg",
        }
        outputs = []
        for flags in ([], ["-O"]):
            out = tmp_path / ("optimized" if flags else "plain")
            out.mkdir()
            done = subprocess.run(
                [
                    sys.executable, *flags, "-m", "fahp.cli", "rank",
                    "--input", str(dataset_path),
                    *(f"{flag}={out / name}" for flag, name in artifacts.items()),
                ],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert done.returncode == EXIT_OK, done.stderr
            outputs.append([(out / name).read_bytes() for name in artifacts.values()])
        assert outputs[0] == outputs[1]

    def test_report_bytes_do_not_depend_on_the_cpu_kernels(self, dataset_path, tmp_path):
        # OpenBLAS picks its kernels by core type and numpy by CPU feature;
        # neither may change a report byte. A core type runs only where
        # the CPU has its features, and a mask names only features the
        # running numpy dispatches.
        try:
            from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        except ImportError:  # numpy < 2
            from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        base = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        base.pop("OPENBLAS_CORETYPE", None)
        base.pop("NPY_DISABLE_CPU_FEATURES", None)
        settings = [{}]
        for core, needs in [
            ("Prescott", ("SSE3",)),
            ("Sandybridge", ("AVX",)),
            ("Haswell", ("AVX2", "FMA3")),
        ]:
            if all(__cpu_features__.get(f) for f in needs):
                settings.append({"OPENBLAS_CORETYPE": core})
        # every dispatched feature, and the upper half of the list alone
        dispatched = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
        masks = {" ".join(dispatched), " ".join(dispatched[len(dispatched) // 2:])}
        settings += [{"NPY_DISABLE_CPU_FEATURES": mask} for mask in sorted(masks) if mask]
        reports = []
        for number, setting in enumerate(settings):
            out = tmp_path / f"report{number}.json"
            done = subprocess.run(
                [
                    sys.executable, "-m", "fahp.cli", "rank",
                    "--input", str(dataset_path), "--out-json", str(out),
                ],
                env={**base, **setting},
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert done.returncode == EXIT_OK, (setting, done.stderr)
            reports.append(out.read_bytes())
        for setting, report in zip(settings[1:], reports[1:]):
            assert report == reports[0], setting

    def test_config_echo_reproduces_the_report(self, dataset_path, tmp_path):
        out_json = tmp_path / "report.json"
        main(
            [
                "rank",
                "--input", str(dataset_path),
                "--derivation", "uniform",
                "--report-scale", "10",
                "--out-json", str(out_json),
            ]
        )
        text = out_json.read_text(encoding="utf-8")
        echo = json.loads(text)["config_echo"]
        config = RunConfig(**echo)
        assert config.echo() == echo
        result = run(config)
        assert render_json(result.report, config.echo(), config.report_scale) == text

    @pytest.mark.parametrize("flag", ["--input", "--schema"])
    @pytest.mark.parametrize("byte", [b"\xff", "\u00e9".encode()], ids=["not-utf8", "utf8"])
    def test_file_name_round_trips_through_the_report(
        self, dataset_path, tmp_path, capsys, flag, byte
    ):
        # Python reads the byte 0xff of a name as the lone surrogate \udcff
        # and writes it back as 0xff; the report holds its JSON escape
        name = str(tmp_path / os.fsdecode(b"r" + byte + b".dat"))
        source = {
            "--input": dataset_path,
            "--schema": resources.files("fahp.data") / "travel_reviews_schema.json",
        }[flag]
        try:
            with open(name, "wb") as fh:
                fh.write(source.read_bytes())
        except (OSError, UnicodeEncodeError):
            pytest.skip("the filesystem refuses the name")
        inputs = {"--input": str(dataset_path), flag: name}
        out_json = tmp_path / "report.json"
        argv = ["rank", *(x for pair in inputs.items() for x in pair)]
        assert main([*argv, "--out-json", str(out_json)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        text = out_json.read_bytes().decode("utf-8")
        if byte == b"\xff":
            assert "\\udcff" in text
        else:
            assert "\u00e9" in text
        echo = json.loads(text)["config_echo"]
        assert echo[flag[2:]] == name
        config = RunConfig(**echo)
        assert render_json(run(config).report, config.echo()) == text

    def test_mse_above_the_tolerance_is_reported_not_fatal(self, dataset_path, capsys):
        # the dataset's mse is about 3.6e-31
        code = main(["rank", "--input", str(dataset_path), "--mse-tol", "1e-300"])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 12
        assert lines[1].split()[:3] == ["1", "Parks/Picnic", "Spots"]
        assert lines[-1].endswith("(tolerance 1e-300)")
        assert captured.err == "fahp: validation: mse exceeds the configured tolerance\n"

    def test_stdout_scores_use_report_scale(self, small_inputs, capsys):
        csv_path, schema_path = small_inputs
        code = main(
            [
                "rank",
                "--input", csv_path,
                "--schema", schema_path,
                "--derivation", "uniform",
                "--report-scale", "100",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        # column means are 2 and 3; each uniform weight is 0.5
        assert "Second" in out
        assert "150.0000" in out
        assert "100.0000" in out


@with_refusals
class TestCheck:
    def test_compat_mode_prints_forced_diagnostics(self, dataset_path, capsys):
        code = main(
            ["check", "--input", str(dataset_path), "--ir-mode", "paper_compat"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "lambda_max: 1.0000" in out
        assert "ci: -1.0000" in out
        assert "ir: 180.0000" in out
        assert "cr: -0.0056" in out
        assert "accepted: true" in out
        warnings = [line for line in out.splitlines() if line.startswith("warning:")]
        assert len(warnings) == 2

    def test_two_criteria_are_always_consistent(self, small_inputs, capsys):
        csv_path, schema_path = small_inputs
        code = main(["check", "--input", csv_path, "--schema", schema_path])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "n: 2" in out
        assert "cr: 0.0000" in out
        assert "accepted: true" in out

    def test_order_past_the_table_refused_before_the_power_iteration(
        self, tmp_path, monkeypatch, capsys
    ):
        def no_iteration(c):
            raise AssertionError("lambda_max ran")

        columns = [f"c{j}" for j in range(11)]
        rows = [
            ",".join([f"u{i}", *(str((i * 7 + j * 3) % 9 * 0.5) for j in range(11))])
            for i in range(5)
        ]
        csv_path = tmp_path / "eleven.csv"
        csv_path.write_text(
            "\n".join([",".join(["ID", *columns]), *rows]) + "\n", encoding="utf-8"
        )
        schema_path = tmp_path / "eleven_schema.json"
        schema_path.write_text(schema_json({c: c.upper() for c in columns}), encoding="utf-8")
        monkeypatch.setattr("fahp.consistency.lambda_max", no_iteration)
        code = main(["check", "--input", str(csv_path), "--schema", str(schema_path)])
        assert code == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "fahp: consistency: no random index for order 11; table covers 1..10\n"
        )


@with_refusals
class TestGate:
    def test_force_pushes_past_the_gate(self, trio_inputs, capsys):
        csv_path, schema_path = trio_inputs
        code = main(
            [
                "rank",
                "--input", csv_path,
                "--schema", schema_path,
                "--force",
            ]
        )
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith("consistency: cr = 0.1009, accepted = false\n")
        assert "mse vs reference:" in captured.out
        assert captured.err == ""


SHIPPED = REPO_ROOT / "data" / "travel_reviews_surrogate.csv"


def floored_mean_gap(means):
    """The mean-gap rule with its bins floored instead of rounded half up."""
    span = float(means.max()) - float(means.min())
    steps = np.floor(8.0 * (means[:, None] - means[None, :]) / span)
    direct = np.clip(steps, 0.0, 8.0).astype(np.uint8)
    return direct + MIRROR.take(direct.T)


class TestCrossCheck:
    """The oracle re-derives the comparison from the means, so a defect
    before the comparison stage prints `fahp: validation:` lines; the
    report keeps its shape and the exit code stays 0."""

    def rank(self, argv, tmp_path, capsys, criteria=10):
        """The stderr lines of a rank that exits 0 with a full report."""
        out_json = tmp_path / "report.json"
        code = main(["rank", *argv, "--out-json", str(out_json)])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        # the gate line, one line per criterion, the mse line
        assert len(captured.out.splitlines()) == criteria + 2
        doc = json.loads(out_json.read_text(encoding="utf-8"))
        assert list(doc) == ["consistency", "weights", "ranking", "mse", "config_echo"]
        assert len(doc["ranking"]) == criteria
        return captured.err.splitlines()

    def test_floored_bins(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setitem(DERIVATION_RULES, "mean_gap", floored_mean_gap)
        assert self.rank(["--input", str(SHIPPED)], tmp_path, capsys) == [
            "fahp: validation: rank order differs from the reference at rank 5: "
            "Restaurants here, Art Galleries in the reference",
            "fahp: validation: zero scores differ from the reference for Restaurants",
        ]

    def test_medians_for_means(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(
            pipeline, "column_means", lambda m: np.median(m.values, axis=0)
        )
        err = self.rank(["--input", str(SHIPPED)], tmp_path, capsys)
        assert err == [
            "fahp: validation: means differ from the reference beyond summation "
            "error for Resorts, Parks/Picnic Spots, Beaches, Religious Institutions"
        ]

    def test_bin_edge_flip(self, tmp_path, capsys):
        # the means are 5/6, 25/12, 13/6 and 19/12 as floats; for D against
        # A, 8 * gap / span + 0.5 falls 4.2e-17 short of 5 in exact
        # arithmetic (intensity 5), and the float rule lands on 5 (intensity 6)
        rows = ["u1,1.25,4.0,0.25,0.25", "u2,0.25,1.0,3.0,3.25", "u3,1.0,1.25,3.25,1.25"]
        csv_path = tmp_path / "edge.csv"
        csv_path.write_text("\n".join(["ID,a,b,c,d", *rows]) + "\n", encoding="utf-8")
        schema_path = tmp_path / "edge_schema.json"
        schema_path.write_text(schema_json({c: c.upper() for c in "abcd"}), encoding="utf-8")
        argv = ["--input", str(csv_path), "--schema", str(schema_path)]
        assert self.rank(argv, tmp_path, capsys, criteria=4) == [
            "fahp: validation: mse exceeds the configured tolerance",
            "fahp: validation: rank order differs from the reference at rank 3: "
            "D here, A in the reference",
            "fahp: validation: zero scores differ from the reference for D",
        ]

    def test_rule_without_a_reference_is_refused(self, monkeypatch, capsys):
        monkeypatch.setitem(DERIVATION_RULES, "unchecked", DERIVATION_RULES["uniform"])
        code = main(["rank", "--input", str(SHIPPED), "--derivation", "unchecked"])
        assert code == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "fahp: validate: the reference has no derivation rule 'unchecked'; "
            "it knows mean_gap, uniform\n"
        )


@with_refusals
class TestInputErrors:
    @pytest.mark.parametrize(
        "argv",
        [["rank"], ["check"], *(["dump", "--dump", stage] for stage in cli.DUMP_STAGES)],
        ids=["rank", "check", *cli.DUMP_STAGES],
    )
    def test_unknown_derivation_rule_is_refused_before_ingest(
        self, small_inputs, monkeypatch, capsys, argv
    ):
        def no_ingest(*args, **kwargs):
            raise AssertionError("the input was read")

        monkeypatch.setattr(pipeline, "load_csv", no_ingest)
        csv_path, schema_path = small_inputs
        command, *flags = argv
        code = main(
            [
                command,
                "--input", csv_path,
                "--schema", schema_path,
                "--derivation", "nonsense",
                *flags,
            ]
        )
        assert code == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.err == (
            "fahp: config: unknown derivation rule 'nonsense'; "
            "known rules: mean_gap, uniform\n"
        )
        assert captured.out == ""


@with_refusals
class TestDump:
    def test_normalized_to_stdout(self, small_inputs, capsys):
        csv_path, schema_path = small_inputs
        code = main(
            [
                "dump",
                "--input", csv_path,
                "--schema", schema_path,
                "--dump", "normalized",
            ]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "ID,c1,c2"
        assert len(lines) == 4
        assert lines[1].startswith("u1,")
        assert lines[1].endswith(",0.75")

    @pytest.mark.parametrize(
        "ids",
        [("u1", "u2", "u3"), ("a\rb", "c,d", 'e"\nf')],
        ids=["plain", "quoted"],
    )
    def test_normalized_reads_back_bit_equal(self, tmp_path, ids):
        # -0.0 / max is -0.0, which a float-keyed dedup would print as 0.0
        quoted = ['"' + i.replace('"', '""') + '"' for i in ids]
        rows = [f"{quoted[0]},-0.0,1.0", f"{quoted[1]},2.0,0.0", f"{quoted[2]},1.0,4.0"]
        csv_path = tmp_path / "ratings.csv"
        csv_path.write_bytes(("ID,c1,c2\n" + "\n".join(rows) + "\n").encode("utf-8"))
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(SMALL_SCHEMA, encoding="utf-8")
        out_csv = tmp_path / "normalized.csv"
        code = main(
            [
                "dump",
                "--input", str(csv_path),
                "--schema", str(schema_path),
                "--dump", "normalized",
                "--out-csv", str(out_csv),
            ]
        )
        assert code == EXIT_OK
        with open(out_csv, newline="", encoding="utf-8") as fh:
            records = list(csv.reader(fh))
        expected = normalize(load_csv(csv_path, DatasetSchema.from_json(schema_path)))
        assert records[0] == ["ID", "c1", "c2"]
        assert [r[0] for r in records[1:]] == list(ids)
        assert records[1][1] == "-0.0"
        values = np.array([[float(cell) for cell in r[1:]] for r in records[1:]])
        assert values.tobytes() == expected.values.tobytes()

    def test_normalized_keeps_the_bytes_of_odd_ids(self, tmp_path, capsys):
        rows = [
            cell.format(i=i) + f",{i % 5 * 0.75},{i * 3 % 7 * 0.5}"
            for i, cell in enumerate(ID_CELLS)
        ]
        csv_path = tmp_path / "ratings.csv"
        csv_path.write_text("ID,c1,c2\n" + "\n".join(rows) + "\n", encoding="utf-8")
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(SMALL_SCHEMA, encoding="utf-8")
        argv = ["dump", "--input", str(csv_path), "--schema", str(schema_path)]
        assert main([*argv, "--dump", "normalized"]) == EXIT_OK
        # the bytes written while every command still read the ids
        assert capsys.readouterr().out == (
            'ID,c1,c2\nu0,0.0,0.0\nu#1,0.25,0.5\n#u2,0.5,1.0\n'
            '"u,3",0.75,0.3333333333333333\n"u""4",1.0,0.8333333333333334\n'
            '"u\n5",0.0,0.16666666666666666\nu6,0.25,0.6666666666666666\n'
            'u7,0.5,0.0\n"""u8""",0.75,0.5\n'
            "u9" + "x" * 70 + ",1.0,1.0\n"
        )

    def test_comparison_to_file(self, small_inputs, tmp_path):
        csv_path, schema_path = small_inputs
        out_csv = tmp_path / "comparison.csv"
        code = main(
            [
                "dump",
                "--input", csv_path,
                "--schema", schema_path,
                "--dump", "comparison",
                "--out-csv", str(out_csv),
            ]
        )
        assert code == EXIT_OK
        lines = out_csv.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "criterion,First,Second"
        # means are 2 vs 3, so the second criterion wins the widest gap
        assert lines[2] == "Second,9.0,1.0"

    def test_fuzzy_to_json_file(self, small_inputs, tmp_path):
        csv_path, schema_path = small_inputs
        out_json = tmp_path / "fuzzy.json"
        code = main(
            [
                "dump",
                "--input", csv_path,
                "--schema", schema_path,
                "--dump", "fuzzy",
                "--out-json", str(out_json),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(out_json.read_text(encoding="utf-8"))
        assert doc["labels"] == ["First", "Second"]
        assert doc["entries"][1][0] == [3.5, 4.0, 4.5]
        assert doc["entries"][0][0] == [1.0, 1.0, 1.0]

    def test_extents_to_stdout(self, small_inputs, capsys):
        csv_path, schema_path = small_inputs
        code = main(
            [
                "dump",
                "--input", csv_path,
                "--schema", schema_path,
                "--dump", "extents",
            ]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "label,l,m,u"
        assert len(lines) == 3

    def test_gated_stages_run_forced(self, trio_inputs, capsys):
        # dumps exist for audit, so they must work on rejected matrices too
        csv_path, schema_path = trio_inputs
        code = main(
            [
                "dump",
                "--input", csv_path,
                "--schema", schema_path,
                "--dump", "extents",
            ]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith("label,l,m,u")

    @pytest.mark.parametrize("stage", ["fuzzy", "extents"])
    def test_past_gate_dumps_skip_the_oracle(
        self, small_inputs, monkeypatch, capsys, stage
    ):
        csv_path, schema_path = small_inputs
        partial = pipeline.run_to_comparison(RunConfig(input=csv_path, schema=schema_path))
        criteria = partial.matrix.criteria
        fuzzy = fuzzify(partial.comparison)
        if stage == "fuzzy":
            expected = render_fuzzy_json(criteria, fuzzy)
        else:
            expected = render_matrix_csv(
                ["label", "l", "m", "u"], criteria, synthetic_extents(fuzzy)
            )
        monkeypatch.setattr(pipeline, "reference_scores", _oracle_must_not_run)
        code = main(
            ["dump", "--input", csv_path, "--schema", schema_path, "--dump", stage]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("stage", ["normalized", "comparison", "fuzzy", "extents"])
    def test_no_gate_before_matrix_dumps(self, tmp_path, capsys, stage):
        # standard mode has no random index past 10 criteria; no dump runs
        # the gate, so the random-index source cannot matter
        columns = [f"c{j}" for j in range(12)]
        cells = [[(i * 7 + j * 3) % 9 * 0.5 for j in range(12)] for i in range(5)]
        rows = [",".join([f"u{i}", *map(str, row)]) for i, row in enumerate(cells)]
        csv_path = tmp_path / "twelve.csv"
        csv_path.write_text(
            "\n".join([",".join(["ID", *columns]), *rows]) + "\n", encoding="utf-8"
        )
        schema_path = tmp_path / "twelve_schema.json"
        schema_path.write_text(schema_json({c: c.upper() for c in columns}), encoding="utf-8")
        argv = ["dump", "--input", str(csv_path), "--schema", str(schema_path)]
        outputs = []
        for mode in ("standard", "paper_compat"):
            assert main([*argv, "--dump", stage, "--ir-mode", mode]) == EXIT_OK
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]
        # past 10 criteria too, the matrix dumps hold the oracle's matrices
        # of the column means
        crisp = oracle.mean_gap([sum(column) / len(cells) for column in zip(*cells)])
        if stage == "fuzzy":
            doc = json.loads(outputs[0])
            assert doc["labels"] == [c.upper() for c in columns]
            assert np.array(doc["entries"]).shape == (12, 12, 3)
            assert doc["entries"] == [[list(t) for t in row] for row in oracle.fuzzify(crisp)]
        else:
            assert len(outputs[0].splitlines()) == (6 if stage == "normalized" else 13)
        if stage == "comparison":
            records = list(csv.reader(io.StringIO(outputs[0])))[1:]
            assert [[float(x) for x in record[1:]] for record in records] == crisp


class TestClosedPipe:
    def test_reader_that_closes_early_ends_the_dump_quietly(self, tmp_path):
        # a dump of 1.49 MB, more than a Linux pipe holds at its largest
        # default size limit (1 MiB)
        rows = "".join(f"u{i},1.25,3.5\n" for i in range(100_000))
        csv_path = tmp_path / "ratings.csv"
        csv_path.write_text("ID,c1,c2\n" + rows, encoding="utf-8")
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(SMALL_SCHEMA, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        # unbuffered, a text write that the closed pipe cuts short ends
        # without an error; buffered, it raises BrokenPipeError
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "fahp.cli", "dump",
                "--input", str(csv_path), "--schema", str(schema_path),
                "--dump", "normalized",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        try:
            assert proc.stdout.read(1) == b"I"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == EXIT_OK
        finally:
            proc.kill()
            proc.wait()
        assert err == b""


class TestRowIds:
    """Only the normalized dump prints row ids, so only it reads them."""

    def test_run_and_check_read_no_ids(self, small_inputs):
        csv_path, schema_path = small_inputs
        config = RunConfig(input=csv_path, schema=schema_path)
        assert run(config).matrix.row_ids is None
        assert pipeline.run_to_consistency(config).matrix.row_ids is None

    @pytest.mark.parametrize(
        "argv, reads_ids",
        [
            (["rank"], False),
            (["check"], False),
            *((["dump", "--dump", stage], stage == "normalized") for stage in cli.DUMP_STAGES),
        ],
        ids=["rank", "check", *cli.DUMP_STAGES],
    )
    def test_only_the_normalized_dump_reads_ids(
        self, small_inputs, monkeypatch, capsys, argv, reads_ids
    ):
        original = pipeline.load_csv
        calls = []

        def spy(path, schema=None, **kwargs):
            calls.append(kwargs.get("row_ids", True))
            return original(path, schema, **kwargs)

        monkeypatch.setattr(pipeline, "load_csv", spy)
        csv_path, schema_path = small_inputs
        command, *flags = argv
        assert main([command, "--input", csv_path, "--schema", schema_path, *flags]) == EXIT_OK
        assert calls == [reads_ids]


# the fahp.pipeline stage functions, and the calls each command makes
STAGES = (
    "normalize", "column_means", "build_comparison", "check", "fuzzify",
    "synthetic_extents", "weights", "score", "reference_scores", "validate",
    "build_report",
)
COMPARISON_CALLS = {"column_means": 1, "build_comparison": 1}
STAGE_CALLS = [
    (["rank"], {**dict.fromkeys(STAGES, 1), "score": 2}),
    (["check"], {**COMPARISON_CALLS, "check": 1}),
    (["dump", "--dump", "normalized"], {"normalize": 1}),
    (["dump", "--dump", "comparison"], COMPARISON_CALLS),
    (["dump", "--dump", "fuzzy"], {**COMPARISON_CALLS, "fuzzify": 1}),
    (
        ["dump", "--dump", "extents"],
        {**COMPARISON_CALLS, "fuzzify": 1, "synthetic_extents": 1},
    ),
]


class TestStagesPerCommand:
    """Each command runs only the stages whose output it prints."""

    @pytest.mark.parametrize(
        "argv, counts", STAGE_CALLS, ids=["rank", "check", *cli.DUMP_STAGES]
    )
    def test_stage_calls(self, small_inputs, monkeypatch, capsys, argv, counts):
        calls = dict.fromkeys(STAGES, 0)
        for name in calls:
            original = getattr(pipeline, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(pipeline, name, counted)
        csv_path, schema_path = small_inputs
        command, *flags = argv
        assert main([command, "--input", csv_path, "--schema", schema_path, *flags]) == EXIT_OK
        assert {name: n for name, n in calls.items() if n} == counts


class TestPipedInput:
    """The same bytes rank the same through a pipe as from a file."""

    @NEEDS_DEV_FD
    @pytest.mark.parametrize(
        "cell, code",
        [("0_1", EXIT_OK), ("abc", EXIT_INPUT_ERROR), ("1" * 200_000, EXIT_INPUT_ERROR)],
        ids=["underscore", "text", "oversized"],
    )
    def test_pipe_gives_the_outcome_of_the_file(
        self, dataset_path, tmp_path, capsys, cell, code
    ):
        # the first criterion cell of the first record; numpy refuses
        # each of these, so the loop reads the file as it reads the pipe
        header, first, *rest = dataset_path.read_bytes().splitlines(keepends=True)
        user, _, others = first.split(b",", 2)
        data = b"".join([header, b",".join([user, cell.encode(), others]), *rest])
        path = tmp_path / "ratings.csv"
        path.write_bytes(data)
        by_file = main(["rank", "--input", str(path)]), capsys.readouterr()
        with piped(data) as name:
            by_pipe = main(["rank", "--input", name]), capsys.readouterr()
        assert by_file[0] == code
        assert by_pipe == by_file

    @NEEDS_DEV_FD
    def test_byte_that_is_not_utf8_is_named_by_its_row(self, tmp_path, capsys):
        # the bad byte sits far past the text handle's first 8 KiB chunk
        data = b"\n".join([b"id,a,b", *[b"u,1,2"] * 30_000, b"u,1,\xff"]) + b"\n"
        path = tmp_path / "ratings.csv"
        path.write_bytes(data)
        schema = tmp_path / "schema.json"
        schema.write_text(schema_json({"a": "A", "b": "B"}, id_column="id"), encoding="utf-8")
        flags = ["--schema", str(schema)]
        by_file = main(["rank", "--input", str(path), *flags]), capsys.readouterr()
        with piped(data) as name:
            by_pipe = main(["rank", "--input", name, *flags]), capsys.readouterr()
        assert by_file[0] == EXIT_INPUT_ERROR
        assert by_file[1].err == (
            "fahp: ingest: row 30001: CSV record cannot be read: byte 0xff is not UTF-8\n"
        )
        assert by_pipe == by_file


# (command, flags it never reads): each is a usage error, not ignored
UNREAD_FLAGS = [
    ("check", ["--out-json", "x.json"]),
    ("check", ["--out-csv", "x.csv"]),
    ("check", ["--out-svg", "x.svg"]),
    ("check", ["--force"]),
    ("check", ["--aggregate", "sum"]),
    ("check", ["--report-scale", "2"]),
    ("check", ["--mse-tol", "0.1"]),
    ("dump", ["--out-svg", "x.svg"]),
    ("dump", ["--force"]),
    ("dump", ["--aggregate", "sum"]),
    ("dump", ["--report-scale", "2"]),
    ("dump", ["--mse-tol", "0.1"]),
    # the column fold is always the mean: sum-scale scores are --report-scale
    ("rank", ["--aggregate", "sum"]),
]


class TestFlagsPerCommand:
    @pytest.mark.parametrize(
        "command, flags", UNREAD_FLAGS, ids=[f"{c}{f[0]}" for c, f in UNREAD_FLAGS]
    )
    def test_unread_flag_is_refused(
        self, small_inputs, tmp_path, monkeypatch, capsys, command, flags
    ):
        csv_path, schema_path = small_inputs
        monkeypatch.chdir(tmp_path)
        extra = ["--dump", "normalized"] if command == "dump" else []
        code = main(
            [command, "--input", csv_path, "--schema", schema_path, *extra, *flags]
        )
        assert code == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        *usage, last = captured.err.splitlines()
        assert last == f"fahp: error: unrecognized arguments: {' '.join(flags)}"
        # the full tree's usage comes first, wrapped by argparse to COLUMNS
        assert " ".join(" ".join(usage).split()) == "usage: fahp [-h] {rank,check,dump} ..."
        assert captured.out == ""
        assert not any(tmp_path.glob("x.*"))

    @pytest.mark.parametrize(
        "stage, flag, taker",
        [
            ("normalized", "--out-json", "--dump fuzzy"),
            ("comparison", "--out-json", "--dump fuzzy"),
            ("extents", "--out-json", "--dump fuzzy"),
            ("fuzzy", "--out-csv", "--dump normalized, comparison or extents"),
        ],
        ids=["normalized", "comparison", "extents", "fuzzy"],
    )
    def test_dump_output_flag_the_stage_does_not_write_is_refused(
        self, small_inputs, tmp_path, monkeypatch, capsys, stage, flag, taker
    ):
        def no_stage(*args, **kwargs):
            raise AssertionError("a stage ran")

        csv_path, schema_path = small_inputs
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_to_comparison", no_stage)
        monkeypatch.setattr(cli, "run_to_normalized", no_stage)
        code = main(
            [
                "dump",
                "--input", csv_path,
                "--schema", schema_path,
                "--dump", stage,
                flag, "x.out",
            ]
        )
        assert code == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert f"error: argument {flag}: only {taker} takes it" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "x.out").exists()

    @pytest.mark.parametrize(
        "command, count", [("rank", 10), ("check", 4), ("dump", 7)]
    )
    def test_flag_count(self, command, count):
        commands = next(
            a for a in cli.build_parser()._actions if a.dest == "command"
        )
        parser = commands.choices[command]
        flags = [a for a in parser._actions if a.option_strings and a.dest != "help"]
        assert len(flags) == count


# the flags each command requires besides --input
REQUIRED = {"rank": [], "check": [], "dump": ["--dump", "normalized"]}

# argvs parsed both by main's path and by the full tree; none reads a file
PARSE_CORPUS = [
    [],
    ["-h"],
    ["--help"],
    ["-h", "rank"],
    *([command, "-h"] for command in REQUIRED),
    ["bogus"],
    ["ran"],
    ["--input", "x", "rank"],
    ["--", "rank", "--input", "x"],
    *(
        [command, "--input", "x", *REQUIRED[command], *flags]
        for command, flags in UNREAD_FLAGS
    ),
    ["dump", "--input", "x", "--dump", "normalized", "--out-json", "x.json"],
    ["dump", "--input", "x", "--dump", "comparison", "--out-json", "x.json"],
    ["dump", "--input", "x", "--dump", "extents", "--out-json", "x.json"],
    ["dump", "--input", "x", "--dump", "fuzzy", "--out-csv", "x.csv"],
    ["dump", "--input", "x", "--dump", "fuzzy", "--out-json", "x.json"],
    ["rank", "--inp", "x"],
    ["rank", "--input=x"],
    ["rank", "--input", "x", "stray"],
    ["rank", "--input", "x", "--aggregate", "median"],
    ["rank", "--input", "x", "--report-scale", "big"],
    ["dump", "--input", "x", "--dump", "raw"],
    ["rank", "--bogus", "-h"],
    ["rank", "--input", "x", "--", "y"],
    ["dump", "--input", "x"],
    *([command] for command in REQUIRED),
    *([command, "--input", "x", *REQUIRED[command]] for command in REQUIRED),
    ["rank", "--input", ""],
    ["rank", "--input", "-"],
    ["rank", "--input", "x", "--report-scale", "-1"],
    ["rank", "--input", "x", "--report-scale", " 1 "],
    ["rank", "--input", "x", "--report-scale", "1_0"],
    ["rank", "--input", "x", "--force", "--force"],
    ["rank", "--input", "x", "--force", "x"],
    ["check", "--force"],
    ["rank", "--input", "x", "--out-json", "a", "--out-json", "b"],
    ["rank", "--input", "--force"],
]

# what a parser's action is made of, field by field
ACTION_FIELDS = (
    "option_strings",
    "dest",
    "default",
    "type",
    "choices",
    "required",
    "nargs",
    "metavar",
    "help",
)


def _parse_outcome(parse, argv, capsys):
    try:
        outcome = ("parsed", parse(argv))
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


def _captured_outcome(parse, argv):
    """Like _parse_outcome, with floats compared by repr so NaN equals NaN."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            outcome = ("parsed", {k: repr(v) for k, v in vars(parse(argv)).items()})
        except SystemExit as exc:
            outcome = ("exit", exc.code)
    return outcome, out.getvalue(), err.getvalue()


# values for any flag: every choice, and words that trip up a parser
PARSE_VALUES = sorted(
    {"x", "", "-", "-1", "nan", "a=b", " 1 ", "1_0", "2", "median", "raw"}
    | {"-h", "--", "--force", "--inp", "-x"}
    | {c for _, flags in cli._COMMANDS.values() for k in flags.values()
       for c in k.get("choices", ())}
)


def _draw_value(draw, keywords):
    """Mostly a value the flag takes, else any of PARSE_VALUES."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(PARSE_VALUES))
    if "choices" in keywords:
        return draw(st.sampled_from(keywords["choices"]))
    if "type" in keywords:
        return draw(st.sampled_from(["2", "0.5", "1e-3", "nan"]))
    return draw(st.sampled_from(["x", "a=b", "", "x.out"]))


@st.composite
def argvs(draw):
    """Argvs biased toward plain command lines: a command, its required flags
    as a rule, and its flags in any order and repeated, with values that are
    sometimes invalid, mixed with abbreviations, = forms, -h and --."""
    command = draw(st.sampled_from([*REQUIRED] * 6 + ["bogus", "-h", "--"]))
    table = cli._COMMANDS.get(command, cli._COMMANDS["rank"])[1]
    pairs = [
        (flag, keywords)
        for flag, keywords in table.items()
        if keywords.get("required") and draw(st.integers(0, 9))
    ]
    # --inp and --out abbreviate, --out ambiguously; --out-svg is rank's alone
    others = [*table, *table, "--force", "--force", "--out-svg", "--inp", "--out", "-h"]
    for _ in range(draw(st.integers(0, 6))):
        flag = draw(st.sampled_from(others))
        pairs.append((flag, table.get(flag, {})))
    words = []
    for flag, keywords in draw(st.permutations(pairs)):
        form = draw(st.integers(0, 19))
        value = _draw_value(draw, keywords)
        if form == 0:
            words.append(f"{flag}={value}")
        elif flag in ("--force", "-h") and form < 12:
            words.append(flag)
        else:
            words += [flag, value]
    if draw(st.integers(0, 9)) == 0:
        odd = draw(st.sampled_from(["--", "--help", "stray", "--bogus", "--inp"]))
        words.insert(draw(st.integers(0, len(words))), odd)
    return [command, *words]


def _tree_parse(argv):
    parser = cli.build_parser()
    args = parser.parse_args(argv)
    refusal = cli._unwritten_output(args)
    if refusal is not None:
        parser.error(refusal)
    return args


@pytest.fixture
def parsers_built(monkeypatch):
    """Every _Parser constructed while the test runs, sub-parsers included."""
    built = []

    class CountedParser(cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(cli, "_Parser", CountedParser)
    return built


class TestParsePath:
    @pytest.mark.parametrize(
        "argv", PARSE_CORPUS, ids=[" ".join(argv) or "<none>" for argv in PARSE_CORPUS]
    )
    def test_parses_as_the_full_tree(self, capsys, argv):
        tree = _parse_outcome(_tree_parse, argv, capsys)
        assert _parse_outcome(cli._parse_args, argv, capsys) == tree

    @settings(max_examples=400, deadline=None)
    @given(argv=argvs())
    def test_any_argv_parses_as_the_full_tree(self, argv):
        assert _captured_outcome(cli._parse_args, argv) == _captured_outcome(
            _tree_parse, argv
        )

    def test_spellings_read_as_the_flag_in_full(self):
        # the tree takes an = form, an abbreviation, and a repeated flag's
        # last value
        full = cli._parse_args(["rank", "--input", "x", "--out-json", "b"])
        for argv in (
            ["rank", "--input=x", "--out-json", "b"],
            ["rank", "--inp", "x", "--out-json", "b"],
            ["rank", "--input", "x", "--out-json", "a", "--out-json", "b"],
        ):
            assert cli._parse_args(argv) == full

    def test_valid_run_builds_no_parser(self, dataset_path, parsers_built, capsys):
        for command in REQUIRED:
            argv = [command, "--input", str(dataset_path), *REQUIRED[command]]
            assert main(argv) == EXIT_OK
        assert parsers_built == []

    def test_help_builds_the_full_tree(self, parsers_built, capsys):
        assert main(["--help"]) == EXIT_OK
        assert [p.prog for p in parsers_built] == [
            "fahp",
            "fahp rank",
            "fahp check",
            "fahp dump",
        ]
        assert capsys.readouterr().out.startswith("usage: fahp [-h]")

    @pytest.mark.parametrize("command", list(REQUIRED))
    def test_tree_sub_parser_is_the_table(self, command):
        """Each action holds what _plain_args reads from the table: the dest
        spelled from the flag, the table's default, type, choices and
        required, and one value per flag but --force."""
        commands = next(
            a for a in cli.build_parser()._actions if a.dest == "command"
        )
        sub_parser = commands.choices[command]
        assert sub_parser.prog == f"fahp {command}"
        expected = []
        for flag, keywords in cli._COMMANDS[command][1].items():
            takes_no_value = keywords.get("action") == "store_true"
            expected.append(
                (
                    argparse._StoreTrueAction if takes_no_value else argparse._StoreAction,
                    [flag],
                    flag[2:].replace("-", "_"),
                    keywords.get("default"),
                    keywords.get("type"),
                    keywords.get("choices"),
                    keywords.get("required", False),
                    0 if takes_no_value else None,
                    keywords.get("metavar"),
                    keywords["help"],
                )
            )
        assert [
            (type(a), *(getattr(a, name) for name in ACTION_FIELDS))
            for a in sub_parser._actions
            if a.dest != "help"
        ] == expected


# (command, extra flags, output flag): every path the CLI writes to
OUTPUTS = [
    ("rank", [], "--out-json"),
    ("rank", [], "--out-csv"),
    ("rank", [], "--out-svg"),
    ("dump", ["--dump", "normalized"], "--out-csv"),
    ("dump", ["--dump", "extents"], "--out-csv"),
    ("dump", ["--dump", "fuzzy"], "--out-json"),
]


class TestOutputErrors:
    def _expect_output_error(self, capsys, argv, path, reason):
        assert main(argv) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.err == f"fahp: output: {path}: {reason}\n"
        assert "Traceback" not in captured.err
        # nothing of the summary is printed for a run whose output failed
        assert "mse vs reference" not in captured.out

    @pytest.mark.parametrize("command, extra, flag", OUTPUTS)
    def test_output_path_is_a_directory(
        self, small_inputs, tmp_path, capsys, command, extra, flag
    ):
        csv_path, schema_path = small_inputs
        argv = [command, "--input", csv_path, "--schema", schema_path, *extra]
        self._expect_output_error(
            capsys, [*argv, flag, str(tmp_path)], tmp_path, "Is a directory"
        )

    @pytest.mark.parametrize("command, extra, flag", OUTPUTS)
    def test_output_directory_is_missing(
        self, small_inputs, tmp_path, capsys, command, extra, flag
    ):
        # the input is fine, so the message must not blame it
        csv_path, schema_path = small_inputs
        path = tmp_path / "missing" / "out"
        argv = [command, "--input", csv_path, "--schema", schema_path, *extra]
        self._expect_output_error(
            capsys, [*argv, flag, str(path)], path, "No such file or directory"
        )

    @pytest.mark.parametrize(
        "command, extra, flag",
        [*OUTPUTS, ("dump", ["--dump", "comparison"], "--out-csv")],
    )
    def test_empty_output_path_is_refused(
        self, small_inputs, tmp_path, monkeypatch, capsys, command, extra, flag
    ):
        # an empty path names no file: it is not ignored, and a dump does
        # not fall back to stdout
        csv_path, schema_path = small_inputs
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        argv = [command, "--input", csv_path, "--schema", schema_path, *extra, flag, ""]
        assert main(argv) == EXIT_INPUT_ERROR
        assert capsys.readouterr() == ("", "fahp: output: : No such file or directory\n")
        assert os.listdir(work) == []

    @pytest.mark.parametrize("command, extra, flag", OUTPUTS[::3])
    def test_output_permission_denied(
        self, small_inputs, tmp_path, monkeypatch, capsys, command, extra, flag
    ):
        # a denied open, simulated: the tests may run as a user who may
        # write anywhere
        def denied(path, text):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(cli, "write_text", denied)
        csv_path, schema_path = small_inputs
        path = tmp_path / "out"
        argv = [command, "--input", csv_path, "--schema", schema_path, *extra]
        self._expect_output_error(
            capsys, [*argv, flag, str(path)], path, "Permission denied"
        )


def _oracle_must_not_run(*args, **kwargs):
    raise AssertionError("the oracle ran")
