"""Command-line behavior, exercised in process through main(argv)."""

import csv
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from fahp import (
    DatasetSchema,
    RunConfig,
    load_csv,
    normalize,
    register_derivation_rule,
    run,
)
from fahp import pipeline
from fahp.cli import EXIT_GATE_REJECTED, EXIT_INPUT_ERROR, EXIT_OK, main
from fahp.consistency import DERIVATION_RULES
from fahp.report import render_fuzzy_json, render_json, render_matrix_csv

from conftest import REPO_ROOT

SMALL_CSV = "ID,c1,c2\nu1,1.0,3.0\nu2,2.0,4.0\nu3,3.0,2.0\n"

SMALL_SCHEMA = json.dumps(
    {"id_column": "ID", "criteria_columns": {"c1": "First", "c2": "Second"}}
)

TRIO_CSV = "ID,c1,c2,c3\nu1,1.0,2.0,3.0\nu2,2.0,3.0,4.0\n"

TRIO_SCHEMA = json.dumps(
    {
        "id_column": "ID",
        "criteria_columns": {"c1": "First", "c2": "Second", "c3": "Third"},
    }
)


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


@pytest.fixture
def cyclic_rule():
    # a 3-cycle of strong preferences is wildly inconsistent for n >= 3,
    # so this rule makes the consistency gate reject on demand
    def rule(means):
        n = len(means)
        entries = np.ones((n, n))
        for i in range(n):
            for j in range(n):
                step = (j - i) % 3
                if i != j and step == 1:
                    entries[i, j] = 9.0
                elif i != j and step == 2:
                    entries[i, j] = 1.0 / 9.0
        return entries

    register_derivation_rule("cyclic_test", rule)
    yield "cyclic_test"
    DERIVATION_RULES.pop("cyclic_test", None)


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

    def test_identical_runs_are_byte_identical(self, dataset_path, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code = main(["rank", "--input", str(dataset_path), "--out-json", str(path)])
            assert code == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()

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
        config = RunConfig.from_echo(echo)
        result = run(config)
        assert render_json(result.report, config.echo(), config.report_scale) == text
        # reports written before --scale-mode was removed still read back
        assert RunConfig.from_echo({**echo, "scale_mode": "paper_compat"}) == config

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

    def test_rejection_exits_2(self, trio_inputs, cyclic_rule, capsys):
        csv_path, schema_path = trio_inputs
        code = main(
            [
                "check",
                "--input", csv_path,
                "--schema", schema_path,
                "--derivation", cyclic_rule,
            ]
        )
        assert code == EXIT_GATE_REJECTED
        assert "accepted: false" in capsys.readouterr().out


class TestGate:
    def test_rank_stops_at_rejected_gate(self, trio_inputs, cyclic_rule, capsys):
        csv_path, schema_path = trio_inputs
        code = main(
            [
                "rank",
                "--input", csv_path,
                "--schema", schema_path,
                "--derivation", cyclic_rule,
            ]
        )
        assert code == EXIT_GATE_REJECTED
        captured = capsys.readouterr()
        assert "consistency ratio" in captured.err
        assert "exceeds" in captured.err
        assert "mse" not in captured.out

    def test_force_pushes_past_the_gate(self, trio_inputs, cyclic_rule, capsys):
        csv_path, schema_path = trio_inputs
        code = main(
            [
                "rank",
                "--input", csv_path,
                "--schema", schema_path,
                "--derivation", cyclic_rule,
                "--force",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "accepted = false" in out
        assert "mse vs reference:" in out


class TestInputErrors:
    def test_missing_input_file(self, capsys):
        code = main(["rank", "--input", "/no/such/file.csv"])
        assert code == EXIT_INPUT_ERROR
        assert "fahp:" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["rank"]) == EXIT_INPUT_ERROR

    def test_unknown_command(self, capsys):
        assert main(["frobnicate", "--input", "x.csv"]) == EXIT_INPUT_ERROR

    def test_unknown_derivation_rule(self, small_inputs, capsys):
        csv_path, schema_path = small_inputs
        code = main(
            [
                "rank",
                "--input", csv_path,
                "--schema", schema_path,
                "--derivation", "nonsense",
            ]
        )
        assert code == EXIT_INPUT_ERROR
        assert "unknown derivation rule" in capsys.readouterr().err

    def test_single_criterion_schema(self, tmp_path, capsys):
        csv_path = tmp_path / "one.csv"
        csv_path.write_text("ID,c1\nu1,1.0\n", encoding="utf-8")
        schema_path = tmp_path / "one_schema.json"
        schema_path.write_text(
            json.dumps({"id_column": "ID", "criteria_columns": {"c1": "Only"}}),
            encoding="utf-8",
        )
        code = main(["rank", "--input", str(csv_path), "--schema", str(schema_path)])
        assert code == EXIT_INPUT_ERROR

    def test_repeated_header_column(self, tmp_path, capsys):
        csv_path = tmp_path / "twice.csv"
        csv_path.write_text("ID,c1,c2,c1\nu1,1.0,2.0,3.0\n", encoding="utf-8")
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(SMALL_SCHEMA, encoding="utf-8")
        code = main(["rank", "--input", str(csv_path), "--schema", str(schema_path)])
        assert code == EXIT_INPUT_ERROR
        assert "column 'c1' appears more than once" in capsys.readouterr().err

    def test_unreadable_record(self, tmp_path, capsys):
        csv_path = tmp_path / "huge.csv"
        huge = "9" * 200_000
        csv_path.write_text(f"ID,c1,c2\nu1,1.0,{huge}\n", encoding="utf-8")
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(SMALL_SCHEMA, encoding="utf-8")
        code = main(["rank", "--input", str(csv_path), "--schema", str(schema_path)])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "row 1: CSV record cannot be read" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "ratings, message",
        [
            ("ID,c1,c2\n", "no data rows"),
            ("ID,c1,c2\n" + "9" * 200_000 + ",1.0,2.0\n", "row 1: CSV record cannot be read"),
            ("ID,c1,c2,x\nu1,1.0,2.0," + "9" * 200_000 + "\n", "row 1: CSV record cannot be read"),
        ],
        ids=["header-only", "oversized-id", "oversized-unused"],
    )
    def test_unusable_file_prints_one_line(
        self, small_inputs, tmp_path, capsys, ratings, message
    ):
        _, schema_path = small_inputs
        csv_path = tmp_path / "ratings.csv"
        csv_path.write_text(ratings, encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["rank", "--input", str(csv_path), "--schema", schema_path])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("fahp: ingest:")
        assert err.count("\n") == 1
        assert message in err
        assert caught == []

    def test_out_of_range_cell(self, tmp_path, capsys):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text("ID,c1,c2\nu1,1.0,5.0\n", encoding="utf-8")
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(SMALL_SCHEMA, encoding="utf-8")
        code = main(["rank", "--input", str(csv_path), "--schema", str(schema_path)])
        assert code == EXIT_INPUT_ERROR
        assert "ingest" in capsys.readouterr().err

    def test_nonpositive_report_scale(self, small_inputs, capsys):
        csv_path, schema_path = small_inputs
        code = main(
            [
                "rank",
                "--input", csv_path,
                "--schema", schema_path,
                "--report-scale", "0",
            ]
        )
        assert code == EXIT_INPUT_ERROR
        assert "config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "ratings, flags, message",
        [
            (SMALL_CSV, ["--report-scale", "inf"], "config: report_scale must be finite"),
            (SMALL_CSV, ["--mse-tol", "inf"], "config: mse_tol must be finite"),
            (
                SMALL_CSV,
                ["--report-scale", "1.6e308"],
                "report: scale 1.6e+308 makes the score of 'Second'",
            ),
            # every column peaks at 0.1, so only the normalized sums overflow
            (
                "ID,c1,c2\n" + "u,0.1,0.1\n" * 10,
                ["--aggregate", "sum", "--report-scale", "1e308"],
                "report: scale 1e+308 makes the score of 'First'",
            ),
        ],
        ids=["infinite-scale", "infinite-tolerance", "overflowing-scale", "overflowing-normalized"],
    )
    def test_non_finite_output_is_refused(
        self, small_inputs, tmp_path, capsys, ratings, flags, message
    ):
        _, schema_path = small_inputs
        csv_path = tmp_path / "scaled.csv"
        csv_path.write_text(ratings, encoding="utf-8")
        outputs = [tmp_path / name for name in ("r.json", "r.csv", "r.svg")]
        code = main(
            [
                "rank",
                "--input", str(csv_path),
                "--schema", schema_path,
                *flags,
                *(f"--out-{path.suffix[1:]}={path}" for path in outputs),
            ]
        )
        assert code == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not any(path.exists() for path in outputs)

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            None,
            "text",
            {"criteria_columns": {"c1": "First", "c2": "Second"}},
            {"id_column": 3, "criteria_columns": {"c1": "First", "c2": "Second"}},
            {"id_column": "ID", "criteria_columns": 5},
            {"id_column": "ID", "criteria_columns": [["c1"], ["c2", "Second"]]},
            {"id_column": "ID", "criteria_columns": ["c1", "c2"]},
        ],
        ids=[
            "list", "null", "string", "no-id", "numeric-id", "number-columns",
            "short-pair", "string-pairs",
        ],
    )
    def test_malformed_schema_document(self, small_inputs, tmp_path, capsys, doc):
        csv_path, _ = small_inputs
        schema_path = tmp_path / "bad_schema.json"
        schema_path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["rank", "--input", csv_path, "--schema", str(schema_path)])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("fahp: ingest: schema")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text", ["[" * 200_000, '{"id_column": '], ids=["deeply-nested", "truncated"]
    )
    def test_unreadable_schema_json(self, small_inputs, tmp_path, capsys, text):
        csv_path, _ = small_inputs
        schema_path = tmp_path / "bad_schema.json"
        schema_path.write_text(text, encoding="utf-8")
        code = main(["rank", "--input", csv_path, "--schema", str(schema_path)])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("fahp: ingest: schema")
        assert "Traceback" not in err


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

    def test_gated_stages_run_forced(self, trio_inputs, cyclic_rule, capsys):
        # dumps exist for audit, so they must work on rejected matrices too
        csv_path, schema_path = trio_inputs
        code = main(
            [
                "dump",
                "--input", csv_path,
                "--schema", schema_path,
                "--derivation", cyclic_rule,
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
        full = run(RunConfig(input=csv_path, schema=schema_path, force=True))
        if stage == "fuzzy":
            expected = render_fuzzy_json(full.matrix.criteria, full.fuzzy)
        else:
            expected = render_matrix_csv(
                ["label", "l", "m", "u"], full.matrix.criteria, full.extents
            )
        monkeypatch.setattr(pipeline, "reference_scores", _oracle_must_not_run)
        code = main(
            ["dump", "--input", csv_path, "--schema", schema_path, "--dump", stage]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out == expected

    def test_stage_flag_required(self, small_inputs, capsys):
        csv_path, schema_path = small_inputs
        code = main(["dump", "--input", csv_path, "--schema", schema_path])
        assert code == EXIT_INPUT_ERROR


def _oracle_must_not_run(*args, **kwargs):
    raise AssertionError("the oracle ran")
