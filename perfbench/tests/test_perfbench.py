"""The benchmark's own checks: inputs, output checks, failure accounting."""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from perfbench import calibration, checks, inputs  # noqa: E402
from perfbench import run as bench  # noqa: E402


def _generate(workload, seed, directory):
    directory.mkdir()
    return inputs.write_inputs(workload, ROOT, directory, seed)


def _column_cents(path):
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        sums = None
        for row in rows:
            cents = [round(float(cell) * 100) for cell in row[1:]]
            sums = cents if sums is None else [a + b for a, b in zip(sums, cents)]
    return sums


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_sha256(workload, tmp_path):
    first = _generate(workload, 11, tmp_path / "a")
    second = _generate(workload, 11, tmp_path / "b")
    assert first.files == second.files


def test_other_seed_other_tall_bytes_same_column_means(tmp_path):
    first = _generate("tall", 1, tmp_path / "a")
    second = _generate("tall", 2, tmp_path / "b")
    assert first.files[0].sha256 != second.files[0].sha256
    paper = _column_cents(inputs.surrogate_path(ROOT))
    expected = [inputs.TALL_COPIES * cents for cents in paper]
    assert _column_cents(first.directory / inputs.RATINGS) == expected
    assert _column_cents(second.directory / inputs.RATINGS) == expected


def test_wide_column_means_are_distinct():
    sums = inputs.wide_cents(5).sum(axis=0)
    assert len(set(sums.tolist())) == inputs.WIDE_CRITERIA
    assert inputs.wide_cents(5).min() >= 0 and inputs.wide_cents(5).max() <= 400


class _FakeCli:
    """Stands in for fahp.cli: writes a fixed rank report and exits 0."""

    def __init__(self, report: bytes):
        self.report = report

    def main(self, argv):
        for flag in ("--out-json", "--out-csv", "--out-svg"):
            Path(argv[argv.index(flag) + 1]).write_bytes(self.report)
        return 0


@pytest.fixture
def paper_report(tmp_path, monkeypatch):
    """A rank report of the paper run, through the real command line."""
    monkeypatch.chdir(tmp_path)
    cli = bench.load_cli()
    session = bench.Session(cli, "paper", 0, None)
    session.use(_generate("paper", 0, tmp_path / "good"))
    wall, _ = session.op("rank")
    assert wall is not None and session.failed == 0
    return session.refs["rank"][0]


def _session_with(report: bytes, tmp_path):
    sections = checks.report_sections(report)
    session = bench.Session(_FakeCli(report), "paper", 0, sections)
    session.use(_generate("paper", 0, tmp_path / "fake"))
    return session


def test_good_report_passes(paper_report, tmp_path):
    session = _session_with(paper_report, tmp_path)
    wall, _ = session.op("rank")
    assert wall is not None
    assert (session.attempted, session.failed) == (1, 0)


def test_wrong_rank_order_is_a_failure_not_a_sample(paper_report, tmp_path):
    doc = json.loads(paper_report)
    doc["ranking"][0], doc["ranking"][1] = doc["ranking"][1], doc["ranking"][0]
    session = _session_with(paper_report, tmp_path)
    session.cli = _FakeCli(json.dumps(doc).encode())
    wall, _ = session.op("rank")
    assert wall is None
    assert (session.attempted, session.failed) == (1, 1)
    assert "rank order" in session.problems[0]


def test_mse_over_tolerance_is_a_failure_not_a_sample(paper_report, tmp_path):
    doc = json.loads(paper_report)
    doc["mse"] = 2 * doc["config_echo"]["mse_tol"]
    session = _session_with(paper_report, tmp_path)
    session.cli = _FakeCli(json.dumps(doc).encode())
    wall, _ = session.op("rank")
    assert wall is None
    assert (session.attempted, session.failed) == (1, 1)
    assert "exceeds the tolerance" in session.problems[0]


def test_report_differing_from_the_first_is_a_failure(paper_report, tmp_path):
    session = _session_with(paper_report, tmp_path)
    assert session.op("rank")[0] is not None
    session.cli = _FakeCli(paper_report + b" ")
    assert session.op("rank")[0] is None
    assert (session.attempted, session.failed) == (2, 1)


def test_dump_line_count():
    assert checks.dump_problems(b"h\n1\n2\n", 2) == []
    assert checks.dump_problems(b"h\n1\n", 2)


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 101)]
    value, percentile = bench.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert percentile == 90.0
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_benchmark_json_names_what_the_run_prints():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in config["end_to_end"]] == list(bench.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == bench.per_layer_units()
    assert [w["name"] for w in config["workloads"]] == list(inputs.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_scaled_interval_uses_the_kernel_times_around_it():
    fresh = calibration.Calibration()
    fresh.add("cold_start", 0.2, bare_s=calibration.BARE_REFERENCE_S / 2)
    assert fresh.scaled("cold_start") == [pytest.approx(0.4)]
    host = calibration.Calibration()
    host.add("rank", 0.001)
    # a short interval's window holds its own first kernel time
    assert host.scaled("rank") == [0.001 * calibration.REFERENCE_S / host.samples[0]]
    assert host.walls("rank") == [0.001]
