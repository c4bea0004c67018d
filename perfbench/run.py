#!/usr/bin/env python3
"""Benchmark of the `fahp` command line on one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

One client drives a closed loop in this process: each `rank` or `dump`
operation goes through `fahp.cli.main(argv)` and starts only after the
previous one has ended and its outputs have been checked. Nothing runs
concurrently. A run:

1. sets up SETUP_REPEATS times (fresh directory, seeded inputs, one warm-up
   `rank`) and reports the median as `setup_s`;
2. with `--trace 0`, alternates `rank` and `dump` for IN_PROCESS_SHARE of
   `--seconds`, then starts `rank` as a fresh interpreter until `--seconds`
   is over (`cold_start_ms`, and `peak_mem_mb` from the child's peak
   resident size), and prints the end-to-end metrics;
3. with `--trace 1`, alternates untraced and traced operations, then times
   `import fahp.cli` against a bare interpreter, and prints the per-layer
   metrics; spans go to perfbench/out/.

Times are reported at a reference host speed (see calibration.py); the raw
wall-time medians are printed beside them. Every operation's outputs are
checked; an operation with a problem counts as failed, its time is dropped,
and the run exits with code 1. The last line of standard output is one JSON
object: correct, attempted, failed and metrics. `--workload all` runs each
workload in its own interpreter, one after the other.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = BENCH / "work"
OUT = BENCH / "out"

sys.path.insert(0, str(ROOT))
from perfbench import checks, inputs, spans  # noqa: E402
from perfbench.calibration import BARE_REFERENCE_S, Calibration  # noqa: E402

SETUP_REPEATS = 3
IN_PROCESS_SHARE = 0.7
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
MIN_COLD_STARTS = 3
MIN_IMPORT_PAIRS = 5
TAIL_BEYOND = 10
SUBPROCESS_TIMEOUT_S = 60

OUTPUTS = {
    "rank": ("report.json", "ranking.csv", "scores.svg"),
    "dump": ("normalized.csv",),
}

RANK_LAYERS = spans.LAYERS
DUMP_LAYERS = ("cli", "pipeline", "dataset", "normalize", "consistency", "report")
RANK_COUNTS = (
    "dataset.cells", "normalize.cells_out", "consistency.entries", "tfn.lookups",
    "extent.zero_weights", "ranking.cells_folded", "reference.cells_folded",
    "report.bytes_written",
)

END_TO_END_UNITS = {
    "rank_p50_ms": "ms",
    "dump_p50_ms": "ms",
    "cells_per_s": "1/s",
    "cold_start_ms": "ms",
    "peak_mem_mb": "MB",
    "setup_s": "s",
}


def per_layer_units() -> dict:
    units = {}
    for prefix, layers in (("", RANK_LAYERS), ("dump.", DUMP_LAYERS)):
        for layer in layers:
            units[f"{prefix}{layer}.self_ms"] = "ms"
            units[f"{prefix}{layer}.share"] = "ratio"
    for name in RANK_COUNTS:
        units[name] = "count"
    units["dump.report.bytes_written"] = "count"
    units["dataset.mb_per_s"] = "MB/s"
    units["cli.import_ms"] = "ms"
    units["trace.overhead_ms"] = "ms"
    units["dump.trace.overhead_ms"] = "ms"
    return units


def load_cli():
    """Import fahp from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "fahp" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no fahp sources under {src}")
    if not inputs.surrogate_path(ROOT).is_file():
        raise SystemExit(f"perfbench: missing {inputs.surrogate_path(ROOT)}")
    sys.path.insert(0, str(src))
    import fahp.cli

    if Path(fahp.cli.__file__).resolve().parent != src / "fahp":
        raise SystemExit(f"perfbench: imported fahp from {fahp.cli.__file__}")
    return fahp.cli


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    above it; with too few samples for that, the maximum at percentile 100."""
    ordered = sorted(samples)
    n = len(ordered)
    if n > TAIL_BEYOND:
        return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    return ordered[-1], 100.0


def median_ms(values):
    return statistics.median(values) * 1e3 if values else None


class Session:
    """One workload's inputs, operations and the checks on their outputs."""

    def __init__(self, cli, workload: str, seed: int, expected_sections):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.expected_sections = expected_sections
        self.inputs: inputs.Inputs | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.refs: dict = {}
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def use(self, generated: inputs.Inputs) -> None:
        self.inputs = generated
        os.chdir(generated.directory)

    def argv(self, kind: str) -> list[str]:
        flags = list(self.inputs.flags)
        if kind == "rank":
            report, ranking, svg = OUTPUTS["rank"]
            return ["rank", *flags, "--out-json", report, "--out-csv", ranking, "--out-svg", svg]
        return ["dump", *flags, "--dump", "normalized", "--out-csv", OUTPUTS["dump"][0]]

    def _clear_outputs(self, kind: str) -> list[Path]:
        paths = [self.inputs.directory / name for name in OUTPUTS[kind]]
        for path in paths:
            path.unlink(missing_ok=True)
        return paths

    def op(self, kind: str, tracer=None):
        """One in-process operation: (wall seconds, or None if it failed;
        the op trace when traced)."""
        paths = self._clear_outputs(kind)
        argv = self.argv(kind)
        sink = io.StringIO()
        record = None
        gc.collect()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                if tracer is not None:
                    with tracer.op(self.attempted) as record:
                        start = time.perf_counter()
                        code = self.cli.main(argv)
                        wall = time.perf_counter() - start
                else:
                    start = time.perf_counter()
                    code = self.cli.main(argv)
                    wall = time.perf_counter() - start
        except Exception:
            # a crash is one failed operation; the loop keeps measuring
            self._record(kind, ["raised " + traceback.format_exc(limit=3)])
            return None, None
        ok = self._check(kind, code, sink.getvalue(), paths)
        return (wall if ok else None), record

    def cold_start(self):
        """`rank` as a fresh interpreter: (wall seconds, peak resident bytes),
        or None if it failed."""
        paths = self._clear_outputs("rank")
        cmd = [sys.executable, "-m", "fahp.cli", *self.argv("rank")]
        log = self.inputs.directory / "cold_start.log"
        with open(log, "wb") as sink:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.inputs.directory, env=self.env,
                                    stdout=sink, stderr=sink)
            # wait4 reaps the child and returns its own resource usage
            watchdog = threading.Timer(SUBPROCESS_TIMEOUT_S, proc.kill)
            watchdog.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            watchdog.cancel()
            watchdog.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        output = log.read_text(errors="replace")
        if not self._check("rank", proc.returncode, output, paths):
            return None
        return wall, usage.ru_maxrss * 1024  # Linux reports kilobytes

    def interpreter_start(self, code: str):
        """Wall seconds of `python -c code`, or None if it failed."""
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=self.env,
            capture_output=True, timeout=SUBPROCESS_TIMEOUT_S,
        )
        wall = time.perf_counter() - start
        problems = [] if proc.returncode == 0 else [proc.stderr.decode(errors="replace")[-300:]]
        return self._record(f"python -c {code!r}", problems) and wall

    def _check(self, kind: str, code: int, output: str, paths: list[Path]) -> bool:
        if code != 0:
            return self._record(kind, [f"exit code {code}: {output.strip()[-300:]}"])
        try:
            blobs = tuple(path.read_bytes() for path in paths)
        except FileNotFoundError as exc:
            return self._record(kind, [f"no output {exc.filename}"])
        return self._record(kind, self._output_problems(kind, blobs))

    def _output_problems(self, kind: str, blobs: tuple) -> list[str]:
        ref = self.refs.get(kind)
        if blobs == ref:
            return []
        if kind == "rank":
            order = checks.SEED_RANK_ORDER if self.expected_sections else None
            problems = checks.rank_problems(blobs[0], order, self.expected_sections)
        else:
            problems = checks.dump_problems(blobs[0], self.inputs.rows)
        if ref is not None:
            problems.append(f"{kind} outputs differ from this run's first {kind}")
        elif not problems:
            self.refs[kind] = blobs
        return problems

    def _record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.fail(f"{what}: " + "; ".join(problems))
            return False
        return True

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)


def paper_sections(cli, directory: Path) -> tuple:
    """Weights and ranking of the paper's own run: tall must reproduce them."""
    directory.mkdir(parents=True)
    session = Session(cli, "paper", 0, None)
    session.use(inputs.write_paper(ROOT, directory, 0))
    session.op("rank")
    if session.failed or "rank" not in session.refs:
        raise SystemExit("perfbench: the paper run failed: " + "; ".join(session.problems))
    return checks.report_sections(session.refs["rank"][0])


def set_up(session: Session, run_dir: Path, host: Calibration) -> None:
    """Generate the inputs and warm up, SETUP_REPEATS times, each recorded
    in host as a "setup" interval."""
    first = None
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        directory = run_dir / f"setup{i}"
        directory.mkdir(parents=True)
        generated = inputs.write_inputs(session.workload, ROOT, directory, session.seed)
        session.use(generated)
        session.op("rank")
        host.add("setup", time.perf_counter() - start)
        if first is None:
            first = generated.files
        elif generated.files != first:
            session.fail("the same seed generated different inputs")


def _timed(session: Session, kind: str, host: Calibration, tracer=None):
    """One operation, recorded in host (as "traced <kind>" when traced) if it
    passed its checks: (passed, op trace or None)."""
    wall, record = session.op(kind, tracer)
    if wall is not None:
        host.add(f"traced {kind}" if tracer else kind, wall)
    return wall is not None, record


def measure_end_to_end(session: Session, seconds: float, metrics: dict, notes: dict) -> None:
    in_process, fresh = Calibration(), Calibration()
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds * IN_PROCESS_SHARE:
        for kind in ("rank", "dump"):
            _timed(session, kind, in_process)
        rounds += 1
    resident = []
    tries = 0
    while tries < MIN_COLD_STARTS or time.perf_counter() - start < seconds:
        measured = session.cold_start()
        tries += 1
        if measured is not None:
            bare = session.interpreter_start("pass")
            if bare:
                fresh.add("cold_start", measured[0], bare)
                resident.append(measured[1])

    phases = {"rank": in_process, "dump": in_process, "cold_start": fresh}
    notes["samples"] = {kind: len(host.walls(kind)) for kind, host in phases.items()}
    notes["wall_ms"] = {kind: median_ms(host.walls(kind)) for kind, host in phases.items()}
    for phase, host in (("in-process", in_process), ("fresh process", fresh)):
        if host.samples:
            notes["scale"][phase] = host.scale()
    rank = in_process.scaled("rank")
    if rank:
        tail_s, pct = tail(rank)
        notes["rank_tail"] = (tail_s * 1e3, pct)
        metrics["rank_p50_ms"] = median_ms(rank)
        metrics["cells_per_s"] = session.inputs.cells / metrics["rank_p50_ms"] * 1e3
    metrics["dump_p50_ms"] = median_ms(in_process.scaled("dump"))
    metrics["cold_start_ms"] = median_ms(fresh.scaled("cold_start"))
    if resident:
        metrics["peak_mem_mb"] = statistics.median(resident) / 1e6


def measure_layers(session: Session, seconds: float, metrics: dict, notes: dict) -> None:
    tracer = spans.Tracer()
    in_process = Calibration()
    traces = {"rank": [], "dump": []}
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_TRACED_ROUNDS or time.perf_counter() - start < seconds * IN_PROCESS_SHARE:
        for kind in traces:
            _timed(session, kind, in_process)
            ok, record = _timed(session, kind, in_process, tracer)
            if ok:
                traces[kind].append(record)
        rounds += 1
    import_ratios = []
    while len(import_ratios) < MIN_IMPORT_PAIRS or time.perf_counter() - start < seconds:
        bare = session.interpreter_start("pass")
        imported = session.interpreter_start("import fahp.cli")
        if not (bare and imported):
            break
        import_ratios.append(imported / bare - 1.0)

    OUT.mkdir(exist_ok=True)
    tracer.write_jsonl(OUT / f"spans-{session.workload}-seed{session.seed}.jsonl")
    notes["samples"] = {**{f"traced {k}": len(v) for k, v in traces.items()},
                        "import pairs": len(import_ratios)}
    counts = notes["counts"] = {}
    if in_process.samples:
        notes["scale"]["in-process"] = in_process.scale()
    for kind, prefix, layers in (("rank", "", RANK_LAYERS), ("dump", "dump.", DUMP_LAYERS)):
        records = traces[kind]
        if not records:
            continue
        if any(r.counts != records[0].counts for r in records):
            session.fail(f"work counts differ between traced {kind} operations")
        counts[kind] = records[0].counts
        # each traced op's layers are scaled by that op's own host factor
        traced_kind = f"traced {kind}"
        factors = [
            scaled / wall for scaled, wall in
            zip(in_process.scaled(traced_kind), in_process.walls(traced_kind))
        ]
        for layer in layers:
            metrics[f"{prefix}{layer}.self_ms"] = statistics.median(
                r.self_ns[layer] * f for r, f in zip(records, factors)) / 1e6
            metrics[f"{prefix}{layer}.share"] = statistics.median(
                r.self_ns[layer] / r.wall_ns for r in records)
        if in_process.walls(kind):
            metrics[f"{prefix}trace.overhead_ms"] = (
                median_ms(in_process.scaled(traced_kind)) - median_ms(in_process.scaled(kind)))
    if "rank" in counts:
        for name in RANK_COUNTS:
            metrics[name] = counts["rank"].get(name, 0)
        if metrics.get("dataset.self_ms"):
            metrics["dataset.mb_per_s"] = (
                counts["rank"]["dataset.bytes_in"] / 1e3 / metrics["dataset.self_ms"])
    if "dump" in counts:
        metrics["dump.report.bytes_written"] = counts["dump"].get("report.bytes_written", 0)
    if import_ratios:
        metrics["cli.import_ms"] = statistics.median(import_ratios) * BARE_REFERENCE_S * 1e3


def code_fingerprint() -> str:
    """sha256 over the program, its data and this benchmark's code."""
    digest = hashlib.sha256()
    files = [
        *sorted((ROOT / "src" / "fahp").rglob("*.py")),
        *sorted((ROOT / "src" / "fahp" / "data").glob("*.json")),
        *sorted((ROOT / "data").glob("*.csv")),
        *sorted(BENCH.glob("*.py")),
    ]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_repeatable(session: Session, facts: dict) -> None:
    """Compare this run's deterministic facts with an earlier run of the
    same code, workload and seed, if one left a record; then record them."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"facts-{session.workload}-seed{session.seed}-{code_fingerprint()}.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    for key, value in facts.items():
        if key in known and known[key] != value:
            session.fail(f"{key} differs from an earlier run with this seed: {known[key]!r} != {value!r}")
    path.write_text(json.dumps({**known, **facts}, indent=1, sort_keys=True) + "\n")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    cli = load_cli()
    run_dir = WORK / f"{workload}-seed{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    metrics: dict = {}
    notes: dict = {"scale": {}}
    try:
        expected = None
        if workload in ("paper", "tall"):
            expected = paper_sections(cli, run_dir / "paper-reference")
        session = Session(cli, workload, seed, expected)
        set_up_host = Calibration()
        set_up(session, run_dir, set_up_host)
        generated = session.inputs
        print(f"workload {workload}, seed {seed}, {generated.rows} rows x {generated.criteria} criteria")
        for f in generated.files:
            print(f"  input {f.name}: {f.size} bytes, sha256 {f.sha256}")
        if trace:
            measure_layers(session, seconds, metrics, notes)
            units = per_layer_units()
        else:
            measure_end_to_end(session, seconds, metrics, notes)
            notes["scale"]["set-up"] = set_up_host.scale()
            metrics["setup_s"] = statistics.median(set_up_host.scaled("setup"))
            units = END_TO_END_UNITS
        facts = {
            "inputs": [[f.name, f.size, f.sha256] for f in generated.files],
            "rank_report_sha256": hashlib.sha256(session.refs.get("rank", (b"",))[0]).hexdigest(),
        }
        if trace:
            facts["counts"] = notes["counts"]
        check_repeatable(session, facts)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"  samples: {json.dumps(notes['samples'])}")
    print("  host speed factor of each phase (mean kernel time): "
          + ", ".join(f"{phase} {value:.4f}" for phase, value in notes["scale"].items()))
    if not trace:
        print(f"  wall-time medians (ms): {json.dumps(notes['wall_ms'])}")
        print(f"  setup_s is the median of {SETUP_REPEATS} set-ups, wall s: "
              + ", ".join(f"{t:.3f}" for t in set_up_host.walls("setup")))
        if "rank_tail" in notes:
            value, pct = notes["rank_tail"]
            print(f"  rank_tail_ms {value} ms: p{pct:.2f} of {notes['samples']['rank']} rank samples"
                  + ("" if pct < 100 else f" (fewer than {TAIL_BEYOND + 1}: the maximum)"))
    for name, unit in units.items():
        value = metrics.get(name)
        print(f"  {name:32s} {value if value is not None else 'missing'} {unit}")
    if not trace:
        ratio = session.failed / session.attempted
        print(f"  fail_ratio {ratio} ({session.failed} of {session.attempted} operations)")
    for problem in session.problems:
        print(f"  FAILED {problem}")
    if session.failed > len(session.problems):
        print(f"  ... {session.failed - len(session.problems)} more failures")
    missing = [name for name in units if metrics.get(name) is None]
    correct = session.failed == 0 and not missing
    if missing:
        print(f"  missing metrics: {', '.join(missing)}")
    result = {
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            name: {"value": metrics.get(name), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own interpreter, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in inputs.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged), flush=True)
    return status or (0 if merged["correct"] else 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*inputs.WORKLOADS, "all"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
