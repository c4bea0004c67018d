#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root, one benchmark run at a time:

    python3 perfbench/spread.py --workloads paper tall wide --seeds 10 --trace 0
    python3 perfbench/spread.py --workloads tall --seeds 5 --out perfbench/out/tall.json

For every metric it prints the median of the runs, the quartiles from
`statistics.quantiles(values, n=4)`, and the spread: the distance between
the quartiles as a share of the median. End-to-end metrics are compared
with their bound in BENCHMARK.json; a spread above a third of the bound is
flagged. Runs use seeds 1, 2, ... in order.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(config: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [*config["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - start
    result = json.loads(proc.stdout.splitlines()[-1])
    print(f"  {workload} seed {seed}: exit {proc.returncode}, {elapsed:.1f} s, "
          f"correct {result['correct']}, {result['failed']}/{result['attempted']} failed",
          flush=True)
    if proc.returncode != 0 or not result["correct"]:
        print(proc.stdout, flush=True)
    return {"seconds": elapsed, "exit": proc.returncode, **result}


def machine() -> dict:
    model = ""
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "cpu": model,
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else None,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the runs and their summary as JSON")
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    report = {
        "machine": machine(),
        "run_seconds": config["run_seconds"],
        "trace": args.trace,
        "workloads": {},
    }
    ok = True
    for workload in args.workloads:
        runs = [
            run_once(config, workload, seed, config["run_seconds"], args.trace)
            for seed in range(1, args.seeds + 1)
        ]
        ok &= all(r["exit"] == 0 and r["correct"] for r in runs)
        names = runs[0]["metrics"]
        summary = {}
        print(f"{workload}: median [q1, q3] spread (bound)")
        for name, metric in names.items():
            values = [r["metrics"][name]["value"] for r in runs]
            if any(v is None for v in values):
                ok = False
                print(f"  {name}: missing in some runs")
                continue
            summary[name] = {"unit": metric["unit"], **summarise(values)}
            s = summary[name]
            bound = bounds.get(name)
            flag = ""
            if bound is not None and s["spread"] is not None and name != "setup_s":
                flag = "  OVER BOUND" if s["spread"] > bound else (
                    "  over a third of the bound" if s["spread"] > bound / 3 else "")
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:28s} {s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] "
                  f"{spread} ({bound}){flag}")
        report["workloads"][workload] = {
            "seeds": [1, args.seeds],
            "run_seconds_wall": [r["seconds"] for r in runs],
            "metrics": summary,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
