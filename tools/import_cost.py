#!/usr/bin/env python3
"""Print what `import fahp.cli` costs a fresh interpreter, module by module.

Run from the repository root:

    python3 tools/import_cost.py --runs 15

Each run starts two fresh interpreters under `-X importtime`, one for
`import numpy` and one for `import fahp.cli`, and the table gives the
median self time of each module over the runs:

- every `fahp` module;
- every other module that `import fahp.cli` loads and `import numpy`
  does not, marked stdlib or other.

Self times include byte-compiling a module's source whenever no cached
.pyc is used (PYTHONDONTWRITEBYTECODE=1 with no __pycache__, for one).
The `fahp` of this checkout's `src/` is measured, ahead of any installed
copy. The table is a reading, not a check: it sets no threshold.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PREFIX = "import time:"


def import_times(statement: str) -> dict[str, tuple[int, int]]:
    """(self, cumulative) time in microseconds of each module that one
    fresh interpreter imports to run statement."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", statement],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    times = {}
    for line in proc.stderr.splitlines():
        if not line.startswith(PREFIX):
            continue
        self_us, cumulative_us, name = line[len(PREFIX):].split("|")
        if self_us.strip().isdigit():
            times[name.strip()] = (int(self_us), int(cumulative_us))
    return times


def _median_ms(runs: list[dict], name: str, column: int = 0) -> float:
    return statistics.median(run.get(name, (0, 0))[column] for run in runs) / 1e3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=15, help="fresh interpreters per statement")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    numpy_runs, fahp_runs = [], []
    for _ in range(args.runs):
        numpy_runs.append(import_times("import numpy"))
        fahp_runs.append(import_times("import fahp.cli"))

    with_numpy = set().union(*numpy_runs)
    loaded = set().union(*fahp_runs)
    ours = sorted(name for name in loaded if name.split(".")[0] == "fahp")
    added = sorted(loaded - with_numpy - set(ours))

    rows = [(name, "fahp", _median_ms(fahp_runs, name)) for name in ours]
    for name in added:
        origin = "stdlib" if name.split(".")[0] in sys.stdlib_module_names else "other"
        rows.append((name, origin, _median_ms(fahp_runs, name)))

    width = max(len(name) for name, _, _ in rows)
    print(f"median -X importtime self time over {args.runs} fresh interpreters")
    print(f"{'module':<{width}}  {'origin':<6}  {'self ms':>8}")
    for name, origin, ms in rows:
        print(f"{name:<{width}}  {origin:<6}  {ms:8.2f}")
    for origin in ("fahp", "stdlib", "other"):
        total = sum(ms for _, o, ms in rows if o == origin)
        if total:
            print(f"{'sum of ' + origin:<{width}}  {'':<6}  {total:8.2f}")
    numpy_ms = _median_ms(numpy_runs, "numpy", column=1)
    cli_ms = _median_ms(fahp_runs, "fahp.cli", column=1)
    print(f"import numpy, cumulative: {numpy_ms:.2f} ms")
    print(f"import fahp.cli, cumulative, numpy included: {cli_ms:.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
