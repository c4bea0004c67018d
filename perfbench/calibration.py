"""Host speed, sampled next to the measured work.

The machines this benchmark runs on share their cores: the same pure-Python
loop runs 30 % slower for seconds at a time, and in bursts of milliseconds
within them, which moves wall-time medians of runs a minute apart by 15 to
40 %. After each measured interval the runner times a fixed kernel that
does not touch fahp, for SHARE of the interval and at least once. The
interval is then reported at the reference host speed:

    wall * REFERENCE_S / mean(kernel times from one interval length before
                              it to one interval length after it)

The window widens with the interval, so a short operation is compared with
the host state right after it and a long one with the states around it. A
fresh process is compared with a bare interpreter start made right after it
instead: wall * BARE_REFERENCE_S / bare start.

A program change moves the scaled figure as it moves the wall time; a host
slowdown that hits program and kernel alike cancels out.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

# about the kernel's median and a bare `python -c pass` on the reference
# machine, so scaled times read close to wall times there
REFERENCE_S = 0.003
BARE_REFERENCE_S = 0.05
SHARE = 0.1

# 1500 rows of ten two-decimal ratings: the string-to-float work that
# dominates the program's ingest, without its code
_rng = random.Random(0)
_ROWS = tuple(
    ",".join(f"{_rng.random() * 4:.2f}" for _ in range(10)) for _ in range(1500)
)


def kernel() -> float:
    """Seconds taken by one run of the fixed calibration kernel."""
    start = time.perf_counter()
    rows = [[float(cell) for cell in line.split(",")] for line in _ROWS]
    sum(map(sum, rows))
    return time.perf_counter() - start


class Calibration:
    """The measured intervals of one phase and the kernel times around them."""

    def __init__(self):
        self._starts: list[float] = []
        self.samples: list[float] = []
        self._intervals: dict[str, list] = {}
        # the first calls specialise the kernel's bytecode; leave them out
        for _ in range(3):
            kernel()

    def add(self, kind: str, wall_s: float, bare_s: float | None = None) -> None:
        """Record an interval of wall_s that ended just now, and time the
        kernel right after it; bare_s is a bare interpreter start made right
        after a fresh process."""
        start = time.perf_counter() - wall_s
        own = len(self.samples)
        spent = 0.0
        while spent == 0.0 or spent < SHARE * wall_s:
            self._starts.append(time.perf_counter())
            self.samples.append(kernel())
            spent += self.samples[-1]
        self._intervals.setdefault(kind, []).append((start, wall_s, bare_s, own))

    def walls(self, kind: str) -> list[float]:
        return [wall for _, wall, _, _ in self._intervals.get(kind, ())]

    def scaled(self, kind: str) -> list[float]:
        """The kind's intervals at the reference host speed, in order."""
        out = []
        for start, wall, bare, own in self._intervals.get(kind, ()):
            if bare is not None:
                out.append(wall * BARE_REFERENCE_S / bare)
                continue
            lo = bisect.bisect_left(self._starts, start - wall)
            # the interval's own first kernel is always in its window
            hi = max(bisect.bisect_right(self._starts, start + 2 * wall), own + 1)
            out.append(wall * REFERENCE_S / statistics.mean(self.samples[lo:hi]))
        return out

    def scale(self) -> float:
        """The phase's mean factor from wall time to reference host speed."""
        return REFERENCE_S / statistics.mean(self.samples)
