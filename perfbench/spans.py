"""Spans recorded around calls into the fahp layers, from outside.

The tracer replaces module attributes at the names through which
`fahp.cli` and `fahp.pipeline` call each layer, for the duration of one
traced operation only, so untraced operations run the unmodified program.
Spans are kept in memory; `write_jsonl` writes them out at the end.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


def _cells(args, result):
    return {"cells": int(result.values.size), "bytes_in": os.path.getsize(args["path"])}


# (module, attribute, layer, counter): the counter maps the call's bound
# arguments and result to work counts recorded under the layer's name
TARGETS = (
    ("fahp.cli", "main", "cli", None),
    ("fahp.cli", "run", "pipeline", None),
    ("fahp.cli", "run_to_consistency", "pipeline", None),
    ("fahp.pipeline", "load_csv", "dataset", _cells),
    ("fahp.pipeline", "column_means", "dataset", None),
    ("fahp.pipeline", "normalize", "normalize",
     lambda a, r: {"cells_out": int(r.values.size)}),
    ("fahp.pipeline", "build_comparison", "consistency",
     lambda a, r: {"entries": int(r.entries.size)}),
    ("fahp.pipeline", "check", "consistency", None),
    ("fahp.pipeline", "default_scale_table", "tfn", None),
    # every off-diagonal entry is one scale-table lookup
    ("fahp.pipeline", "fuzzify", "tfn", lambda a, r: {"lookups": r.n * (r.n - 1)}),
    ("fahp.pipeline", "synthetic_extents", "extent", None),
    ("fahp.pipeline", "weights", "extent",
     lambda a, r: {"zero_weights": int((r.weights == 0.0).sum())}),
    ("fahp.pipeline", "score", "ranking",
     lambda a, r: {"cells_folded": int(a["data"].values.size)}),
    ("fahp.pipeline", "build_report", "ranking", None),
    ("fahp.pipeline", "validate", "ranking", None),
    ("fahp.pipeline", "reference_scores", "reference",
     lambda a, r: {"cells_folded": len(a["cells"]) * len(a["cells"][0])}),
    ("fahp.cli", "render_json", "report", None),
    ("fahp.cli", "render_ranking_csv", "report", None),
    ("fahp.cli", "render_scores_svg", "report", None),
    ("fahp.cli", "render_matrix_csv", "report", None),
    ("fahp.cli", "write_text", "report",
     lambda a, r: {"bytes_written": len(a["text"].encode("utf-8"))}),
)

LAYERS = (
    "cli", "pipeline", "dataset", "normalize", "consistency",
    "tfn", "extent", "ranking", "reference", "report",
)


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    layer: str
    start_ns: int
    end_ns: int


@dataclass
class OpTrace:
    """Per-layer self time and work counts of one traced operation."""

    wall_ns: int
    self_ns: dict
    counts: dict


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._counts: dict = {}
        self._targets = []
        for module_name, attr, layer, counter in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._targets.append(
                (module, attr, original, self._wrap(module_name, attr, layer, counter, original))
            )

    def _wrap(self, module_name, attr, layer, counter, original):
        name = f"{module_name}.{attr}"
        signature = inspect.signature(original) if counter else None

        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[span_id] = Span(span_id, parent, self._op, name, layer, start, end)
            if counter is not None:
                bound = signature.bind(*args, **kwargs).arguments
                for key, value in counter(bound, result).items():
                    full = f"{layer}.{key}"
                    self._counts[full] = self._counts.get(full, 0) + value
            return result

        return traced

    @contextmanager
    def op(self, op_id: int):
        """Trace every call into the layers made inside the block."""
        self._op = op_id
        self._counts = {}
        first = len(self.spans)
        for module, attr, _, traced in self._targets:
            setattr(module, attr, traced)
        record = OpTrace(0, {}, {})
        try:
            yield record
        finally:
            for module, attr, original, _ in self._targets:
                setattr(module, attr, original)
            self._stack.clear()
            self._summarise(first, record)

    def _summarise(self, first: int, record: OpTrace) -> None:
        # a layer's self time is its spans' time minus their children's
        spans = [s for s in self.spans[first:] if s is not None]
        self_ns = dict.fromkeys(LAYERS, 0)
        for span in spans:
            self_ns[span.layer] += span.end_ns - span.start_ns
            if span.parent is not None:
                self_ns[self.spans[span.parent].layer] -= span.end_ns - span.start_ns
        record.wall_ns = sum(s.end_ns - s.start_ns for s in spans if s.parent is None)
        record.self_ns = self_ns
        record.counts = dict(self._counts)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(asdict(span)) + "\n")
