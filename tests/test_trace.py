"""The benchmark's trace mode still finds every name it wraps.

perfbench/spans.py replaces attributes of fahp.cli and fahp.pipeline by
name when its Tracer is built, so renaming or dropping one of them breaks
every `perfbench/run.py --trace 1` run; nothing else would notice.
"""

import sys

import fahp.cli
from conftest import REPO_ROOT

if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from perfbench.spans import Tracer  # noqa: E402


def test_traced_rank_records_the_fuzzy_layers(capsys):
    dataset = REPO_ROOT / "data" / "travel_reviews_surrogate.csv"
    untraced = fahp.cli.main
    tracer = Tracer()
    with tracer.op(0) as record:
        code = fahp.cli.main(["rank", "--input", str(dataset)])
    assert code == 0, capsys.readouterr().err
    assert record.self_ns["tfn"] > 0
    assert record.self_ns["extent"] > 0
    # the wrapped names are restored once the operation ends
    assert fahp.cli.main is untraced


def test_traced_rank_counts_the_work_of_each_layer(capsys):
    # the per-layer counts perfbench reports for the paper workload; score
    # is called twice per rank, on the ratings and on the normalized
    # matrix, and its counter reads the values of its `data` argument
    dataset = REPO_ROOT / "data" / "travel_reviews_surrogate.csv"
    with Tracer().op(0) as record:
        code = fahp.cli.main(["rank", "--input", str(dataset)])
    assert code == 0, capsys.readouterr().err
    assert record.counts == {
        "dataset.cells": 9800,
        "dataset.bytes_in": 58812,
        "consistency.entries": 100,
        "tfn.lookups": 90,
        "extent.zero_weights": 6,
        "normalize.cells_out": 9800,
        "ranking.cells_folded": 19600,
        "reference.cells_folded": 9800,
    }
