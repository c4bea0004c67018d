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
