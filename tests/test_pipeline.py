"""The stage guard that names where a run failed."""

import pytest

from fahp import ConsistencyReport, EmptyDataset, GateRejected, PipelineError, RunConfig, run
from fahp.pipeline import _stage


def _raise_in(stage, exc):
    with _stage(stage):
        raise exc


@pytest.mark.parametrize(
    "exc",
    [EmptyDataset("no rows"), OSError("gone"), ValueError("bad"), KeyError("k")],
    ids=["FahpError", "OSError", "ValueError", "KeyError"],
)
def test_stage_failures_are_wrapped_with_the_stage_name(exc):
    with pytest.raises(PipelineError) as info:
        _raise_in("normalize", exc)
    assert info.value.stage == "normalize"
    assert info.value.cause is exc
    assert info.value.__cause__ is exc


def test_gate_rejection_and_wrapped_errors_pass_through():
    report = ConsistencyReport(
        lambda_max=4.0, n=3, ci=0.5, ir=0.58, cr=0.86, accepted=False
    )
    rejected = GateRejected(report)
    with pytest.raises(GateRejected) as info:
        _raise_in("consistency", rejected)
    assert info.value is rejected
    wrapped = PipelineError("ingest", ValueError("bad"))
    with pytest.raises(PipelineError) as info:
        _raise_in("normalize", wrapped)
    assert info.value is wrapped


def test_other_errors_are_not_wrapped():
    with pytest.raises(TypeError):
        _raise_in("score", TypeError("a bug, not an input error"))


def test_missing_input_names_the_ingest_stage(tmp_path):
    with pytest.raises(PipelineError) as info:
        run(RunConfig(input=str(tmp_path / "missing.csv")))
    assert info.value.stage == "ingest"
    assert isinstance(info.value.cause, OSError)
