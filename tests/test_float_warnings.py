"""No command raises a numpy floating-point warning.

Every command runs with RuntimeWarning turned into an error, on the
shipped dataset and on the wide benchmark input (200 criteria, seed 7,
under its own flags). A divide that met a zero span, an overflow or an
invalid operation in any kernel would warn, and so fail here.
"""

import sys
import warnings

import pytest
from conftest import REPO_ROOT
from fahp.cli import EXIT_OK, main

if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from perfbench.inputs import write_wide  # noqa: E402

SHIPPED = REPO_ROOT / "data" / "travel_reviews_surrogate.csv"

COMMANDS = {
    "rank": ["rank", "--out-json", "report.json", "--out-csv", "report.csv", "--out-svg", "report.svg"],
    "check": ["check"],
    **{f"dump {stage}": ["dump", "--dump", stage] for stage in ("comparison", "fuzzy", "extents", "normalized")},
}


def _input_flags(name, directory):
    if name == "shipped":
        return ["--input", str(SHIPPED)]
    return list(write_wide(REPO_ROOT, directory, 7).flags)


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("name", ["shipped", "wide"])
def test_no_command_warns(name, command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = COMMANDS[command] + _input_flags(name, tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    assert code == EXIT_OK
    assert capsys.readouterr().err == ""
