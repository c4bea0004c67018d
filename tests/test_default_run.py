"""The headline run: a default `rank` of the shipped dataset, pinned.

Its weights, its six zero weights, its order and its consistency figures
are the README's claim, so they are checked here as the report writes
them, and the gate's three figures to the bit. The tall benchmark input
(50 shuffled copies of the same rows) has the same column means, so it
must give the same two sections. The default `check` and the four dumps
of the shipped dataset are pinned too: `check` by its stdout, each dump
by the byte count and sha256 of what it writes to stdout.
"""

import hashlib
import json
import sys

import pytest
from conftest import REPO_ROOT
from fahp.cli import EXIT_OK, main

if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from perfbench.inputs import write_tall  # noqa: E402

SHIPPED = REPO_ROOT / "data" / "travel_reviews_surrogate.csv"

WEIGHTS = [
    {"label": "Art Galleries", "weight": 0.0, "d_prime": 0.0},
    {"label": "Dance Clubs", "weight": 0.0, "d_prime": 0.0},
    {"label": "Juice Bars", "weight": 0.0, "d_prime": 0.0},
    {"label": "Restaurants", "weight": 0.0, "d_prime": 0.0},
    {"label": "Museums", "weight": 0.0, "d_prime": 0.0},
    {"label": "Resorts", "weight": 0.0276, "d_prime": 0.0747},
    {"label": "Parks/Picnic Spots", "weight": 0.3703, "d_prime": 1.0},
    {"label": "Beaches", "weight": 0.3063, "d_prime": 0.8271},
    {"label": "Theaters", "weight": 0.0, "d_prime": 0.0},
    {"label": "Religious Institutions", "weight": 0.2957, "d_prime": 0.7985},
]

RANKING = [
    {"rank": 1, "label": "Parks/Picnic Spots", "score_real": 1.178, "score_normalized": 0.2945},
    {"rank": 2, "label": "Beaches", "score_real": 0.8684, "score_normalized": 0.2171},
    {"rank": 3, "label": "Religious Institutions", "score_real": 0.8277, "score_normalized": 0.208},
    {"rank": 4, "label": "Resorts", "score_real": 0.0509, "score_normalized": 0.015},
    {"rank": 5, "label": "Art Galleries", "score_real": 0.0, "score_normalized": 0.0},
    {"rank": 6, "label": "Dance Clubs", "score_real": 0.0, "score_normalized": 0.0},
    {"rank": 7, "label": "Juice Bars", "score_real": 0.0, "score_normalized": 0.0},
    {"rank": 8, "label": "Museums", "score_real": 0.0, "score_normalized": 0.0},
    {"rank": 9, "label": "Restaurants", "score_real": 0.0, "score_normalized": 0.0},
    {"rank": 10, "label": "Theaters", "score_real": 0.0, "score_normalized": 0.0},
]

STDOUT = """\
consistency: cr = 0.0253, accepted = true
  1  Parks/Picnic Spots        1.1780
  2  Beaches                   0.8684
  3  Religious Institutions    0.8277
  4  Resorts                   0.0509
  5  Art Galleries             0.0000
  6  Dance Clubs               0.0000
  7  Juice Bars                0.0000
  8  Museums                   0.0000
  9  Restaurants               0.0000
 10  Theaters                  0.0000
mse vs reference: 3.586e-31 (tolerance 0.001)
"""

CHECK_STDOUT = """\
lambda_max: 10.3388
n: 10
ci: 0.0376
ir: 1.4900
cr: 0.0253
accepted: true
"""

# stage -> (bytes, sha256) of the dump written to stdout
DUMPS = {
    "comparison": (877, "14bf9858cef895b86cbbfe3f99831fd8c966fc361a332dbbb17dbcd6bc959ad6"),
    "fuzzy": (6726, "641dd0c4576eae017d203a39965e9b73e6d49e5408dac00b3fd5d9fad02b08f0"),
    "extents": (734, "70f8dafbb59a82e70644dc47711dc6d8b30cb61faca714264f7f45ed20156e4d"),
    "normalized": (160312, "562016fa7bae0bb0fe3e11a79fe0cdd9a9a4b5d34c9f66c560bb8425b21a4aec"),
}


def rank_report(csv_path, out_json, capsys):
    """Exit code, stdout, stderr and the JSON report of a default rank."""
    code = main(["rank", "--input", str(csv_path), "--out-json", str(out_json)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err, json.loads(out_json.read_text(encoding="utf-8"))


def test_default_rank_of_the_shipped_dataset(tmp_path, capsys):
    code, out, err, doc = rank_report(SHIPPED, tmp_path / "report.json", capsys)
    assert code == EXIT_OK
    assert err == ""
    assert out == STDOUT
    assert doc["weights"] == WEIGHTS
    assert doc["ranking"] == RANKING
    consistency = doc["consistency"]
    assert float.hex(consistency["lambda_max"]) == "0x1.4ad71fa4c47bbp+3"
    assert float.hex(consistency["ci"]) == "0x1.3458d96b2a300p-5"
    assert float.hex(consistency["cr"]) == "0x1.9de3809d971fdp-6"
    assert consistency["accepted"] is True
    assert list(doc["config_echo"].items()) == [
        ("input", str(SHIPPED)),
        ("schema", None),
        ("ir_mode", "standard"),
        ("derivation", "mean_gap"),
        ("report_scale", 1.0),
        ("mse_tol", 0.001),
        ("force", False),
    ]


def test_tall_input_gives_the_same_sections(tmp_path, capsys):
    tall_dir = tmp_path / "tall"
    tall_dir.mkdir()
    write_tall(REPO_ROOT, tall_dir, 7)
    code, _, err, doc = rank_report(tall_dir / "ratings.csv", tmp_path / "tall.json", capsys)
    assert code == EXIT_OK
    assert err == ""
    assert doc["weights"] == WEIGHTS
    assert doc["ranking"] == RANKING


def test_default_check_of_the_shipped_dataset(capsys):
    code = main(["check", "--input", str(SHIPPED)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert captured.err == ""
    assert captured.out == CHECK_STDOUT


@pytest.mark.parametrize("stage", sorted(DUMPS))
def test_default_dump_of_the_shipped_dataset(stage, capsys):
    code = main(["dump", "--input", str(SHIPPED), "--dump", stage])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert captured.err == ""
    data = captured.out.encode("utf-8")
    assert (len(data), hashlib.sha256(data).hexdigest()) == DUMPS[stage]
