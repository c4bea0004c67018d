"""Shared fixtures: dataset resolution and published reference values."""

import os
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

# published per-category means of the UCI Travel Reviews dataset, in
# schema column order; the shipped surrogate is calibrated to these
PUBLISHED_MEANS = {
    "Art Galleries": 0.8931,
    "Dance Clubs": 1.3526,
    "Juice Bars": 1.0133,
    "Restaurants": 0.5325,
    "Museums": 0.9397,
    "Resorts": 1.8428,
    "Parks/Picnic Spots": 3.1809,
    "Beaches": 2.8350,
    "Theaters": 1.5694,
    "Religious Institutions": 2.7992,
}

# descending-mean order of the ten categories
PUBLISHED_RANK_ORDER = [
    "Parks/Picnic Spots",
    "Beaches",
    "Religious Institutions",
    "Resorts",
    "Theaters",
    "Dance Clubs",
    "Juice Bars",
    "Museums",
    "Art Galleries",
    "Restaurants",
]


# ids a CSV reader could misread: a comment sign, a delimiter, an escaped
# quote, a quoted newline, padding in and outside quotes, over 64 characters
ID_CELLS = [
    "u{i}", "u#{i}", "#u{i}", '"u,{i}"', '"u""{i}"', '"u\n{i}"', "  u{i} ",
    '" u{i} "', ' "u{i}"', "u{i}" + "x" * 70,
]


# one line per acceptance criterion, echoed after the run so the
# pass/fail record is visible even with output capture on
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def resolve_dataset_path() -> Path:
    """Prefer a user-supplied original file, fall back to the surrogate."""
    env = os.environ.get("TRAVEL_REVIEWS_CSV")
    if env:
        return Path(env)
    original = REPO_ROOT / "data" / "tripadvisor_review.csv"
    if original.exists():
        return original
    return REPO_ROOT / "data" / "travel_reviews_surrogate.csv"


@pytest.fixture(scope="session")
def dataset_path() -> Path:
    path = resolve_dataset_path()
    if not path.exists():
        pytest.skip(f"no ratings dataset at {path}")
    return path


@pytest.fixture(scope="session")
def published_means() -> dict:
    return dict(PUBLISHED_MEANS)


@pytest.fixture(scope="session")
def published_rank_order() -> list:
    return list(PUBLISHED_RANK_ORDER)


def emitted_codes():
    """Every scale-row code fuzzify can emit: all but the inverse code of
    intensity 1."""
    # imported here, so a broken package fails the tests that use it and
    # not the loading of this file
    from fahp.tfn import MIRROR

    return [c for c in range(len(MIRROR)) if c != len(MIRROR) // 2]


def random_codes(rng, n):
    """A valid n x n scale-row code matrix: zeros on the diagonal, every
    code fuzzify can emit drawn above it, the mirror codes below it."""
    from fahp.tfn import MIRROR

    codes = np.zeros((n, n), dtype=MIRROR.dtype)
    upper = np.triu_indices(n, 1)
    codes[upper] = rng.choice(emitted_codes(), size=len(upper[0]))
    codes.T[upper] = MIRROR[codes[upper]]
    return codes
