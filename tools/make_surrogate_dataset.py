"""Generate the surrogate Travel Reviews CSV shipped under data/.

The real UCI Travel Reviews file is not redistributed here. This script
writes a deterministic 980 x 10 stand-in with the same layout (header,
id column, ten category columns), ratings on a 2-decimal 0..4 grid, and
column means calibrated to the published per-category means to within
one part in 2e5 (integer-cent accounting makes the calibration exact up
to the rounding of the target itself).

Run from the repository root:

    python3 tools/make_surrogate_dataset.py data/travel_reviews_surrogate.csv
"""

import argparse
import csv

import numpy as np

ROWS = 980

# (column header, label, published column mean, spread of the raw draw)
COLUMNS = [
    ("Category 1", "Art Galleries", 0.8931, 0.45),
    ("Category 2", "Dance Clubs", 1.3526, 0.55),
    ("Category 3", "Juice Bars", 1.0133, 0.60),
    ("Category 4", "Restaurants", 0.5325, 0.35),
    ("Category 5", "Museums", 0.9397, 0.50),
    ("Category 6", "Resorts", 1.8428, 0.55),
    ("Category 7", "Parks/Picnic Spots", 3.1809, 0.40),
    ("Category 8", "Beaches", 2.8350, 0.45),
    ("Category 9", "Theaters", 1.5694, 0.55),
    ("Category 10", "Religious Institutions", 2.7992, 0.50),
]

SEED = 484980


def calibrated_column(rng, mean, spread):
    """Integer-cent column whose mean hits round(mean * 100 * ROWS) cents."""
    draw = rng.normal(loc=mean, scale=spread, size=ROWS)
    cents = np.rint(np.clip(draw, 0.0, 4.0) * 100).astype(np.int64)
    target = int(round(mean * 100 * ROWS))
    order = rng.permutation(ROWS)
    idx = 0
    while cents.sum() != target:
        gap = target - cents.sum()
        step = 1 if gap > 0 else -1
        pos = order[idx % ROWS]
        idx += 1
        moved = cents[pos] + step
        if 0 <= moved <= 400:
            cents[pos] = moved
    return cents


def main(out_path):
    rng = np.random.default_rng(SEED)
    columns = [
        calibrated_column(rng, mean, spread)
        for _, _, mean, spread in COLUMNS
    ]
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["User ID"] + [c[0] for c in COLUMNS])
        for row in range(ROWS):
            record = [f"User {row + 1}"]
            for col in columns:
                record.append(f"{col[row] / 100:.2f}")
            writer.writerow(record)
    achieved = [col.sum() / (100 * ROWS) for col in columns]
    for (_, label, mean, _), got in zip(COLUMNS, achieved):
        print(f"{label:<24} target {mean:.4f}  achieved {got:.6f}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "out_path", nargs="?", default="data/travel_reviews_surrogate.csv", help="CSV to write"
    )
    main(parser.parse_args().out_path)
