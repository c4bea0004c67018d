"""Deterministic report rendering: JSON, CSV, and a minimal SVG chart.

Scores and weights are rounded to 4 decimal places on the way out;
consistency diagnostics and the MSE keep full precision. Nothing here
emits timestamps, so identical inputs render identical bytes.
"""

from __future__ import annotations

import json
from typing import Sequence

import numpy as np

from .ranking import RankingReport
from .tfn import FuzzyComparisonMatrix

REPORT_DECIMALS = 4

# rows per block of a matrix dump: one unique-and-gather over a whole
# 49 000 x 10 matrix raises the peak RSS of its dump from 69 to 75 MB
_BLOCK_ROWS = 4096


def _round4(value: float) -> float:
    return round(float(value), REPORT_DECIMALS)


def report_to_dict(
    report: RankingReport,
    config_echo: dict,
    report_scale: float = 1.0,
) -> dict:
    """Assemble the wire-format dictionary with a fixed key order."""
    weights_rows = [
        {
            "label": label,
            "weight": _round4(w),
            "d_prime": _round4(d),
        }
        for label, w, d in zip(
            report.weights.labels, report.weights.weights, report.weights.min_degrees
        )
    ]
    ranking_rows = [
        {
            "rank": row.rank,
            "label": row.label,
            "score_real": _round4(row.score_real * report_scale),
            "score_normalized": (
                _round4(row.score_normalized * report_scale)
                if row.score_normalized is not None
                else None
            ),
        }
        for row in report.rows
    ]
    return {
        "consistency": report.consistency.as_dict(),
        "weights": weights_rows,
        "ranking": ranking_rows,
        "mse": report.mse,
        "config_echo": config_echo,
    }


def render_json(report: RankingReport, config_echo: dict, report_scale: float = 1.0) -> str:
    doc = report_to_dict(report, config_echo, report_scale)
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def render_ranking_csv(report: RankingReport, report_scale: float = 1.0) -> str:
    lines = ["rank,label,score_real,score_normalized"]
    for row in report.rows:
        real = f"{row.score_real * report_scale:.4f}"
        norm = (
            f"{row.score_normalized * report_scale:.4f}"
            if row.score_normalized is not None
            else ""
        )
        lines.append(f"{row.rank},{_csv_field(row.label)},{real},{norm}")
    return "\n".join(lines) + "\n"


def _csv_field(text: str) -> str:
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def render_scores_svg(report: RankingReport, report_scale: float = 1.0) -> str:
    """Horizontal bar chart of the ranked real-path scores."""
    bar_height = 22
    gap = 6
    label_width = 210
    chart_width = 360
    value_pad = 6
    top = 24
    rows = report.rows
    height = top + len(rows) * (bar_height + gap) + 12
    width = label_width + chart_width + 90
    peak = max(row.score_real for row in rows) or 1.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<style>text{font-family:sans-serif;font-size:12px}</style>',
        f'<text x="{label_width}" y="14" font-weight="bold">score (real path)</text>',
    ]
    for idx, row in enumerate(rows):
        y = top + idx * (bar_height + gap)
        bar = chart_width * (row.score_real / peak)
        value = f"{row.score_real * report_scale:.4f}"
        parts.append(
            f'<text x="{label_width - 8}" y="{y + bar_height - 7}" '
            f'text-anchor="end">{_xml_escape(row.label)}</text>'
        )
        parts.append(
            f'<rect x="{label_width}" y="{y}" width="{bar:.2f}" '
            f'height="{bar_height}" fill="#4878a8"/>'
        )
        parts.append(
            f'<text x="{label_width + bar + value_pad:.2f}" '
            f'y="{y + bar_height - 7}">{value}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _xml_escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def render_matrix_csv(
    header: Sequence[str],
    row_labels: Sequence[str],
    values,
) -> str:
    """Generic matrix dump; floats use shortest round-trip formatting.

    Each distinct value of a block of rows is formatted once. Values are
    told apart by bit pattern, so -0.0 and 0.0 keep their own text.
    """
    values = np.asarray(values, dtype=float)
    labels = [_csv_field(label) for label in row_labels]
    parts = [",".join(map(_csv_field, header)), "\n"]
    for start in range(0, len(values), _BLOCK_ROWS):
        block = values[start : start + _BLOCK_ROWS]
        keys = block.view(np.uint64).ravel()
        distinct, inverse = np.unique(keys, return_inverse=True)
        texts = np.array([*map(repr, distinct.view(float).tolist())], dtype=object)
        columns = texts[inverse].reshape(block.shape).T.tolist()
        rows = zip(labels[start : start + _BLOCK_ROWS], *columns)
        parts += ["\n".join(map(",".join, rows)), "\n"]
    return "".join(parts)


def render_fuzzy_json(labels: Sequence[str], fuzzy: FuzzyComparisonMatrix) -> str:
    doc = {"labels": list(labels), "entries": fuzzy.values.tolist()}
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
