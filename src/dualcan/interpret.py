"""Attention-weight export: JSON reports and standalone SVG heatmaps.

Heatmaps are written directly as SVG text (no plotting dependency): one
column per sample, one row per sentence index, darker cells for larger
weights, shading normalized per column.
"""

from __future__ import annotations

import json
from html import escape
from pathlib import Path

import numpy as np

from .model import predicted_label

CELL = 18
LEFT_MARGIN = 34
TOP_MARGIN = 46


def report_entry(doc_id: str, label: int, probs, attn) -> dict:
    """One sample's row of the attention report file."""
    probs = [float(p) for p in probs]
    return {
        "id": doc_id,
        "label": int(label),
        "prediction": predicted_label(probs),
        "probabilities": {"real": probs[0], "fake": probs[1]},
        "attention": {
            "news_entity": [float(x) for x in attn.news_entity],
            "entity": [float(x) for x in attn.entity],
            "news_comment": [float(x) for x in attn.news_comment],
            "comment": [float(x) for x in attn.comment],
        },
        "masks": {
            "news": [bool(b) for b in attn.news_mask],
            "entity": [bool(b) for b in attn.entity_mask],
            "comment": [bool(b) for b in attn.comment_mask],
        },
    }


def write_report(path, entries: list, skipped: list) -> None:
    payload = {"samples": entries, "skipped": list(skipped)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _shade(weight: float, col_max: float) -> str:
    # darker = larger weight; each column is normalized by its own max
    frac = 0.0 if col_max <= 0 else min(max(weight / col_max, 0.0), 1.0)
    level = int(round(255 * (1.0 - frac)))
    return f"rgb({level},{level},{level})"


def render_heatmap_svg(path, weights: np.ndarray, sample_ids: list, title: str) -> None:
    """Write a heatmap of ``weights`` [positions x samples] to ``path``."""
    weights = np.asarray(weights, dtype=float)
    rows, cols = weights.shape
    if cols != len(sample_ids):
        raise ValueError(f"{cols} weight columns but {len(sample_ids)} sample ids")
    width = LEFT_MARGIN + cols * CELL + 10
    height = TOP_MARGIN + rows * CELL + 10
    col_max = weights.max(axis=0) if rows else np.zeros(cols)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<text x="{LEFT_MARGIN}" y="16" font-size="12" font-family="sans-serif">'
        f'{escape(title, quote=False)}</text>',
    ]
    for j, sid in enumerate(sample_ids):
        x = LEFT_MARGIN + j * CELL + CELL // 2
        parts.append(
            f'<text x="{x}" y="{TOP_MARGIN - 6}" font-size="8" font-family="sans-serif" '
            f'text-anchor="middle">{escape(str(sid), quote=False)}</text>')
    for i in range(rows):
        y = TOP_MARGIN + i * CELL
        parts.append(
            f'<text x="{LEFT_MARGIN - 6}" y="{y + CELL - 5}" font-size="8" '
            f'font-family="sans-serif" text-anchor="end">{i}</text>')
        for j in range(cols):
            x = LEFT_MARGIN + j * CELL
            fill = _shade(weights[i, j], float(col_max[j]))
            parts.append(
                f'<rect x="{x}" y="{y}" width="{CELL}" height="{CELL}" fill="{fill}" '
                f'stroke="#cccccc" stroke-width="0.5"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def export_heatmaps(out_dir, entries: list) -> list:
    """One SVG per attention family, columns = samples in report order."""
    out = Path(out_dir)
    families = [
        ("news_entity", "news sentences (entity block)"),
        ("entity", "entity description sentences"),
        ("news_comment", "news sentences (comment block)"),
        ("comment", "comment sentences"),
    ]
    ids = [e["id"] for e in entries]
    written = []
    for key, title in families:
        matrix = np.array([e["attention"][key] for e in entries]).T  # [positions x samples]
        path = out / f"attention_{key}.svg"
        render_heatmap_svg(path, matrix, ids, title)
        written.append(str(path))
    return written
