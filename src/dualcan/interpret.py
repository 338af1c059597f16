"""Attention-weight export: JSON reports and standalone SVG heatmaps.

Heatmaps are written directly as SVG text (no plotting dependency): one
column per sample, one row per sentence index, darker cells for larger
weights, shading normalized per column.
"""

from __future__ import annotations

import re
from html import escape
from pathlib import Path

import numpy as np

from .data import atomic_write
from .model import predicted_label

CELL = 18
LEFT_MARGIN = 34
TOP_MARGIN = 46

# a character XML 1.0 does not allow in a document: a control other than tab,
# LF and CR, a lone surrogate, U+FFFE or U+FFFF
_NOT_XML = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")

# attention families: field of model.AttentionReport (and report key), heatmap title
FAMILIES = (
    ("news_entity", "news sentences (entity block)"),
    ("entity", "entity description sentences"),
    ("news_comment", "news sentences (comment block)"),
    ("comment", "comment sentences"),
)
# the file export_heatmaps writes for each family, in FAMILIES order
HEATMAP_FILES = tuple(f"attention_{key}.svg" for key, _ in FAMILIES)


def report_entry(doc_id: str, label: int, probs, attn) -> dict:
    """One sample's row of the attention report file."""
    probs = [float(p) for p in probs]
    return {
        "id": doc_id,
        "label": int(label),
        "prediction": predicted_label(probs),
        "probabilities": {"real": probs[0], "fake": probs[1]},
        "attention": {key: [float(x) for x in getattr(attn, key)] for key, _ in FAMILIES},
        "masks": {
            "news": [bool(b) for b in attn.news_mask],
            "entity": [bool(b) for b in attn.entity_mask],
            "comment": [bool(b) for b in attn.comment_mask],
        },
    }


def _xml_text(text: str) -> str:
    """``text`` escaped for an SVG text node, each character XML 1.0 does not
    allow replaced with U+FFFD."""
    return escape(_NOT_XML.sub("\ufffd", text), quote=False)


def render_heatmap_svg(path, weights: np.ndarray, sample_ids: list, title: str) -> None:
    """Write a heatmap of ``weights`` [positions x samples] to ``path``,
    atomically (``data.atomic_write``). A sample id or title character that
    XML 1.0 does not allow is drawn as U+FFFD, so any id gives a well-formed
    file."""
    weights = np.asarray(weights, dtype=float)
    rows, cols = weights.shape
    if cols != len(sample_ids):
        raise ValueError(f"{cols} weight columns but {len(sample_ids)} sample ids")
    width = LEFT_MARGIN + cols * CELL + 10
    height = TOP_MARGIN + rows * CELL + 10
    if not np.isfinite(weights).all():
        raise ValueError("heatmap weights must be finite")
    # darker = larger weight; each column is normalized by its own max
    col_max = weights.max(axis=0) if rows else np.zeros(cols)
    frac = np.divide(weights, col_max, out=np.zeros_like(weights), where=col_max > 0)
    levels = np.rint(255 * (1.0 - np.clip(frac, 0.0, 1.0))).astype(int).tolist()
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<text x="{LEFT_MARGIN}" y="16" font-size="12" font-family="sans-serif">'
        f'{_xml_text(title)}</text>',
    ]
    for j, sid in enumerate(sample_ids):
        x = LEFT_MARGIN + j * CELL + CELL // 2
        parts.append(
            f'<text x="{x}" y="{TOP_MARGIN - 6}" font-size="8" font-family="sans-serif" '
            f'text-anchor="middle">{_xml_text(str(sid))}</text>')
    for i in range(rows):
        y = TOP_MARGIN + i * CELL
        parts.append(
            f'<text x="{LEFT_MARGIN - 6}" y="{y + CELL - 5}" font-size="8" '
            f'font-family="sans-serif" text-anchor="end">{i}</text>')
        for j, level in enumerate(levels[i]):
            x = LEFT_MARGIN + j * CELL
            parts.append(
                f'<rect x="{x}" y="{y}" width="{CELL}" height="{CELL}" '
                f'fill="rgb({level},{level},{level})" stroke="#cccccc" stroke-width="0.5"/>')
    parts.append("</svg>")
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def export_heatmaps(out_dir, entries: list) -> list:
    """One SVG per attention family, columns = samples in report order."""
    out = Path(out_dir)
    ids = [e["id"] for e in entries]
    written = []
    for (key, title), name in zip(FAMILIES, HEATMAP_FILES):
        matrix = np.array([e["attention"][key] for e in entries]).T  # [positions x samples]
        path = out / name
        render_heatmap_svg(path, matrix, ids, title)
        written.append(str(path))
    return written
