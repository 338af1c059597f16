"""Binary classification metrics with fake (label 1) as the positive class.

Every report carries both positive-class and macro-averaged values, since
either convention is defensible for precision/recall/F1; early stopping uses
macro-F1. PR-AUC is average precision with step interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass


class MetricError(ValueError):
    """A metric is undefined for the given inputs."""


@dataclass
class Confusion:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion(preds: list, labels: list) -> Confusion:
    if len(preds) != len(labels):
        raise MetricError(f"length mismatch: {len(preds)} predictions vs {len(labels)} labels")
    if not preds:
        raise MetricError("cannot score an empty prediction list")
    tp = fp = tn = fn = 0
    for p, y in zip(preds, labels):
        if p not in (0, 1) or y not in (0, 1):
            raise MetricError(f"predictions and labels must be 0/1, got ({p}, {y})")
        if p == 1 and y == 1:
            tp += 1
        elif p == 1 and y == 0:
            fp += 1
        elif p == 0 and y == 0:
            tn += 1
        else:
            fn += 1
    return Confusion(tp, fp, tn, fn)


def _prf_from_counts(tp: int, fp: int, fn: int):
    # zero denominators score 0 by convention
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def prf(c: Confusion, averaging: str = "positive"):
    """(precision, recall, f1) for the positive class or macro-averaged."""
    if averaging == "positive":
        return _prf_from_counts(c.tp, c.fp, c.fn)
    if averaging == "macro":
        pos = _prf_from_counts(c.tp, c.fp, c.fn)
        neg = _prf_from_counts(c.tn, c.fn, c.fp)
        return tuple((a + b) / 2.0 for a, b in zip(pos, neg))
    raise MetricError(f"unknown averaging '{averaging}' (expected positive or macro)")


def pr_auc(scores: list, labels: list) -> float:
    """Average precision over the ranking by descending score.

    Ties are broken by original index; AP sums precision at each positive's
    rank, weighted by the recall step there.
    """
    if len(scores) != len(labels):
        raise MetricError(f"length mismatch: {len(scores)} scores vs {len(labels)} labels")
    n_pos = sum(1 for y in labels if y == 1)
    if n_pos == 0:
        raise MetricError("PR-AUC is undefined without a positive label")
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    seen_pos = 0
    ap = 0.0
    for rank, idx in enumerate(order, start=1):
        if labels[idx] == 1:
            seen_pos += 1
            ap += seen_pos / rank
    return ap / n_pos


def metrics_report(preds: list, labels: list, scores: list | None = None) -> dict:
    """The full metrics dictionary used in run artifacts."""
    c = confusion(preds, labels)
    p_pos, r_pos, f_pos = prf(c, "positive")
    p_mac, r_mac, f_mac = prf(c, "macro")
    report = {
        "accuracy": (c.tp + c.tn) / c.total,
        "precision_pos": p_pos,
        "recall_pos": r_pos,
        "f1_pos": f_pos,
        "precision_macro": p_mac,
        "recall_macro": r_mac,
        "f1_macro": f_mac,
        "pr_auc": None,
    }
    if scores is not None and c.tp + c.fn:  # undefined without a positive label
        report["pr_auc"] = pr_auc(scores, labels)
    return report
