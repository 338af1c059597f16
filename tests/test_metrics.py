import numpy as np
import pytest

from dualcan import metrics

from oracles import average_precision_loops


# hand-tallied fixture: 10 samples
#   idx:    0  1  2  3  4  5  6  7  8  9
FIX_PREDS = [1, 0, 1, 1, 0, 0, 1, 0, 1, 0]
FIX_LABELS = [1, 0, 0, 1, 1, 0, 1, 1, 0, 0]
# tp: idx 0,3,6 -> 3;  fp: idx 2,8 -> 2;  fn: idx 4,7 -> 2;  tn: idx 1,5,9 -> 3


def test_confusion_all_correct_positive():
    c = metrics.confusion([1] * 5, [1] * 5)
    assert (c.tp, c.fp, c.tn, c.fn) == (5, 0, 0, 0)


def test_confusion_all_missed():
    c = metrics.confusion([0] * 4, [1] * 4)
    assert (c.tp, c.fp, c.tn, c.fn) == (0, 0, 0, 4)


def test_confusion_hand_tally():
    c = metrics.confusion(FIX_PREDS, FIX_LABELS)
    assert (c.tp, c.fp, c.tn, c.fn) == (3, 2, 3, 2)
    assert c.total == 10


def test_confusion_errors():
    with pytest.raises(metrics.MetricError):
        metrics.confusion([1], [1, 0])
    with pytest.raises(metrics.MetricError):
        metrics.confusion([], [])
    with pytest.raises(metrics.MetricError):
        metrics.confusion([2], [1])


def test_prf_hand_case():
    p, r, f1 = metrics.prf(metrics.Confusion(tp=1, fp=1, tn=0, fn=0))
    assert (p, r) == (0.5, 1.0)
    assert f1 == pytest.approx(2 / 3)


def test_prf_perfect():
    assert metrics.prf(metrics.Confusion(5, 0, 5, 0)) == (1.0, 1.0, 1.0)


def test_prf_zero_denominators():
    assert metrics.prf(metrics.Confusion(0, 0, 4, 0)) == (0.0, 0.0, 0.0)


def test_prf_macro_matches_per_class():
    c = metrics.confusion(FIX_PREDS, FIX_LABELS)
    # positive class: P = 3/5, R = 3/5; negative class: P = 3/5, R = 3/5
    p_pos, r_pos, f_pos = metrics.prf(c, "positive")
    assert p_pos == pytest.approx(3 / 5)
    assert r_pos == pytest.approx(3 / 5)
    neg_p = c.tn / (c.tn + c.fn)
    neg_r = c.tn / (c.tn + c.fp)
    neg_f = 2 * neg_p * neg_r / (neg_p + neg_r)
    p_mac, r_mac, f_mac = metrics.prf(c, "macro")
    assert p_mac == pytest.approx((p_pos + neg_p) / 2)
    assert r_mac == pytest.approx((r_pos + neg_r) / 2)
    assert f_mac == pytest.approx((f_pos + neg_f) / 2)


def test_prf_macro_invariant_under_relabeling():
    flipped_preds = [1 - p for p in FIX_PREDS]
    flipped_labels = [1 - y for y in FIX_LABELS]
    a = metrics.prf(metrics.confusion(FIX_PREDS, FIX_LABELS), "macro")
    b = metrics.prf(metrics.confusion(flipped_preds, flipped_labels), "macro")
    assert a == pytest.approx(b)


def test_prf_unknown_averaging():
    with pytest.raises(metrics.MetricError):
        metrics.prf(metrics.Confusion(1, 1, 1, 1), "weighted")


def test_f1_identities(rng):
    for _ in range(100):
        tp, fp, fn = (int(v) for v in rng.integers(0, 20, 3))
        tn = int(rng.integers(0, 20))
        if tp + fp + tn + fn == 0:
            continue
        p, r, f1 = metrics.prf(metrics.Confusion(tp, fp, tn, fn))
        assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0 and 0.0 <= f1 <= 1.0
        if p + r > 0:
            assert f1 == pytest.approx(2 * p * r / (p + r))
        assert f1 <= min(2 * p, 2 * r) + 1e-12


def test_accuracy():
    assert metrics.metrics_report([1, 0, 1], [1, 0, 1])["accuracy"] == 1.0
    assert metrics.metrics_report([1, 0], [0, 1])["accuracy"] == 0.0
    assert metrics.metrics_report(FIX_PREDS, FIX_LABELS)["accuracy"] == 6 / 10


# ---------------------------------------------------------------------------
# PR-AUC
# ---------------------------------------------------------------------------


def test_pr_auc_perfect_ranking():
    assert metrics.pr_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_pr_auc_single_positive_ranked_last():
    n = 5
    scores = [0.9, 0.8, 0.7, 0.6, 0.1]
    labels = [0, 0, 0, 0, 1]
    assert metrics.pr_auc(scores, labels) == pytest.approx(1 / n)


def test_pr_auc_six_sample_fixture():
    scores = [0.9, 0.8, 0.7, 0.6, 0.5, 0.2]
    labels = [1, 0, 1, 1, 0, 0]
    # positives at ranks 1, 3, 4: AP = (1/3)(1/1 + 2/3 + 3/4) = 29/36
    assert metrics.pr_auc(scores, labels) == pytest.approx(29 / 36, abs=1e-12)
    assert metrics.pr_auc(scores, labels) == pytest.approx(
        average_precision_loops(scores, labels), abs=1e-12)


def test_pr_auc_tie_break_by_original_index():
    scores = [0.9, 0.5, 0.5, 0.5, 0.3, 0.1]
    labels = [0, 1, 0, 1, 0, 1]
    # stable order: idx 0,1,2,3,4,5 -> positives at ranks 2, 4, 6
    assert metrics.pr_auc(scores, labels) == pytest.approx(0.5, abs=1e-12)


def test_pr_auc_monotone_transform_invariant(rng):
    for _ in range(20):
        n = int(rng.integers(3, 12))
        scores = list(rng.uniform(0, 1, n))
        labels = list(rng.integers(0, 2, n))
        if sum(labels) == 0:
            labels[0] = 1
        base = metrics.pr_auc(scores, labels)
        squashed = metrics.pr_auc([float(np.tanh(3 * s) + 5) for s in scores], labels)
        assert squashed == pytest.approx(base, abs=1e-12)


def test_pr_auc_random_matches_enumeration_oracle(rng):
    for _ in range(25):
        n = int(rng.integers(2, 15))
        scores = list(rng.uniform(0, 1, n))
        labels = list(rng.integers(0, 2, n))
        if sum(labels) == 0:
            labels[-1] = 1
        assert metrics.pr_auc(scores, labels) == pytest.approx(
            average_precision_loops(scores, labels), abs=1e-12)


def test_pr_auc_no_positives_errors():
    with pytest.raises(metrics.MetricError):
        metrics.pr_auc([0.5, 0.4], [0, 0])


def test_pr_auc_bounds(rng):
    for _ in range(30):
        n = int(rng.integers(2, 10))
        scores = list(rng.uniform(0, 1, n))
        labels = list(rng.integers(0, 2, n))
        if sum(labels) == 0:
            labels[0] = 1
        assert 0.0 <= metrics.pr_auc(scores, labels) <= 1.0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def test_metrics_report_schema():
    report = metrics.metrics_report(FIX_PREDS, FIX_LABELS,
                                    [0.9, 0.1, 0.8, 0.7, 0.4, 0.2, 0.6, 0.3, 0.55, 0.05])
    assert set(report) == {"accuracy", "precision_pos", "recall_pos", "f1_pos",
                           "precision_macro", "recall_macro", "f1_macro", "pr_auc"}
    assert report["accuracy"] == pytest.approx(0.6)
    assert 0.0 <= report["pr_auc"] <= 1.0


def test_metrics_report_without_scores():
    report = metrics.metrics_report([1, 0], [1, 0])
    assert report["pr_auc"] is None
    assert report["accuracy"] == 1.0


def test_metrics_report_without_positive_labels():
    report = metrics.metrics_report([1, 0], [0, 0], [0.7, 0.2])
    assert report["pr_auc"] is None
    assert report["accuracy"] == 0.5
