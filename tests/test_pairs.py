import json

import pytest

import pairs

METRICS = [{"name": "explain_ms.p50", "unit": "ms", "better": "lower", "bound": 0.25},
           {"name": "eval_samples_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]


def result(explain, samples, failed=0, attempted=100):
    return {"correct": failed == 0, "failed": failed, "attempted": attempted,
            "metrics": {"explain_ms.p50": {"value": explain, "unit": "ms"},
                        "eval_samples_per_s": {"value": samples, "unit": "1/s"}}}


def test_summary_reports_medians_quartiles_ratio_and_wins():
    parent = [result(2.0, 100.0), result(2.4, 90.0), result(1.6, 110.0), result(2.2, 95.0),
              result(2.0, 105.0)]
    change = [result(1.8, 101.0), result(2.4, 90.0), result(1.5, 100.0), result(2.1, 96.0),
              result(2.1, 104.0, failed=1)]
    lines = pairs.summary(METRICS, list(zip(parent, change)))
    assert lines[0].split() == ["metric", "parent", "median", "[q1,", "q3]", "change",
                                "ratio", "wins", "verdict", "all"]
    # parent 1.6 2.0 2.0 2.2 2.4: median 2.0, exclusive quartiles 1.8 and
    # 2.3; change median 2.1; lower wins in pairs 1, 3 and 4, pair 2 ties
    assert lines[1].split() == ["explain_ms.p50", "2", "[", "1.8,", "2.3]", "2.1", "1.050", "3/5",
                                "level", "no"]
    # higher is better: 101 > 100 and 96 > 95 win, 90 = 90 ties
    assert lines[2].split() == ["eval_samples_per_s", "100", "[", "92.5,", "107.5]", "100",
                                "1.000", "2/5", "level", "no"]
    assert lines[3] == "parent: 0 failed of 500 attempted operations, 5 of 5 runs correct"
    assert lines[4] == "change: 1 failed of 500 attempted operations, 4 of 5 runs correct"


def test_summary_of_one_pair_uses_its_value_as_both_quartiles():
    lines = pairs.summary(METRICS[:1], [(result(2.0, 1.0), result(1.0, 1.0))])
    assert lines[1].split() == ["explain_ms.p50", "2", "[", "2,", "2]", "1", "0.500", "1/1",
                                "better", "yes"]


# parent runs 10 .. 19: median 14.5, exclusive quartiles 11.75 and 17.25, so
# an interquartile distance of 5.5
@pytest.mark.parametrize("change, verdict", [
    # 9 of 10 pairs lower, the median 6 below the parent's
    ([4, 5, 6, 7, 8, 9, 10, 11, 12, 20], "better"),
    # a tie, then 9 pairs higher, the median 6 above the parent's
    ([10, 17, 18, 19, 20, 21, 22, 23, 24, 25], "worse"),
    # 9 of 10 pairs lower, but the median only 5 below, inside the spread
    ([5, 6, 7, 8, 9, 10, 11, 12, 13, 20], "level"),
    # the median 6 below, but only 8 of 10 pairs lower
    ([4, 5, 6, 7, 8, 9, 10, 11, 19, 20], "level"),
])
def test_summary_gives_a_verdict_from_the_share_of_wins_and_the_parents_spread(change,
                                                                                verdict):
    parent = range(10, 20)
    lines = pairs.summary(METRICS[:1], [(result(p, 1.0), result(c, 1.0))
                                        for p, c in zip(parent, change)])
    assert lines[1].split()[-2] == verdict


@pytest.mark.parametrize("better, change, verdict", [
    # lower is better: the change's highest run must read below the parent's lowest
    ("lower", [140.0, 143.5, 141.0], "yes"),
    ("lower", [140.0, 144.0, 141.0], "no"),     # ties the parent's lowest run
    ("lower", [100.0, 150.0, 100.0], "no"),     # wins 2 of 3 pairs, but not every run
    # higher is better: the change's lowest run must read above the parent's highest
    ("higher", [152.5, 160.0, 151.5], "yes"),
    ("higher", [152.5, 160.0, 151.0], "no"),
])
def test_summary_says_whether_every_change_run_beat_every_parent_run(better, change, verdict):
    metric = [{"name": "peak_rss_mb", "unit": "MB", "better": better, "bound": 0.1}]
    parent = [151.0, 144.0, 148.0]

    def rss(value):
        return {"correct": True, "failed": 0, "attempted": 1,
                "metrics": {"peak_rss_mb": {"value": value, "unit": "MB"}}}

    lines = pairs.summary(metric, [(rss(p), rss(c)) for p, c in zip(parent, change)])
    assert lines[1].split()[-1] == verdict


@pytest.mark.parametrize("failed", [0, 1])
def test_main_alternates_sides_and_exits_1_on_an_incorrect_run(monkeypatch, capsys, failed):
    names = [m["name"] for m in json.loads(
        (pairs.CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]]
    runs = []

    def run_once(root, command, workload, seed, seconds):
        runs.append((root == pairs.CHECKOUT, workload, seed, seconds))
        # the last run of the checkout fails its checks when asked
        bad = int(failed and root == pairs.CHECKOUT and seed == 3)
        return {"correct": not bad, "failed": bad, "attempted": 100,
                "metrics": {name: {"value": 1.0} for name in names}}

    monkeypatch.setattr(pairs, "extract", lambda rev, dest: None)
    monkeypatch.setattr(pairs, "run_once", run_once)
    code = pairs.main(["--against", "HEAD", "--workloads", "eval-synth", "--pairs", "3",
                       "--seconds", "2"])
    assert code == failed
    # the parent runs first in odd pairs, the checkout in even ones
    assert runs == [(False, "eval-synth", 1, 2.0), (True, "eval-synth", 1, 2.0),
                    (True, "eval-synth", 2, 2.0), (False, "eval-synth", 2, 2.0),
                    (False, "eval-synth", 3, 2.0), (True, "eval-synth", 3, 2.0)]
    out = capsys.readouterr().out
    assert "== eval-synth: 3 pairs of 2 s runs" in out
    assert f"change: {failed} failed of 300 attempted operations" in out
