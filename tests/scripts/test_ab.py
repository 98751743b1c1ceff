"""``scripts/ab.py``'s summary, fed canned perfbench result lines."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "ab.py"
spec = importlib.util.spec_from_file_location("ab", SCRIPT)
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

METRICS = [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.15},
    {"name": "score", "unit": "ratio", "better": "higher", "bound": 0.25},
]


def line(run_s, rss=100.0, score=1.0, correct=True, failed=0):
    metrics = {"run_s": {"value": run_s, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MiB"},
               "score": {"value": score, "unit": "ratio"}}
    return json.dumps({"correct": correct, "attempted": 40, "failed": failed,
                       "metrics": metrics, "problems": []})


def test_summary_rows_give_medians_quartiles_delta_and_wins():
    base = [2.0, 2.2, 2.4, 2.6, 2.8]
    change = [1.9, 2.3, 2.2, 2.4, 2.5]  # loses the second pair
    pairs = [(ab.parse_result(line(b, rss=100.0, score=1.0)),
              ab.parse_result(line(c, rss=100.0, score=1.0 + (i % 2))))
             for i, (b, c) in enumerate(zip(base, change))]
    rows = ab.summarize("metro-1k", [6601, 6602, 6603, 6604, 6605], pairs, METRICS)
    assert rows == [
        # statistics.quantiles(n=4), the "exclusive" method: q1 and q3 of
        # five runs fall halfway between the first two and last two.
        "| `metro-1k` (seeds 6601–6605) | `run_s` | 2.4 [2.1, 2.7] | 2.3 [2.05, 2.45] "
        "| -4.2% | 4/5 |",
        # Equal on every pair: no wins either way.
        "|  | `peak_rss_mb` | 100 [100, 100] | 100 [100, 100] | +0.0% | 0/5 |",
        # Higher is better here: the change won the two pairs at 2.0.
        "|  | `score` | 1 [1, 1] | 1 [1, 2] | +0.0% | 2/5 |",
    ]


def test_metric_missing_on_a_side_is_left_out_of_its_pairs():
    good = ab.parse_result(line(1.0))
    broken = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}, "problems": ["x"]}
    pairs = [(good, good), (good, broken), (good, good)]
    rows = ab.summarize("fig10-dynamic", [1, 2, 3], pairs, METRICS[:1])
    assert rows[0].endswith("| 0/2 |")
    assert ab.summarize("fig10-dynamic", [1, 2, 3], pairs[1:2], METRICS[:1]) == []


def test_failures_count_operations_and_incorrect_runs():
    ok = ab.parse_result(line(1.0))
    text, bad = ab.failures([(ok, ok), (ok, ok)])
    assert (text, bad) == ("base 0/80 failed, change 0/80 failed", False)
    text, bad = ab.failures([(ok, ab.parse_result(line(1.0, failed=3))), (ok, ok)])
    assert (text, bad) == ("base 0/80 failed, change 3/80 failed", True)
    _, bad = ab.failures([(ab.parse_result(line(1.0, correct=False)), ok)])
    assert bad


def test_parse_result_rejects_other_lines():
    with pytest.raises(ValueError):
        ab.parse_result('{"metrics": {}}')
    with pytest.raises(ValueError):
        ab.parse_result("Traceback (most recent call last):")


def paired(base, change, metric="run_s"):
    """Canned pairs that differ only in ``metric``."""
    return [(ab.parse_result(line(**{"run_s": 1.0, metric: b})),
             ab.parse_result(line(**{"run_s": 1.0, metric: c})))
            for b, c in zip(base, change)]


def test_gate_fails_a_metric_past_its_bound_that_lost_most_pairs():
    pairs = paired([2.0, 2.0, 2.0, 2.0, 2.0], [2.6, 2.6, 2.6, 1.9, 1.9])
    assert ab.regressions(pairs, METRICS) == [
        "`run_s` median +30.0%, past its 25% bound, 3/5 pairs lost"]


@pytest.mark.parametrize("base, change", [
    # Won three pairs: the median moved because the seeds differ.
    ([1.0, 1.0, 1.0, 3.0, 3.0], [2.9, 2.9, 0.9, 2.9, 2.9]),
    # Lost two pairs and tied two: ties count for neither side.
    ([1.0, 1.0, 2.0, 2.0], [2.0, 2.0, 2.0, 2.0]),
])
def test_gate_passes_a_metric_past_its_bound_that_won_or_tied_most_pairs(base, change):
    assert ab.regressions(paired(base, change), METRICS) == []


def test_gate_passes_a_metric_within_its_bound_that_lost_every_pair():
    pairs = paired([2.0] * 5, [2.4] * 5)
    assert ab.regressions(pairs, METRICS) == []
    assert ab.summarize("metro-1k", [1, 2, 3, 4, 5], pairs, METRICS[:1])[0].endswith(
        "| +20.0% | 0/5 |")


def test_gate_mirrors_a_higher_is_better_metric():
    assert ab.regressions(paired([1.0] * 4, [0.7] * 4, "score"), METRICS) == [
        "`score` median -30.0%, past its 25% bound, 4/4 pairs lost"]
    assert ab.regressions(paired([1.0] * 4, [1.3] * 4, "score"), METRICS) == []


def test_gate_skips_a_metric_measured_in_fewer_than_two_pairs():
    broken = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}, "problems": ["x"]}
    slow = paired([1.0], [10.0])[0]
    pairs = [slow, (slow[0], broken), (slow[0], broken)]
    assert ab.regressions(pairs, METRICS) == []


def test_exit_status_is_the_gate(monkeypatch, capsys):
    monkeypatch.setattr(ab.subprocess, "run", lambda *args, **kwargs: None)
    monkeypatch.setattr(ab.signal, "signal", lambda *args: None)
    argv = ["--base", "HEAD", "--workloads", "metro-1k", "--first-seed", "1",
            "--pairs", "3"]

    def runs(change_s):
        return lambda tree, *_: ab.parse_result(
            line(change_s if tree == ab.ROOT else 1.0))

    monkeypatch.setattr(ab, "run_tree", runs(1.2))
    assert ab.main(argv) == 0
    monkeypatch.setattr(ab, "run_tree", runs(1.5))
    assert ab.main(argv) == 1
    assert "metro-1k: gate failed: `run_s` median +50.0%" in capsys.readouterr().err
