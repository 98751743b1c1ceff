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
