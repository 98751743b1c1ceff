"""Tests for multi-seed replication statistics."""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.replication import (
    MetricSummary,
    _summary,
    run_replications,
)
from repro.experiments.request import ManifestError


def _cfg(**kw):
    base = dict(
        algorithm="dsmf",
        n_nodes=20,
        load_factor=1,
        total_time=5 * 3600.0,
        task_range=(2, 6),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_summary_single_value_degenerate():
    s = _summary([5.0], 0.95)
    assert s.mean == 5.0
    assert s.ci_low == s.ci_high == 5.0
    assert s.n == 1


def test_summary_ci_contains_mean():
    s = _summary([1.0, 2.0, 3.0, 4.0], 0.95)
    assert s.ci_low < s.mean < s.ci_high
    assert s.std > 0


def test_summary_wider_ci_for_higher_confidence():
    vals = [1.0, 2.0, 3.0, 4.0, 5.0]
    s95 = _summary(vals, 0.95)
    s99 = _summary(vals, 0.99)
    assert (s99.ci_high - s99.ci_low) > (s95.ci_high - s95.ci_low)


def test_run_replications_aggregates_seeds():
    result = run_replications(_cfg(), seeds=(1, 2, 3))
    assert result.act.n == 3
    assert result.act.mean > 0
    assert 0 < result.ae.mean
    assert result.completion_rate.mean > 0.5
    assert result.seeds == [1, 2, 3]


def test_replication_deterministic_per_seed_set():
    a = run_replications(_cfg(), seeds=(1, 2))
    b = run_replications(_cfg(), seeds=(1, 2))
    assert a.act.mean == b.act.mean


def test_overlap_check():
    a = run_replications(_cfg(), seeds=(1, 2, 3))
    assert a.overlaps(a, "act")


def test_metric_summary_str():
    s = MetricSummary(mean=10.0, std=1.0, ci_low=9.0, ci_high=11.0, n=5)
    assert "10.0" in str(s)


def test_replication_fans_out_through_the_campaign_runner():
    """Worker processes never change the summary."""
    inline = run_replications(_cfg(), seeds=(1, 2, 3), jobs=1)
    fanned = run_replications(_cfg(), seeds=(1, 2, 3), jobs=2)
    for metric in ("act", "ae", "completion_rate"):
        assert getattr(fanned, metric) == getattr(inline, metric)


def test_a_repeated_seed_is_refused():
    """A seed listed twice would count one run twice in every summary."""
    with pytest.raises(ManifestError, match="duplicate"):
        run_replications(_cfg(), seeds=(1, 2, 1))
