"""Multi-seed replication with confidence intervals (extension).

The paper reports single simulation runs; for a credible open-source
release the harness should quantify seed noise.  :func:`run_replications`
executes one configuration under several seeds as a one-algorithm
campaign request (:mod:`repro.experiments.request`; optionally fanned out
across worker processes — each simulation is single-threaded) and returns
per-metric mean, standard deviation and a Student-t confidence interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import stats

from repro.experiments.config import ExperimentConfig
from repro.experiments.request import execute, resolve

__all__ = ["MetricSummary", "ReplicationResult", "run_replications"]


@dataclass(frozen=True)
class MetricSummary:
    """Aggregated statistic across seeds."""

    mean: float
    std: float
    ci_low: float
    ci_high: float
    n: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.1f} ± {(self.ci_high - self.ci_low) / 2:.1f} (n={self.n})"


@dataclass
class ReplicationResult:
    """Outcome of :func:`run_replications`."""

    config: ExperimentConfig
    seeds: list[int]
    act: MetricSummary
    ae: MetricSummary
    completion_rate: MetricSummary

    def overlaps(self, other: "ReplicationResult", metric: str = "act") -> bool:
        """Do the two CIs overlap?  (A quick significance screen.)"""
        a: MetricSummary = getattr(self, metric)
        b: MetricSummary = getattr(other, metric)
        return a.ci_low <= b.ci_high and b.ci_low <= a.ci_high


def _summary(values: Sequence[float], confidence: float) -> MetricSummary:
    arr = np.asarray(values, dtype=float)
    n = len(arr)
    mean = float(arr.mean())
    if n < 2:
        return MetricSummary(mean, 0.0, mean, mean, n)
    std = float(arr.std(ddof=1))
    half = float(stats.t.ppf(0.5 + confidence / 2, n - 1) * std / np.sqrt(n))
    return MetricSummary(mean, std, mean - half, mean + half, n)


def run_replications(
    config: ExperimentConfig,
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    confidence: float = 0.95,
    jobs: int = 1,
) -> ReplicationResult:
    """Run ``config`` under each seed; aggregate ACT/AE/completion rate.

    Parameters
    ----------
    jobs:
        Worker processes (1 = run inline; simulations are deterministic
        per seed either way).  Results are not cached.  A repeated seed
        is refused (:class:`~repro.experiments.request.ManifestError`).
    """
    manifest = {"algorithms": [config.algorithm], "seeds": [int(seed) for seed in seeds]}
    runs = execute(resolve("campaign", manifest, config), jobs=jobs, use_cache=False)
    acts, aes, rates = zip(*((r.result.act, r.result.ae, r.result.completion_rate) for r in runs))
    return ReplicationResult(
        config=config,
        seeds=[int(s) for s in seeds],
        act=_summary(acts, confidence),
        ae=_summary(aes, confidence),
        completion_rate=_summary(rates, confidence),
    )
