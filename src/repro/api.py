"""Top-level convenience API.

Thin wrappers so a downstream user can run a simulation in three lines
without touching the experiment plumbing::

    from repro import quick_run
    result = quick_run(algorithm="dsmf", n_nodes=60, seed=7)
    print(result.summary())
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from typing import Callable, Optional, Sequence

    from repro.experiments.campaign import CampaignResult, CampaignRun
    from repro.experiments.config import ExperimentConfig
    from repro.metrics.collectors import RunResult

__all__ = [
    "available_algorithms",
    "available_churn_models",
    "available_recovery_policies",
    "available_scenarios",
    "quick_run",
    "run_campaign",
    "run_experiment",
    "run_manifest",
    "run_sweep",
]


def available_algorithms() -> list[str]:
    """Names accepted by ``quick_run``/``run_experiment`` (the paper's
    eight algorithms plus the FCFS second-phase ablation bundles)."""
    from repro.core.heuristics.registry import algorithm_names

    return algorithm_names()


def available_scenarios() -> list[str]:
    """Scenario presets (workload and availability) accepted by
    ``quick_run``/``run_campaign`` (see :mod:`repro.workload.scenarios`)."""
    from repro.workload.scenarios import scenario_names

    return scenario_names()


def available_churn_models() -> list[str]:
    """Availability models accepted as the ``churn_model`` override
    (see :mod:`repro.availability.models`)."""
    from repro.availability.models import churn_model_names

    return churn_model_names()


def available_recovery_policies() -> list[str]:
    """Recovery policies accepted as the ``recovery_policy`` override
    (see :mod:`repro.availability.recovery`)."""
    from repro.availability.recovery import recovery_policy_names

    return recovery_policy_names()


def run_experiment(config: "ExperimentConfig", recorder=None) -> "RunResult":
    """Build a P2P grid system from ``config``, run it, return the metrics.

    ``recorder`` is an optional :class:`~repro.obs.recorder.TraceRecorder`
    the system reports its execution events to (for Perfetto traces via
    :mod:`repro.obs.spans`).
    """
    from repro.grid.system import P2PGridSystem

    return P2PGridSystem(config, recorder=recorder).run()


def quick_run(
    algorithm: str = "dsmf",
    n_nodes: "Optional[int]" = None,
    load_factor: "Optional[int]" = None,
    duration_hours: "Optional[float]" = None,
    seed: int = 1,
    scenario: "Optional[str]" = None,
    recorder=None,
    **overrides,
) -> "RunResult":
    """One-call simulation with small-scale defaults (see README quickstart):
    60 nodes, load factor 2, 12 simulated hours.

    Any :class:`~repro.experiments.config.ExperimentConfig` field can be
    overridden by keyword; ``scenario`` applies a named workload preset
    (``available_scenarios()``).  The call resolves as a one-cell campaign
    manifest (:mod:`repro.experiments.request`) over those defaults: the
    defaults, then the preset, then the passed arguments.  So explicitly
    passed arguments win over the preset's overrides, and omitted ones
    yield to it (``quick_run(scenario="diurnal-week")`` really runs the
    preset's week-long horizon).  An invalid argument raises
    :class:`~repro.experiments.request.ManifestError`, a ``ValueError``.
    """
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.request import resolve

    if n_nodes is not None:
        overrides["n_nodes"] = n_nodes
    if load_factor is not None:
        overrides["load_factor"] = load_factor
    if duration_hours is not None:
        overrides["total_time"] = duration_hours * 3600.0
    manifest = {
        "scenario": scenario, "algorithms": [algorithm], "seeds": [seed],
        "overrides": overrides,
    }
    base = ExperimentConfig(n_nodes=60, load_factor=2, total_time=12 * 3600.0)
    (spec,) = resolve("campaign", manifest, base).specs
    return run_experiment(spec.config, recorder=recorder)


def run_campaign(
    algorithms: "Sequence[str]" = ("dsmf",),
    seeds: "Sequence[int]" = (1,),
    base: "Optional[ExperimentConfig]" = None,
    jobs: int = 1,
    cache_dir=None,
    use_cache: bool = True,
    progress: "Optional[Callable[[CampaignRun], None]]" = None,
    scenario: "Optional[str]" = None,
    max_retries: int = 2,
    retry_backoff: float = 0.25,
    faults=None,
    **overrides,
) -> "CampaignResult":
    """Run an (algorithm × seed) sweep with process fan-out and caching.

    Results are deterministic per config regardless of ``jobs``; completed
    runs are cached on disk keyed by a content hash of the resolved config,
    so re-invocations are near-instant.  The request resolves as every
    campaign does (:mod:`repro.experiments.request`): ``base`` (default:
    the paper-scale ``ExperimentConfig()``), then the ``scenario`` preset,
    then the keyword ``overrides`` (any
    :class:`~repro.experiments.config.ExperimentConfig` field), then the
    grid.  Cells killed by a worker-process death are retried up to
    ``max_retries`` times with exponential backoff (``retry_backoff``
    base); ``faults`` injects a deterministic
    :class:`~repro.faults.FaultPlan` (``None`` = disabled).  An invalid
    request raises :class:`~repro.experiments.request.ManifestError`, a
    ``ValueError``::

        from repro import run_campaign
        campaign = run_campaign(["dsmf", "dheft"], seeds=range(1, 5), jobs=4,
                                scenario="poisson-steady", n_nodes=80,
                                total_time=12 * 3600.0)
        for run in campaign:
            print(run.label, run.result.summary())
    """
    from repro.experiments.request import execute, resolve
    from repro.faults import NULL_FAULTS

    manifest = {
        "scenario": scenario,
        "algorithms": list(algorithms),
        "seeds": [int(s) for s in seeds],
        "overrides": overrides,
    }
    return execute(
        resolve("campaign", manifest, base),
        jobs=jobs, cache_dir=cache_dir, use_cache=use_cache, progress=progress,
        max_retries=max_retries, retry_backoff=retry_backoff,
        faults=NULL_FAULTS if faults is None else faults,
    )


def run_sweep(
    scenarios: "Sequence[str]",
    algorithms: "Sequence[str]" = ("dsmf", "dheft", "heft", "smf"),
    seeds: "Sequence[int]" = (1,),
    base: "Optional[ExperimentConfig]" = None,
    threshold: float = 0.95,
    resolution: float = 0.25,
    max_scale: float = 8.0,
    jobs: int = 1,
    cache_dir=None,
    use_cache: bool = True,
    progress=None,
    **overrides,
) -> "dict":
    """Bisect each heuristic's saturation point on the named scenarios.

    The adaptive capacity sweep (:mod:`repro.experiments.sweep`): per
    (scenario × heuristic), the submission rate is scaled via the
    ``workload_scale`` config knob — doubling until the mean completion
    rate over ``seeds`` drops below ``threshold``, then bisecting the
    bracket to ``resolution``.  Every probe is a cached campaign cell, so
    repeated/overlapping sweeps replay instantly.  ``progress`` sees
    ``(scenario, algorithm, probe)`` after every probe.  Returns the
    JSON-ready capacity-envelope report (render it with
    :func:`repro.experiments.sweep.format_envelope`)::

        from repro import run_sweep
        report = run_sweep(["paper-fig4"], ["dsmf", "heft"], seeds=[1, 2])
    """
    from repro.experiments.request import execute, resolve

    manifest = {
        "scenarios": list(scenarios),
        "algorithms": list(algorithms),
        "seeds": [int(s) for s in seeds],
        "overrides": overrides,
        "threshold": threshold,
        "resolution": resolution,
        "max_scale": max_scale,
    }
    return execute(
        resolve("sweep", manifest, base),
        jobs=jobs, cache_dir=cache_dir, use_cache=use_cache, probe_progress=progress,
    )


def run_manifest(
    manifest: "dict",
    jobs: int = 1,
    cache_dir=None,
    use_cache: bool = True,
    progress: "Optional[Callable[[CampaignRun], None]]" = None,
) -> "CampaignResult":
    """Execute a service-style JSON campaign manifest inline.

    The validator and resolution order of ``POST /campaigns``
    (:mod:`repro.experiments.request`), over the same paper-scale
    defaults, without a server and without the service's size caps:
    ``manifest`` is a plain dict with optional ``scenario``,
    ``algorithms``, ``seeds`` and ``overrides`` keys.  Raises
    :class:`~repro.experiments.request.ManifestError` — a ``ValueError``
    subclass — on any invalid manifest::

        from repro import run_manifest
        campaign = run_manifest({"scenario": "poisson-steady",
                                 "algorithms": ["dsmf"], "seeds": [1, 2],
                                 "overrides": {"n_nodes": 40}}, jobs=2)
    """
    from repro.experiments.request import execute, resolve

    return execute(
        resolve("campaign", manifest),
        jobs=jobs, cache_dir=cache_dir, use_cache=use_cache, progress=progress,
    )
