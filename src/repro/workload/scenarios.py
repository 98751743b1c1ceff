"""Scenario registry: named workload presets.

A :class:`Scenario` is a named, documented bundle of
:class:`~repro.experiments.config.ExperimentConfig` overrides — purely
declarative, so scenarios stay picklable, cacheable (the overrides land in
the config the campaign layer content-hashes) and composable with scale
profiles and ``--set`` overrides.  Resolution points: ``ExperimentConfig``
(the ``scenario`` provenance field is validated against this registry),
``repro campaign --scenario NAME``, :func:`repro.api.run_campaign` /
:func:`repro.api.quick_run`, and the benchmark sweeps.

The ``paper-fig4`` scenario is the anchor: zero overrides, i.e. exactly
the paper's §IV.A evaluation (Table I random workflows, everything
submitted at t = 0) — it must and does replay the seed bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.config import ExperimentConfig

__all__ = [
    "Scenario",
    "apply_scenario",
    "get_scenario",
    "register_scenario",
    "scenario_names",
]


@dataclass(frozen=True)
class Scenario:
    """A named scenario preset (config overrides + documentation).

    ``kind`` groups presets by the axis they exercise: ``workload`` (what
    arrives, when) or ``availability`` (who is alive, when) — purely
    informational, for listings.
    """

    name: str
    description: str
    overrides: Mapping[str, object] = field(default_factory=dict)
    kind: str = "workload"

    def __post_init__(self) -> None:
        object.__setattr__(self, "overrides", MappingProxyType(dict(self.overrides)))

    @property
    def provenance(self) -> str:
        """Where this preset's inputs come from: ``synthetic`` (generated
        in-process from the config's RNG streams) or an imported-trace tag
        naming the external file axis — ``trace-replay`` (submission
        trace), ``imported-dag`` (external DAG files), ``trace-churn``
        (availability trace), or combinations thereof.
        """
        tags = []
        source = self.overrides.get("workload_source")
        if source == "trace":
            tags.append("trace-replay")
        elif source == "imported":
            tags.append("imported-dag")
        if (
            self.overrides.get("churn_model") == "trace"
            or "availability_path" in self.overrides
        ):
            tags.append("trace-churn")
        return "+".join(tags) if tags else "synthetic"


_REGISTRY: dict[str, Scenario] = {}


def register_scenario(
    name: str, description: str, kind: str = "workload", **overrides
) -> Scenario:
    """Add a scenario to the registry (library users may add their own)."""
    if name in _REGISTRY:
        raise ValueError(f"scenario {name!r} is already registered")
    if "scenario" in overrides or "seed" in overrides or "algorithm" in overrides:
        raise ValueError("scenario overrides cannot set scenario/seed/algorithm")
    sc = Scenario(name=name, description=description, overrides=overrides, kind=kind)
    _REGISTRY[name] = sc
    return sc


def scenario_names() -> list[str]:
    """Registered scenario names, sorted."""
    return sorted(_REGISTRY)


def get_scenario(name: str) -> Scenario:
    """Look up a scenario; raises ``ValueError`` with the available names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}"
        ) from None


def apply_scenario(
    config: "ExperimentConfig", name: str, **overrides
) -> "ExperimentConfig":
    """Apply a scenario's overrides (and stamp its name) onto a config.

    ``overrides`` go on top of the preset's, in the same construction, so
    the result is validated once.
    """
    sc = get_scenario(name)
    return config.with_(**{"scenario": name, **sc.overrides, **overrides})


# --------------------------------------------------------------------------
# Built-in presets
# --------------------------------------------------------------------------

register_scenario(
    "paper-fig4",
    "The paper's §IV.A evaluation: Table I random workflows, all submitted "
    "at t=0 (bit-identical to the seed reproduction).",
)
register_scenario(
    "poisson-steady",
    "Table I workflows arriving as a steady Poisson stream over the first "
    "half of the horizon.",
    arrival_process="poisson",
)
register_scenario(
    "burst-storm",
    "Table I workflows arriving in 15-minute storms separated by 90-minute "
    "quiet gaps.",
    arrival_process="bursty",
    burst_on=900.0,
    burst_off=5400.0,
)
register_scenario(
    "diurnal-week",
    "A week-long run with day/night arrival intensity (24 h period, "
    "near-silent troughs).",
    arrival_process="diurnal",
    total_time=7 * 86400.0,
    diurnal_period=86400.0,
)
register_scenario(
    "fig11-grid",
    "Fig. 11-style scalability setting: a large grid (240 nodes, lighter "
    "per-node load) with Table I workflows batch submitted.",
    n_nodes=240,
    load_factor=1,
    total_time=12 * 3600.0,
)
register_scenario(
    "structured-mix",
    "Chain, fork-join, diamond and montage-like workflows in rotation, "
    "sizes drawn from the Table I ranges, batch submitted.",
    workload_source="structured",
    structured_family="mixed",
)
register_scenario(
    "montage-stream",
    "Montage-like (astronomy mosaic) workflows arriving as a Poisson "
    "stream.",
    workload_source="structured",
    structured_family="montage",
    arrival_process="poisson",
)
register_scenario(
    "synthetic-heavytail",
    "Synthetic realistic family: log-normal task loads/data sizes and "
    "heavy-tailed layer widths, batch submitted.",
    workload_source="synthetic",
)
register_scenario(
    "imported-dag",
    "External DAGs (repro JSON, WfCommons JSON, or Pegasus DAX) cycled "
    "over the submission slots; requires --set workload_path=FILE-OR-DIR.",
    workload_source="imported",
)
register_scenario(
    "trace-replay",
    "Replay an exact (submit_time, home, workflow) submission trace; "
    "requires --set workload_path=TRACE.json.",
    workload_source="trace",
)

# ----------------------------- availability presets -----------------------
# The churn axis (repro.availability): who is alive, when — composed with
# the workload axis above (a preset may set fields from both).

register_scenario(
    "weibull-sessions",
    "Heavy-tailed Weibull node sessions (shape 0.7, 2 h mean) with "
    "exponential rejoin delays; lost tasks are rescheduled.",
    kind="availability",
    churn_model="sessions",
    session_shape=0.7,
    session_mean=2 * 3600.0,
    rejoin_delay_mean=1800.0,
    churn_mode="fail",
    recovery_policy="reschedule",
)
register_scenario(
    "flash-crowd-failure",
    "Correlated batch failures: a random Waxman subtree of volatile nodes "
    "drops at once every ~2 h; checkpointed inputs re-enter lost tasks.",
    kind="availability",
    churn_model="correlated",
    dynamic_factor=0.15,
    failure_interval=2 * 3600.0,
    rejoin_delay_mean=1800.0,
    churn_mode="fail",
    recovery_policy="checkpoint",
)
register_scenario(
    "grid-rampup",
    "Grid growth: volatile nodes start offline and join one by one over "
    "the first 40% of the horizon (suspend semantics; nothing is lost).",
    kind="availability",
    churn_model="ramp",
    ramp_direction="up",
    ramp_window=0.4,
)
register_scenario(
    "trace-churn",
    "Replay an exact join/leave availability trace (FTA-style); requires "
    "--set availability_path=TRACE.json.",
    kind="availability",
    churn_model="trace",
)

# ----------------------------- imported-trace presets ----------------------
# The real-trace corpus: curated archive slices committed under data/
# (see docs/trace-formats.md and scripts/curate_trace.py).  Paths are
# repo-root relative — run from a repo checkout, or override
# workload_path/availability_path with an absolute path.  Each preset is
# golden-pinned (tests/regression/golden_traces.json).

register_scenario(
    "gwa-replay-small",
    "Replay the curated Grid Workloads Archive (GWF) slice: 35 completed "
    "jobs mapped to single-task/fork-join workflows over 16 homes "
    "(data/traces/gwa_sample.trace.json; curated by scripts/curate_trace.py).",
    workload_source="trace",
    workload_path="data/traces/gwa_sample.trace.json",
    n_nodes=40,
    total_time=8 * 3600.0,
)
register_scenario(
    "pwa-replay-small",
    "Replay the curated Parallel Workloads Archive (SWF) slice: 39 "
    "completed jobs over 16 homes "
    "(data/traces/pwa_sample.trace.json; curated by scripts/curate_trace.py).",
    workload_source="trace",
    workload_path="data/traces/pwa_sample.trace.json",
    n_nodes=40,
    total_time=8 * 3600.0,
)
register_scenario(
    "fta-churn-small",
    "Replay the curated FTA-style availability slice: downtime intervals "
    "of 14 volatile nodes on a 40-node grid "
    "(data/traces/fta_sample.avail.json; curated by scripts/curate_trace.py).",
    kind="availability",
    churn_model="trace",
    availability_path="data/traces/fta_sample.avail.json",
    n_nodes=40,
    load_factor=2,
    total_time=8 * 3600.0,
)

# ----------------------------- scale presets -------------------------------
# Production-scale trajectory points combining both axes — what the
# scale-out simulation core (struct-of-arrays state, indexed event engine,
# batched gossip) exists to make affordable.

register_scenario(
    "metro-1k",
    "Production-scale trajectory point: 1000 nodes (4x the paper's largest "
    "grid), structured-mix workloads, heavy-tailed Weibull session churn "
    "with rescheduling — the preset the perf harness uses to track the "
    "1k-node frontier.",
    kind="scale",
    n_nodes=1000,
    load_factor=1,
    total_time=6 * 3600.0,
    workload_source="structured",
    structured_family="mixed",
    churn_model="sessions",
    session_shape=0.7,
    session_mean=2 * 3600.0,
    rejoin_delay_mean=1800.0,
    churn_mode="fail",
    recovery_policy="reschedule",
)
register_scenario(
    "metro-10k",
    "Metro-scale trajectory point: 10,000 nodes (40x the paper's largest "
    "grid), structured-mix workloads, Weibull session churn with "
    "rescheduling — the frontier the batched gossip rounds exist for; a "
    "shorter horizon than metro-1k keeps a full run affordable.",
    kind="scale",
    n_nodes=10000,
    load_factor=1,
    total_time=3 * 3600.0,
    workload_source="structured",
    structured_family="mixed",
    churn_model="sessions",
    session_shape=0.7,
    session_mean=2 * 3600.0,
    rejoin_delay_mean=1800.0,
    churn_mode="fail",
    recovery_policy="reschedule",
)
