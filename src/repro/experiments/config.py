"""Experiment configuration (Table I plus every model switch).

Defaults reproduce the base setting of Fig. 4–6: Table I parameters with
the figure-specific dependent-data range 10–1000 Mb (CCR ≈ 0.16) and three
workflows initially submitted per node.  The paper-scale values (n = 1000
nodes, 36 simulated hours) are expensive for CI, so harnesses usually apply
a :class:`ScaleProfile` that shrinks ``n_nodes``/``total_time`` while
keeping all per-task parameters — which preserves the result *shape*.
"""

from __future__ import annotations

import copy
import enum
import math
import numbers
import reprlib
from dataclasses import dataclass, fields, replace
from typing import Optional

__all__ = ["ExperimentConfig", "ScaleProfile"]


class ScaleProfile(str, enum.Enum):
    """How large to run an experiment.

    ``PAPER`` is exactly §IV.A; ``MEDIUM`` keeps the dynamics with ~4x
    fewer nodes; ``SMALL`` is the CI/test profile.
    """

    PAPER = "paper"
    MEDIUM = "medium"
    SMALL = "small"


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one simulation run.

    Time quantities are seconds, loads are MI, capacities MIPS, data sizes
    megabits, bandwidths Mb/s — exactly Table I's units.
    """

    # ---------------------------------------------------------- scheduling
    algorithm: str = "dsmf"
    #: Algorithm-1 activation period ("The scheduler is activated every 15
    #: minutes").
    schedule_interval: float = 900.0
    #: Dispatch newly ready tasks immediately instead of waiting for the
    #: next cycle (ablation; the paper uses the periodic model).
    immediate_dispatch: bool = False

    # --------------------------------------------------------------- scale
    n_nodes: int = 1000
    #: Average number of workflows submitted per node (Fig. 7/8's x-axis).
    load_factor: int = 3
    #: Continuous multiplier on the submission count (total workflows =
    #: ``round(load_factor * n_nodes * workload_scale)``).  The capacity
    #: sweep driver (:mod:`repro.experiments.sweep`) bisects over this to
    #: find each heuristic's saturation point; 1.0 reproduces the integer
    #: ``load_factor`` grid exactly (same count, same RNG stream).  Ignored
    #: by ``workload_source="trace"``, which carries its own submissions.
    workload_scale: float = 1.0
    #: Simulated horizon ("The total experimental time is 36 hours").
    total_time: float = 36 * 3600.0
    seed: int = 1

    # ----------------------------------------------------------- workflows
    task_range: tuple[int, int] = (2, 30)
    fanout_range: tuple[int, int] = (1, 5)
    load_range: tuple[float, float] = (100.0, 10_000.0)
    image_range: tuple[float, float] = (10.0, 100.0)
    #: Fig. 4–6 base setting (Table I's full envelope is 100–10000, used by
    #: the CCR sweep of Fig. 9/10).
    data_range: tuple[float, float] = (10.0, 1000.0)
    capacities: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0)

    # -------------------------------------------------------------- network
    waxman_alpha: float = 0.15
    waxman_beta: float = 0.2
    bw_min: float = 0.1
    bw_max: float = 10.0
    plane_size: float = 1000.0
    #: Model inbound link sharing between concurrent transfers (extension;
    #: the paper assumes contention-free concurrent transfers).
    transfer_contention: bool = False

    # -------------------------------------------------------------- gossip
    gossip_interval: float = 300.0
    gossip_ttl: int = 4
    gossip_push_size: int = 4
    #: RSS entries kept per node; ``None`` -> 2*ceil(log2 n).
    rss_capacity: Optional[int] = None
    #: Records older than this many gossip cycles are evicted.
    rss_expiry_cycles: float = 4.0
    aggregation_restart_cycles: int = 12
    #: ``"gossip"`` = partial, possibly stale views (the paper's model);
    #: ``"oracle"`` = perfect global load knowledge (diagnostic ablation).
    rss_mode: str = "gossip"
    #: Schedulers estimate bandwidth via landmarks (paper §III.B); set
    #: False to hand them the ground-truth matrix (ablation).
    use_landmark_bandwidth: bool = True
    n_landmarks: Optional[int] = None

    # --------------------------------------------------------------- churn
    #: Ratio of churning nodes per scheduling interval (Fig. 12–14's df).
    #: Also sizes the correlated model's failure batches.
    dynamic_factor: float = 0.0
    #: Fraction of nodes that permanently stay (and host all workflows)
    #: when churn is active; §IV.B uses 500 of 1000.
    permanent_fraction: float = 0.5
    #: What disconnection does to resident tasks.  ``"suspend"`` (default)
    #: stalls them until the node rejoins — matching the paper's
    #: observation that degraded throughput comes from "large-load tasks
    #: which cannot be finished quickly" while finished workflows keep
    #: stable ACT/AE.  ``"fail"`` loses them; the fate of the owning
    #: workflow is then the ``recovery_policy``'s call.
    churn_mode: str = "suspend"
    #: Deprecated alias for ``recovery_policy="reschedule"`` (kept for
    #: back-compat; normalized into ``recovery_policy`` on construction).
    reschedule_failed: bool = False

    # -------------------------------------------------------- availability
    #: Who is alive, when (see :mod:`repro.availability.models`):
    #: ``paper-interval`` (the paper's fixed per-interval batch, default),
    #: ``sessions`` (exponential/Weibull node lifetimes), ``trace``
    #: (replay a join/leave event log), ``correlated`` (a random Waxman
    #: subtree drops at once) or ``ramp`` (growth/shrink).  Any model
    #: other than the default activates churn even with df = 0.
    churn_model: str = "paper-interval"
    #: Fate of tasks lost in ``churn_mode="fail"`` (see
    #: :mod:`repro.availability.recovery`): ``fail`` (owning workflow
    #: fails — the paper's position), ``reschedule`` (lost tasks become
    #: schedule points again) or ``checkpoint`` (dispatch-time input
    #: checkpoints at the home re-enter lost tasks at their last completed
    #: predecessor frontier).
    recovery_policy: str = "fail"
    #: Mean volatile-node session length (``sessions`` model, seconds).
    session_mean: float = 2 * 3600.0
    #: Weibull shape of session lengths (1.0 = exponential; < 1 gives the
    #: heavy-tailed sessions real availability traces show).
    session_shape: float = 1.0
    #: Mean offline gap before a departed node rejoins
    #: (``sessions``/``correlated`` models; 0 = instant rejoin).
    rejoin_delay_mean: float = 1800.0
    #: Mean time between correlated batch-failure events (seconds).
    failure_interval: float = 4 * 3600.0
    #: ``ramp`` model direction: ``up`` (volatile nodes join over the
    #: window) or ``down`` (they progressively leave).
    ramp_direction: str = "up"
    #: Fraction of the horizon over which the ramp completes.
    ramp_window: float = 0.5
    #: Join/leave event trace for ``churn_model="trace"``.
    availability_path: Optional[str] = None

    # -------------------------------------------------------------- metrics
    metrics_interval: float = 3600.0

    # -------------------------------------------------------- observability
    #: Collect runtime telemetry (counters/gauges/histograms) into
    #: ``RunResult.telemetry`` (see :mod:`repro.obs.telemetry`).
    #: Observation-only: draws no randomness and changes no decision, so
    #: ``result_digest`` is bit-identical either way; off by default to
    #: keep the hot path guard-only.
    telemetry: bool = False

    # ------------------------------------------------------------- workload
    #: Scenario preset this config was derived from (provenance; validated
    #: against :mod:`repro.workload.scenarios`).  Applying a scenario sets
    #: this plus the preset's field overrides.
    scenario: Optional[str] = None
    #: What is submitted: ``table1`` (paper §IV.A random DAGs, default),
    #: ``structured``, ``synthetic``, ``imported`` or ``trace``.
    workload_source: str = "table1"
    #: When it is submitted: ``batch`` (all at t=0, the paper's setting),
    #: ``poisson``, ``bursty`` or ``diurnal``.
    arrival_process: str = "batch"
    #: Fraction of the horizon in which non-batch arrivals land, so late
    #: workflows still have time to finish.
    arrival_spread: float = 0.5
    #: Storm/quiet durations of the ``bursty`` process (seconds).
    burst_on: float = 1800.0
    burst_off: float = 7200.0
    #: Period of the ``diurnal`` intensity (seconds; one simulated day).
    diurnal_period: float = 86400.0
    #: Family for ``workload_source="structured"``: chain, fork-join,
    #: diamond, montage, or mixed (rotate through all four).
    structured_family: str = "mixed"
    #: DAG file/directory (``imported``) or submission trace (``trace``).
    workload_path: Optional[str] = None

    # ----------------------------------------------------------- validation
    def __post_init__(self) -> None:
        # NaN passes every ordered comparison below, and an infinite or
        # NaN horizon never ends a run: reject non-finite numbers first.
        for name, value in vars(self).items():
            if isinstance(value, (tuple, list)):
                finite = all(math.isfinite(v) for v in value if isinstance(v, float))
            else:
                finite = not isinstance(value, float) or math.isfinite(value)
            if not finite:
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name in ("workload_path", "availability_path"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise TypeError(f"{name} must be a path string or None")
        # A bool field holds a bool (the string "no" is truthy), and an int
        # field an integer: NumPy integers pass, fractions and bools do not.
        # reprlib bounds the message for a deeply nested value.
        for name, kind in _TYPED.items():
            value = getattr(self, name)
            if kind == "bool":
                if not isinstance(value, bool):
                    raise TypeError(
                        f"{name} must be True or False, got {reprlib.repr(value)}")
            elif not (value is None and kind == "Optional[int]" or isinstance(
                    value, numbers.Integral) and not isinstance(value, bool)):
                raise TypeError(f"{name} must be an integer, got {reprlib.repr(value)}")
        if self.n_nodes < 2:
            raise ValueError("need at least two nodes")
        if self.load_factor < 1:
            raise ValueError("load factor must be >= 1")
        if not self.workload_scale > 0:
            raise ValueError("workload_scale must be a positive number")
        if self.total_time <= 0:
            raise ValueError("total_time must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if (
            self.schedule_interval <= 0
            or self.gossip_interval <= 0
            or self.metrics_interval <= 0
        ):
            raise ValueError("intervals must be positive")
        # Late import: importing this module must not pull in NumPy.
        from repro.workflow.generator import MAX_TASKS

        for name in ("task_range", "fanout_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name} is inverted: ({lo}, {hi})")
            if lo < 1:
                raise ValueError(f"{name} lower bound must be >= 1, got {lo}")
            if hi > MAX_TASKS:
                raise ValueError(f"{name} upper bound must be <= {MAX_TASKS}, got {hi}")
        for name in ("load_range", "image_range", "data_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name} is inverted: ({lo}, {hi})")
            if lo < 0:
                raise ValueError(f"{name} lower bound must be >= 0, got {lo}")
        if not self.capacities:
            raise ValueError("capacities must not be empty")
        if min(self.capacities) <= 0:
            raise ValueError("capacities must be positive")
        if self.bw_min <= 0 or self.bw_max < self.bw_min:
            raise ValueError(
                f"bandwidth range must satisfy 0 < bw_min <= bw_max, "
                f"got ({self.bw_min}, {self.bw_max})"
            )
        if self.gossip_ttl < 1 or self.gossip_push_size < 1:
            raise ValueError("gossip_ttl and gossip_push_size must be >= 1")
        if self.rss_capacity is not None and self.rss_capacity < 1:
            raise ValueError("rss_capacity must be >= 1 (or None for auto)")
        if self.n_landmarks is not None and self.n_landmarks < 1:
            raise ValueError("n_landmarks must be >= 1 (or None for auto)")
        if self.rss_expiry_cycles <= 0:
            raise ValueError("rss_expiry_cycles must be positive")
        if not 0.0 <= self.dynamic_factor <= 1.0:
            raise ValueError("dynamic_factor must be in [0, 1]")
        if not 0.0 < self.permanent_fraction <= 1.0:
            raise ValueError("permanent_fraction must be in (0, 1]")
        if self.rss_mode not in ("gossip", "oracle"):
            raise ValueError(f"unknown rss_mode {self.rss_mode!r}")
        if self.churn_mode not in ("suspend", "fail"):
            raise ValueError(f"unknown churn_mode {self.churn_mode!r}")
        if self.session_mean <= 0 or self.session_shape <= 0:
            raise ValueError("session_mean and session_shape must be positive")
        if self.rejoin_delay_mean < 0:
            raise ValueError("rejoin_delay_mean must be >= 0")
        if self.failure_interval <= 0:
            raise ValueError("failure_interval must be positive")
        if self.ramp_direction not in ("up", "down"):
            raise ValueError(f"unknown ramp_direction {self.ramp_direction!r}")
        if not 0.0 < self.ramp_window <= 1.0:
            raise ValueError("ramp_window must be in (0, 1]")
        if not 0.0 < self.arrival_spread <= 1.0:
            raise ValueError("arrival_spread must be in (0, 1]")
        if self.burst_on <= 0 or self.burst_off < 0:
            raise ValueError("burst_on must be positive and burst_off >= 0")
        if self.diurnal_period <= 0:
            raise ValueError("diurnal_period must be positive")
        # Late imports to avoid cycles; verify registry-backed names early
        # so misconfigured sweeps fail fast rather than after setup.
        from repro.core.heuristics.registry import algorithm_names

        if self.algorithm not in algorithm_names():
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; "
                f"available: {', '.join(algorithm_names())}"
            )
        from repro.workload.arrivals import arrival_process_names
        from repro.workload.sources import (
            structured_family_names,
            workload_source_names,
        )

        if self.workload_source not in workload_source_names():
            raise ValueError(
                f"unknown workload_source {self.workload_source!r}; "
                f"available: {', '.join(workload_source_names())}"
            )
        if self.arrival_process not in arrival_process_names():
            raise ValueError(
                f"unknown arrival_process {self.arrival_process!r}; "
                f"available: {', '.join(arrival_process_names())}"
            )
        if self.structured_family not in structured_family_names():
            raise ValueError(
                f"unknown structured_family {self.structured_family!r}; "
                f"available: {', '.join(structured_family_names())}"
            )
        from repro.availability.models import churn_model_names
        from repro.availability.recovery import recovery_policy_names

        if self.churn_model not in churn_model_names():
            raise ValueError(
                f"unknown churn_model {self.churn_model!r}; "
                f"available: {', '.join(churn_model_names())}"
            )
        if self.recovery_policy not in recovery_policy_names():
            raise ValueError(
                f"unknown recovery_policy {self.recovery_policy!r}; "
                f"available: {', '.join(recovery_policy_names())}"
            )
        if self.reschedule_failed and self.recovery_policy == "fail":
            # Promote the legacy flag to its policy (deterministic, so
            # config hashing and provenance stay stable per input).
            object.__setattr__(self, "recovery_policy", "reschedule")
        if self.scenario is not None:
            from repro.workload.scenarios import scenario_names

            if self.scenario not in scenario_names():
                raise ValueError(
                    f"unknown scenario {self.scenario!r}; "
                    f"available: {', '.join(scenario_names())}"
                )

    # ------------------------------------------------------------- utility
    def with_(self, **overrides) -> "ExperimentConfig":
        """Functional update (configs are frozen)."""
        return replace(self, **overrides)

    def churn_enabled(self) -> bool:
        """Whether availability dynamics are active (volatile nodes exist).

        The paper-interval model only acts when ``dynamic_factor`` > 0;
        every other churn model defines its own intensity and is active
        whenever selected.
        """
        return self.dynamic_factor > 0.0 or self.churn_model != "paper-interval"

    def describe(self) -> dict:
        """Plain-dict dump in field order (config hashing, ``RunResult.config``).

        Shallow: the values are immutable, except what a JSON manifest
        passed as a list (a tuple field spelled as JSON) or as an object;
        those are copied, so the dump never aliases the config.
        """
        dump = {name: getattr(self, name) for name in _NAMES}
        for name, value in dump.items():
            if isinstance(value, (list, dict)):
                dump[name] = copy.deepcopy(value)
        return dump

    def expected_ccr(self) -> float:
        """Rough communication-to-computation ratio of the workload.

        Matches the paper's §IV.A estimates: mean dependent-data transfer
        time over the mean link bandwidth, divided by mean execution time
        at the mean capacity.
        """
        mean_load = sum(self.load_range) / 2.0
        mean_data = sum(self.data_range) / 2.0
        mean_cap = sum(self.capacities) / len(self.capacities)
        mean_bw = (self.bw_min + self.bw_max) / 2.0
        return (mean_data / mean_bw) / (mean_load / mean_cap)


#: Every field name, in declaration order (:meth:`ExperimentConfig.describe`).
_NAMES = tuple(f.name for f in fields(ExperimentConfig))
#: The bool and int fields by annotation, whose types ``__post_init__`` checks.
_TYPED = {f.name: f.type for f in fields(ExperimentConfig)
          if f.type in ("bool", "int", "Optional[int]")}

#: Per-profile overrides applied by :func:`repro.experiments.figures.base_config`.
PROFILE_OVERRIDES: dict[ScaleProfile, dict] = {
    ScaleProfile.PAPER: {},
    ScaleProfile.MEDIUM: {"n_nodes": 250, "total_time": 36 * 3600.0},
    ScaleProfile.SMALL: {"n_nodes": 80, "total_time": 12 * 3600.0},
}


def apply_profile(config: ExperimentConfig, profile: ScaleProfile) -> ExperimentConfig:
    """Rescale a paper-parameter config for the requested profile."""
    return config.with_(**PROFILE_OVERRIDES[ScaleProfile(profile)])
