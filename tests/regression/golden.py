"""Shared definition of the golden-fingerprint grid.

The regression harness pins the *complete observable outcome* of a fixed
grid of simulations: four algorithm bundles (the paper's contribution, its
closest dynamic rival, and both full-ahead baselines) × two seeds × two
workload scenarios.  Each cell's :func:`repro.experiments.campaign.result_digest`
— which folds in every workflow record, every metrics sample, the event
count and the RSS statistics — was recorded *before* the PR 3 hot-path
optimizations and must replay bit-identically forever after: any refactor
that changes a single scheduled event shows up as a digest mismatch.

``python tests/regression/record_golden.py`` re-records the file; do that
only for a PR that *intentionally* changes simulation semantics, and say so
in the PR description.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.experiments.config import ExperimentConfig
from repro.workload.scenarios import apply_scenario

__all__ = ["ALGORITHM_GOLDEN_PATH", "ALGORITHM_SCENARIOS", "OTHER_ALGORITHMS",
           "AVAILABILITY_GOLDEN_PATH", "AVAILABILITY_SCENARIOS", "AVAILABILITY_TRACE_PATH",
           "GOLDEN_ALGORITHMS", "GOLDEN_PATH", "GOLDEN_SCENARIOS", "GOLDEN_SEEDS",
           "METRO_GOLDEN_PATH", "METRO10K_GOLDEN_PATH", "TRACE_GOLDEN_PATH",
           "TRACE_SCENARIOS", "EVENT_STREAM_GOLDEN_PATH", "EVENT_STREAM_SHAPES",
           "algorithm_specs", "availability_config", "availability_specs",
           "event_stream_config", "event_stream_digest", "load_algorithm_golden",
           "load_event_stream_golden", "golden_config", "golden_specs",
           "load_availability_golden", "load_golden", "load_metro_golden",
           "load_metro10k_golden", "load_trace_golden", "metro_config",
           "metro10k_config", "trace_config", "trace_specs"]

GOLDEN_PATH = Path(__file__).with_name("golden_fingerprints.json")

GOLDEN_ALGORITHMS = ("dsmf", "dheft", "heft", "smf")
GOLDEN_SEEDS = (1, 2)
GOLDEN_SCENARIOS = ("paper-fig4", "poisson-steady")

# ------------------------- availability preset grid -----------------------
# The churn-axis presets get their own fingerprint file (the workload-axis
# file above is append-only history and must never move); dsmf, seed 1,
# same base scale.  ``trace-churn`` replays the committed trace below —
# itself the recorded availability log of the weibull-sessions cell, so
# the whole grid regenerates from one script.

AVAILABILITY_GOLDEN_PATH = Path(__file__).with_name("golden_availability.json")
AVAILABILITY_TRACE_PATH = Path(__file__).with_name("data") / "availability_trace.json"
AVAILABILITY_SCENARIOS = (
    "weibull-sessions",
    "flash-crowd-failure",
    "grid-rampup",
    "trace-churn",
)

#: Small enough that the 16-cell grid replays in well under a minute, large
#: enough that every subsystem (gossip views, landmark estimation, phase-1
#: cycles, full-ahead planning, transfers, phase-2 contention) is exercised.
_BASE = dict(
    n_nodes=40,
    load_factor=2,
    total_time=8 * 3600.0,
    task_range=(2, 30),
)


def golden_config(algorithm: str, seed: int, scenario: str) -> ExperimentConfig:
    """The exact config of one golden cell."""
    base = ExperimentConfig(algorithm=algorithm, seed=seed, **_BASE)
    return apply_scenario(base, scenario)


def golden_specs() -> list[tuple[str, ExperimentConfig]]:
    """``(cell_key, config)`` for every cell, in recording order."""
    specs = []
    for scenario in GOLDEN_SCENARIOS:
        for algorithm in GOLDEN_ALGORITHMS:
            for seed in GOLDEN_SEEDS:
                key = f"{algorithm}#s{seed}@{scenario}"
                specs.append((key, golden_config(algorithm, seed, scenario)))
    return specs


def load_golden() -> dict:
    """The recorded fingerprint file as a dict."""
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


# ----------------------- the other registered algorithms -------------------
# Every registered bundle outside GOLDEN_ALGORITHMS, pinned in its own file
# (the file above is append-only history).  These are the policies whose
# picks lean hardest on candidate order — pooled argmins, OLB's first
# least-loaded node, random's index draw — so a reordered gossip view
# shows up here first.  Seed 1 at the base scale, one static and one
# churning scenario.

ALGORITHM_GOLDEN_PATH = Path(__file__).with_name("golden_algorithms.json")
OTHER_ALGORITHMS = (
    "dsdf",
    "min-min",
    "max-min",
    "sufferage",
    "dsmf-fcfs",
    "dheft-fcfs",
    "min-min-fcfs",
    "max-min-fcfs",
    "sufferage-fcfs",
    "olb",
    "random",
)
ALGORITHM_SCENARIOS = ("paper-fig4", "weibull-sessions")


def algorithm_specs() -> list[tuple[str, ExperimentConfig]]:
    """``(cell_key, config)`` per other-algorithm cell, in recording order."""
    return [
        (f"{algorithm}@{scenario}", golden_config(algorithm, 1, scenario))
        for scenario in ALGORITHM_SCENARIOS
        for algorithm in OTHER_ALGORITHMS
    ]


def load_algorithm_golden() -> dict:
    """The recorded other-algorithm fingerprint file as a dict."""
    with ALGORITHM_GOLDEN_PATH.open() as fh:
        return json.load(fh)


def availability_config(scenario: str) -> ExperimentConfig:
    """The exact config of one availability-preset golden cell."""
    base = ExperimentConfig(algorithm="dsmf", seed=1, **_BASE)
    cfg = apply_scenario(base, scenario)
    if scenario == "trace-churn":
        cfg = cfg.with_(availability_path=str(AVAILABILITY_TRACE_PATH))
    return cfg


def availability_specs() -> list[tuple[str, ExperimentConfig]]:
    """``(scenario, config)`` per availability cell, in recording order."""
    return [(s, availability_config(s)) for s in AVAILABILITY_SCENARIOS]


def load_availability_golden() -> dict:
    """The recorded availability fingerprint file as a dict."""
    with AVAILABILITY_GOLDEN_PATH.open() as fh:
        return json.load(fh)


# ------------------------------ metro-1k cell ------------------------------
# The PR 5 scale-out core is pinned at production scale too: one
# 1000-node `metro-1k` cell (dsmf, seed 1) at a 2 h horizon,
# so the regression job replays the indexed event queue, the batched
# gossip fast paths and the `__slots__`-pooled runtime state against a
# grid 25x larger than the base golden cells — in seconds, not minutes.

METRO_GOLDEN_PATH = Path(__file__).with_name("golden_metro.json")


def metro_config() -> ExperimentConfig:
    """The exact config of the metro-1k golden cell (2 h horizon)."""
    base = ExperimentConfig(algorithm="dsmf", seed=1, task_range=(2, 30))
    return apply_scenario(base, "metro-1k").with_(total_time=2 * 3600.0)


def load_metro_golden() -> dict:
    """The recorded metro fingerprint file as a dict."""
    with METRO_GOLDEN_PATH.open() as fh:
        return json.load(fh)


# ------------------------------ metro-10k cell -----------------------------
# Above 4096 nodes the topology switches regime: a spanning forest replaces
# the all-pairs bandwidth matrix and landmarks approximate latency.  One
# 10,000-node cell (dsmf, seed 1, 1 h horizon) pins that regime end to end.

METRO10K_GOLDEN_PATH = Path(__file__).with_name("golden_metro10k.json")


def metro10k_config() -> ExperimentConfig:
    """The exact config of the metro-10k golden cell."""
    base = ExperimentConfig(algorithm="dsmf", seed=1, task_range=(2, 30))
    return apply_scenario(base, "metro-10k").with_(total_time=3600.0)


def load_metro10k_golden() -> dict:
    """The recorded metro-10k fingerprint file as a dict."""
    with METRO10K_GOLDEN_PATH.open() as fh:
        return json.load(fh)


# -------------------------- imported-trace presets -------------------------
# The PR 9 archive-import pipeline is pinned end to end: each curated
# trace preset (a GWF slice, an SWF slice, an FTA availability slice —
# see docs/trace-formats.md) replays its committed ``data/traces/`` file
# bit-identically.  Curation is RNG-free, so these fingerprints cover the
# whole chain: archive parsing -> curation output -> trace replay.

TRACE_GOLDEN_PATH = Path(__file__).with_name("golden_traces.json")
_REPO_ROOT = Path(__file__).resolve().parents[2]
TRACE_SCENARIOS = ("gwa-replay-small", "pwa-replay-small", "fta-churn-small")


def trace_config(scenario: str) -> ExperimentConfig:
    """The exact config of one imported-trace golden cell.

    The presets carry repo-root-relative ``data/traces/`` paths; the
    golden cells absolutize them so the regression job is cwd-independent
    (paths are not part of the result digest).
    """
    base = ExperimentConfig(algorithm="dsmf", seed=1, task_range=(2, 30))
    cfg = apply_scenario(base, scenario)
    if cfg.workload_path:
        cfg = cfg.with_(workload_path=str(_REPO_ROOT / cfg.workload_path))
    if cfg.availability_path:
        cfg = cfg.with_(availability_path=str(_REPO_ROOT / cfg.availability_path))
    return cfg


def trace_specs() -> list[tuple[str, ExperimentConfig]]:
    """``(scenario, config)`` per imported-trace cell, in recording order."""
    return [(s, trace_config(s)) for s in TRACE_SCENARIOS]


def load_trace_golden() -> dict:
    """The recorded imported-trace fingerprint file as a dict."""
    with TRACE_GOLDEN_PATH.open() as fh:
        return json.load(fh)


# --------------------------- recorder event streams ------------------------
# The execution trace itself is pinned too: each shape below runs with a
# TraceRecorder and its whole event stream is hashed, so a hook site that
# moves, disappears or fires in a different order fails exactly.  The
# shapes cover every hook: phase-1 dispatch and phase-2 start, full-ahead
# dispatch (heft), every churn mode and recovery policy, session churn,
# contended transfers, immediate dispatch, oracle views, oracle bandwidth
# (the ground-truth provider instead of the landmark estimates) and
# streaming arrivals.

EVENT_STREAM_GOLDEN_PATH = Path(__file__).with_name("golden_event_streams.json")

_STREAM_BASE = dict(
    algorithm="dsmf",
    n_nodes=24,
    load_factor=2,
    total_time=12 * 3600.0,
    seed=5,
    task_range=(2, 10),
)
_CHURN = dict(dynamic_factor=0.2)

#: shape name -> overrides of the small base grid above.
EVENT_STREAM_SHAPES: dict[str, dict] = {
    "dsmf-static": {},
    "fail-reschedule": dict(_CHURN, churn_mode="fail", recovery_policy="reschedule"),
    "fail-fail": dict(_CHURN, churn_mode="fail", recovery_policy="fail"),
    "fail-checkpoint": dict(_CHURN, churn_mode="fail", recovery_policy="checkpoint"),
    "suspend": dict(_CHURN, churn_mode="suspend"),
    "sessions": dict(churn_model="sessions", churn_mode="fail",
                     recovery_policy="reschedule"),
    "contention": dict(transfer_contention=True),
    "immediate": dict(immediate_dispatch=True),
    "dheft-oracle": dict(algorithm="dheft", rss_mode="oracle"),
    "poisson-steady": dict(scenario="poisson-steady"),
    "heft": dict(algorithm="heft"),
    "oracle-bandwidth": dict(use_landmark_bandwidth=False),
}


def event_stream_config(shape: str) -> ExperimentConfig:
    """The exact config of one recorder event-stream shape."""
    overrides = dict(EVENT_STREAM_SHAPES[shape])
    scenario = overrides.pop("scenario", None)
    cfg = ExperimentConfig(**{**_STREAM_BASE, **overrides})
    return apply_scenario(cfg, scenario) if scenario else cfg


def event_stream_digest(events) -> str:
    """sha256 over every event's ``(time, kind, node, wid, tid, detail,
    src, size)``, floats in exact hex, one tab-separated line per event."""
    h = hashlib.sha256()
    for e in events:
        fields = (float(e.time).hex(), e.kind, e.node, e.wid, e.tid,
                  e.detail, e.src, float(e.size).hex())
        h.update(("\t".join(map(str, fields)) + "\n").encode())
    return h.hexdigest()


def load_event_stream_golden() -> dict:
    """The recorded event-stream file as a dict."""
    with EVENT_STREAM_GOLDEN_PATH.open() as fh:
        return json.load(fh)
