"""Timed end-to-end benchmark scenarios and the ``BENCH_*.json`` report.

The paper's scalability study (Fig. 11) and every "make the hot path
faster" PR need a fixed, machine-readable performance baseline.  This
module provides it:

* six end-to-end presets — the Fig. 4 base setting (``paper-fig4``), a
  streaming-arrival variant (``poisson-steady``), a Fig. 11-style
  large-grid run (``fig11-grid``), a Fig. 10-style dynamic grid
  (``fig10-dynamic``, paper-interval churn with rescheduling), the
  1000-node production-scale trajectory point (``metro-1k``) and its
  10,000-node counterpart (``metro-10k``) — each a single-process, fully
  deterministic simulation;
* :func:`run_bench`, which times them (wall clock, events/second, peak
  RSS) with optional cProfile hot-spot capture and optional comparison
  against a previously written report;
* :func:`discover_baseline` / :func:`speedup_regressions`, the machinery
  behind ``repro bench --baseline`` auto-discovery and the
  ``--regression-threshold`` CI gate;
* :func:`write_report` / :func:`validate_report` for the ``BENCH_PR5.json``
  artifact CI uploads and future PRs diff against.

Determinism means the *simulated outcome* of a bench run never varies —
only the wall clock does — so a report from another machine is comparable
in shape even when absolute numbers differ.

Peak-RSS honesty: scenario memory is measured via the kernel's resettable
high-water mark (``/proc/self/clear_refs`` + ``VmHWM``) where available,
so ``peak_rss_delta_kb`` reflects *this scenario's own* footprint instead
of accumulating monotonically across the presets of one invocation (the
pre-schema-2 behavior).  On platforms without that interface the
``ru_maxrss`` fallback is a process-lifetime high-water mark — later
scenarios inherit earlier scenarios' peaks — so each entry carries
``peak_rss_isolated: false`` and ``peak_rss_delta_kb: null`` rather than
a delta that merely looks per-scenario.
"""

from __future__ import annotations

import cProfile
import json
import platform
import pstats
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional

from repro._version import __version__
from repro.experiments.config import ExperimentConfig
from repro.workload.scenarios import apply_scenario

__all__ = [
    "BENCH_SCHEMA",
    "BenchScenario",
    "DEFAULT_REPORT_NAME",
    "bench_scenario_names",
    "discover_baseline",
    "get_bench_scenario",
    "run_bench",
    "speedup_regressions",
    "validate_report",
    "write_report",
]

#: Bump when the report layout changes (CI asserts on this).
#: 2: per-scenario peak-RSS isolation (``peak_rss_delta_kb`` is honest).
BENCH_SCHEMA = 2

#: Where a bare ``repro bench`` writes its report: a git-ignored name that
#: ``discover_baseline`` never picks up, so a local run cannot overwrite
#: or stand in for a committed ``BENCH_PR<N>.json``.
DEFAULT_REPORT_NAME = "BENCH_LOCAL.json"

#: Fields every per-scenario entry must carry (CI schema assertion).
_REQUIRED_SCENARIO_FIELDS = (
    "name",
    "algorithm",
    "n_nodes",
    "n_workflows",
    "events",
    "wall_seconds",
    "events_per_sec",
    "peak_rss_kb",
    "n_done",
)


@dataclass(frozen=True)
class BenchScenario:
    """One timed end-to-end preset.

    ``quick`` shrinks the grid/horizon for smoke jobs (CI, pre-commit)
    while keeping the same code paths hot.
    """

    name: str
    description: str
    build: Callable[[bool], ExperimentConfig]

    def config(self, quick: bool = False) -> ExperimentConfig:
        return self.build(quick)


def _fig4(quick: bool) -> ExperimentConfig:
    base = ExperimentConfig(
        algorithm="dsmf",
        n_nodes=40 if quick else 60,
        load_factor=2 if quick else 3,
        total_time=(8 if quick else 24) * 3600.0,
        seed=7,
        task_range=(2, 30),
    )
    return apply_scenario(base, "paper-fig4")


def _poisson(quick: bool) -> ExperimentConfig:
    base = ExperimentConfig(
        algorithm="dsmf",
        n_nodes=40 if quick else 60,
        load_factor=2 if quick else 3,
        total_time=(8 if quick else 24) * 3600.0,
        seed=7,
        task_range=(2, 30),
    )
    return apply_scenario(base, "poisson-steady")


def _fig11(quick: bool) -> ExperimentConfig:
    base = ExperimentConfig(algorithm="dsmf", seed=7, task_range=(2, 30))
    cfg = apply_scenario(base, "fig11-grid")
    if quick:
        cfg = cfg.with_(n_nodes=120, total_time=6 * 3600.0)
    return cfg


def _fig10(quick: bool) -> ExperimentConfig:
    return ExperimentConfig(
        algorithm="dsmf",
        n_nodes=40 if quick else 60,
        load_factor=2 if quick else 3,
        total_time=(8 if quick else 24) * 3600.0,
        seed=7,
        task_range=(2, 30),
        dynamic_factor=0.2,
        churn_mode="fail",
        recovery_policy="reschedule",
    )


def _metro(quick: bool) -> ExperimentConfig:
    base = ExperimentConfig(algorithm="dsmf", seed=7, task_range=(2, 30))
    cfg = apply_scenario(base, "metro-1k")
    if quick:
        # Keep the full 1000 nodes — the point of the preset is the node
        # count — and shrink only the horizon for smoke jobs.
        cfg = cfg.with_(total_time=2 * 3600.0)
    return cfg


def _metro10k(quick: bool) -> ExperimentConfig:
    base = ExperimentConfig(algorithm="dsmf", seed=7, task_range=(2, 30))
    cfg = apply_scenario(base, "metro-10k")
    if quick:
        # As with metro-1k: all 10,000 nodes stay (CI asserts the node
        # count), only the horizon shrinks.
        cfg = cfg.with_(total_time=0.5 * 3600.0)
    return cfg


_SCENARIOS: dict[str, BenchScenario] = {
    s.name: s
    for s in (
        BenchScenario(
            "paper-fig4",
            "Fig. 4 base setting (bench scale): 60 nodes, load factor 3, "
            "24 simulated hours, dsmf.",
            _fig4,
        ),
        BenchScenario(
            "poisson-steady",
            "Same grid with workflows arriving as a Poisson stream "
            "(exercises mid-run submit events and full-ahead replanning).",
            _poisson,
        ),
        BenchScenario(
            "fig11-grid",
            "Fig. 11-style large grid: 240 nodes, load factor 1, 12 "
            "simulated hours (gossip- and view-dominated).",
            _fig11,
        ),
        BenchScenario(
            "fig10-dynamic",
            "Fig. 10-style dynamic grid: df=0.2 paper-interval churn in "
            "fail mode with rescheduling (availability hot path: kill/"
            "revive sweeps, ready-set cleanup, re-entered schedule points).",
            _fig10,
        ),
        BenchScenario(
            "metro-1k",
            "Production-scale trajectory point: 1000 nodes (4x the paper's "
            "largest grid), structured-mix workloads, Weibull-session "
            "churn with rescheduling — tracks the 1k-node frontier.",
            _metro,
        ),
        BenchScenario(
            "metro-10k",
            "Metro-scale trajectory point: 10,000 nodes (40x the paper's "
            "largest grid), structured-mix workloads, Weibull-session "
            "churn with rescheduling — the batched-gossip-round frontier.",
            _metro10k,
        ),
    )
}


def bench_scenario_names() -> list[str]:
    """Registered bench preset names, in canonical order."""
    return list(_SCENARIOS)


def get_bench_scenario(name: str) -> BenchScenario:
    """Look up a bench preset; ``ValueError`` lists the valid names."""
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown bench scenario {name!r}; "
            f"available: {', '.join(bench_scenario_names())}"
        ) from None


# --------------------------------------------------------------------------
# Measurement
# --------------------------------------------------------------------------

def _reset_peak_rss() -> bool:
    """Reset the kernel's peak-RSS high-water mark for this process.

    Writing ``5`` to ``/proc/self/clear_refs`` (Linux) resets ``VmHWM`` to
    the current RSS, which is what makes per-scenario peak measurements
    honest within one process.  Returns ``False`` where unsupported; the
    caller then falls back to the cumulative ``ru_maxrss`` semantics.
    """
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:  # pragma: no cover - non-Linux / restricted /proc
        return False


def _peak_rss_kb() -> Optional[int]:
    """High-water-mark resident set size of this process, in KiB.

    Prefers ``VmHWM`` from ``/proc/self/status`` (resettable via
    :func:`_reset_peak_rss`); falls back to ``ru_maxrss``, which is KiB on
    Linux and bytes on macOS.  Returns ``None`` where neither source
    exists (Windows without :mod:`resource`).
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):  # pragma: no cover - non-Linux
        pass
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - not our CI
        peak //= 1024
    return int(peak)


def _profile_top(profiler: cProfile.Profile, top: int) -> list[dict]:
    """The ``top`` hottest repo functions by cumulative time, as dicts.

    Built-ins (filename ``~``) and site/stdlib frames are filtered out;
    the whole profile is scanned so the report always carries ``top``
    repo rows when that many exist.
    """
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    rows: list[dict] = []
    for func in stats.fcn_list:  # type: ignore[attr-defined]
        cc, nc, tt, ct, _ = stats.stats[func]  # type: ignore[attr-defined]
        filename, lineno, name = func
        in_repo = "/repro/" in filename.replace("\\", "/")
        if not in_repo:
            continue  # keep the report focused on repo code
        rows.append(
            {
                "function": f"{Path(filename).name}:{lineno}:{name}",
                "calls": int(nc),
                "tottime": round(tt, 4),
                "cumtime": round(ct, 4),
            }
        )
        if len(rows) >= top:
            break
    return rows


def _run_one(
    scenario: BenchScenario,
    quick: bool,
    repeats: int,
    profile_top: int,
    telemetry: bool = False,
) -> dict:
    from repro.grid.system import P2PGridSystem

    config = scenario.config(quick)
    if telemetry:
        # Times the instrumented path; observation-only, so the digest
        # assertion below still holds against telemetry-off baselines.
        config = config.with_(telemetry=True)
    walls: list[float] = []
    digests: set[str] = set()
    result = None
    profile_rows: list[dict] = []
    if profile_top:
        # Profiling inflates wall time 2-4x, so the profiled run is an
        # *extra* rep whose wall never enters the report — otherwise a
        # later --baseline comparison would credit profiler overhead as
        # speedup.
        system = P2PGridSystem(config)
        profiler = cProfile.Profile()
        profiler.enable()
        result = system.run()
        profiler.disable()
        profile_rows = _profile_top(profiler, profile_top)
        digests.add(_digest(result))
    # Isolate this scenario's memory footprint: resetting the kernel
    # high-water mark makes rss_before the current RSS, so the delta below
    # is what *this* scenario added — not whatever an earlier preset
    # peaked at (pre-reset, deltas were 0-floored lower bounds).
    rss_isolated = _reset_peak_rss()
    rss_before = _peak_rss_kb()
    for _ in range(max(1, repeats)):
        system = P2PGridSystem(config)
        t0 = time.perf_counter()
        result = system.run()
        walls.append(time.perf_counter() - t0)
        digests.add(_digest(result))
    rss_after = _peak_rss_kb()
    assert result is not None
    if len(digests) != 1:  # pragma: no cover - determinism violation
        raise RuntimeError(
            f"bench scenario {scenario.name!r} was not deterministic across "
            f"repeats: {sorted(digests)}"
        )
    wall = min(walls)  # best-of-N: least scheduler noise
    entry = {
        "name": scenario.name,
        "description": scenario.description,
        "quick": quick,
        "algorithm": config.algorithm,
        "n_nodes": config.n_nodes,
        "total_time_hours": config.total_time / 3600.0,
        "n_workflows": result.n_workflows,
        "n_done": result.n_done,
        "events": result.events_executed,
        "wall_seconds": round(wall, 4),
        "wall_seconds_all": [round(w, 4) for w in walls],
        "events_per_sec": round(result.events_executed / wall, 1) if wall > 0 else 0.0,
        # With rss_isolated the high-water mark was reset before this
        # scenario's timed reps: peak_rss_kb is this scenario's own peak
        # (interpreter baseline included) and peak_rss_delta_kb what it
        # allocated on top of the pre-scenario RSS.  Without isolation
        # (non-Linux), ru_maxrss is a process-lifetime high-water mark:
        # later scenarios inherit earlier peaks, before == after, and a
        # "delta" of 0 would merely *look* per-scenario — so the delta is
        # reported as null and peak_rss_kb keeps cumulative semantics.
        "peak_rss_kb": rss_after,
        "peak_rss_isolated": rss_isolated,
        "peak_rss_delta_kb": (
            None if not rss_isolated or rss_after is None or rss_before is None
            else rss_after - rss_before
        ),
        "result_digest": _digest(result),
    }
    if profile_rows:
        entry["profile_top"] = profile_rows
    if telemetry and result.telemetry is not None:
        # Counters only: the full snapshot (series, histograms) would bloat
        # the committed artifact; counters carry the comparable totals.
        entry["telemetry"] = {
            k: result.telemetry.counters[k] for k in sorted(result.telemetry.counters)
        }
    return entry


def _digest(result) -> str:
    from repro.experiments.campaign import result_digest

    return result_digest(result)


# --------------------------------------------------------------------------
# Baselines
# --------------------------------------------------------------------------

_BASELINE_PATTERN = re.compile(r"^BENCH_PR(\d+)\.json$")


def discover_baseline(
    root: "str | Path" = ".",
    exclude: "str | Path | None" = None,
    quick: Optional[bool] = None,
) -> Optional[Path]:
    """The newest committed ``BENCH_PR<N>.json`` under ``root``.

    "Newest" is by PR number, so ``repro bench --baseline`` (no path)
    always gates against the most recent committed baseline; ``exclude``
    skips the report currently being written (otherwise a re-run would
    discover its own previous output).  When ``quick`` is given, only
    reports whose top-level ``quick`` flag matches are considered —
    speedups are only computed between same-size runs, so a quick smoke
    gate must discover the committed *quick* baseline and a full bench
    the full one (reports that can't be read are skipped in that mode).
    """
    root = Path(root)
    exclude_path = Path(exclude).resolve() if exclude is not None else None
    best: tuple[int, Path] | None = None
    for path in root.glob("BENCH_PR*.json"):
        match = _BASELINE_PATTERN.match(path.name)
        if match is None:
            continue
        if exclude_path is not None and path.resolve() == exclude_path:
            continue
        if quick is not None:
            try:
                report = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            if bool(report.get("quick")) != quick:
                continue
        number = int(match.group(1))
        if best is None or number > best[0]:
            best = (number, path)
    return best[1] if best else None


def normalize_threshold(threshold: float) -> float:
    """Resolve a ``--regression-threshold`` value to a speedup floor.

    Both spellings of "fail on a >25% slowdown" are accepted: ``0.8``
    (the minimum tolerated speedup factor) and ``1.25`` (the maximum
    tolerated *slowdown* factor — values above 1 are reciprocated).
    """
    if threshold <= 0:
        raise ValueError(f"--regression-threshold must be positive, got {threshold!r}")
    return 1.0 / threshold if threshold > 1.0 else threshold


def speedup_regressions(report: Mapping, threshold: float) -> list[str]:
    """Scenarios whose wall-clock speedup vs the baseline fell below the
    ``threshold`` floor (``0.8`` and ``1.25`` both mean "tolerate up to a
    1.25x slowdown" — see :func:`normalize_threshold`).

    Returns human-readable problem strings (empty = within budget); only
    scenarios present in both reports are compared, so adding a preset
    never trips the gate retroactively.
    """
    floor = normalize_threshold(threshold)
    problems = []
    for name, factor in sorted(report.get("speedup", {}).items()):
        if factor < floor:
            problems.append(
                f"{name}: {factor:.3f}x vs baseline is below the "
                f"--regression-threshold floor of {floor:g}x"
            )
    return problems


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------

def run_bench(
    scenarios: Optional[Iterable[str]] = None,
    quick: bool = False,
    repeats: int = 1,
    profile_top: int = 0,
    baseline: Optional[Mapping] = None,
    telemetry: bool = False,
    progress: Optional[Callable[[dict], None]] = None,
) -> dict:
    """Time the requested scenarios and return the report dict.

    Parameters
    ----------
    scenarios:
        Preset names (default: all three).
    quick:
        Use the shrunk smoke-sized configs.
    repeats:
        Timing repetitions per scenario; the report keeps the best wall
        time (the simulated outcome is identical across repeats and the
        report asserts so via the result digest).
    profile_top:
        When > 0, capture cProfile and embed the N hottest repo functions.
        The profiled run is an extra repetition whose (inflated) wall time
        never enters the report.
    baseline:
        A previously written report; per-scenario wall-clock speedups
        (``baseline_wall / current_wall``) are embedded under ``speedup``.
    telemetry:
        Run the scenarios with runtime telemetry enabled and embed each
        scenario's counter snapshot.  The instrumented path is what gets
        timed; result digests are unchanged (telemetry is
        observation-only), so cross-flag baseline comparisons stay valid.
    progress:
        Called with each finished scenario entry.
    """
    names = list(scenarios) if scenarios else bench_scenario_names()
    # Resolve every name up front so a typo fails before any timing runs.
    resolved = [get_bench_scenario(name) for name in names]
    if baseline is not None and bool(baseline.get("quick")) != quick:
        # Quick and full runs use different grid sizes/horizons, so a
        # cross-mode "speedup" would be a size artifact, not performance —
        # and a silently empty speedup map would make any
        # --regression-threshold gate pass vacuously.  Refuse up front.
        raise ValueError(
            "baseline mode mismatch: the supplied baseline was recorded with "
            f"quick={bool(baseline.get('quick'))} but this run uses "
            f"quick={quick}; speedups are only meaningful between same-size "
            "runs. Pass a matching baseline (auto-discovery with --baseline "
            "already filters by mode) or re-run with the same --quick setting."
        )
    entries = []
    for scenario in resolved:
        entry = _run_one(scenario, quick, repeats, profile_top, telemetry=telemetry)
        if progress is not None:
            progress(entry)
        entries.append(entry)
    report = {
        "schema": BENCH_SCHEMA,
        "version": __version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "quick": quick,
        "repeats": max(1, repeats),
        "telemetry": telemetry,
        "scenarios": entries,
    }
    if baseline is not None:
        speedup: dict[str, float] = {}
        base_by_name = {s["name"]: s for s in baseline.get("scenarios", [])}
        for entry in entries:
            base = base_by_name.get(entry["name"])
            if not base or base.get("quick") != entry["quick"]:
                continue
            if entry["wall_seconds"] > 0:
                speedup[entry["name"]] = round(
                    base["wall_seconds"] / entry["wall_seconds"], 3
                )
        report["baseline"] = {
            "version": baseline.get("version"),
            "scenarios": {
                s["name"]: {
                    "wall_seconds": s["wall_seconds"],
                    "events_per_sec": s["events_per_sec"],
                }
                for s in baseline.get("scenarios", [])
            },
        }
        report["speedup"] = speedup
    return report


def write_report(report: Mapping, path: "str | Path") -> Path:
    """Write a report as pretty JSON; returns the path."""
    out = Path(path)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return out


def validate_report(report: Mapping) -> list[str]:
    """Schema check for CI: returns a list of problems (empty = valid)."""
    problems: list[str] = []
    if report.get("schema") != BENCH_SCHEMA:
        problems.append(f"schema must be {BENCH_SCHEMA}, got {report.get('schema')!r}")
    scenarios = report.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        problems.append("scenarios must be a non-empty list")
        return problems
    for entry in scenarios:
        if not isinstance(entry, dict):
            problems.append(f"scenario entry is not an object: {entry!r}")
            continue
        for field_name in _REQUIRED_SCENARIO_FIELDS:
            if field_name not in entry:
                problems.append(
                    f"scenario {entry.get('name', '?')!r} missing {field_name!r}"
                )
        wall = entry.get("wall_seconds")
        if not isinstance(wall, (int, float)) or wall <= 0:
            problems.append(
                f"scenario {entry.get('name', '?')!r} has invalid wall_seconds {wall!r}"
            )
        events = entry.get("events")
        if not isinstance(events, int) or events <= 0:
            problems.append(
                f"scenario {entry.get('name', '?')!r} has invalid events {events!r}"
            )
    return problems
