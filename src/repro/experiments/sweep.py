"""Adaptive capacity sweeps: bisect the arrival rate to each heuristic's
saturation point.

The paper evaluates its heuristics at fixed load factors (Fig. 7/8 step
the integer ``load_factor``); it never asks the capacity question — *how
much* workload can each scheduling heuristic absorb before the grid stops
keeping up?  This driver answers it with the drain-style adaptive search
used by NoC simulators (binary search over injection rates): per
(scenario × heuristic) it scales the submission count through the
continuous ``workload_scale`` config knob, growing exponentially until the
completion-rate criterion first fails, then bisecting the bracket down to
``resolution``.  The largest passing scale is the heuristic's **saturation
scale**; scenario by scenario the result is a *capacity envelope* the
paper never measured.

A sweep request is validated and resolved once, by
:func:`repro.experiments.request.resolve`, into one base config per
scenario; :func:`repro.experiments.request.execute` hands those bases to
:func:`run_sweep` with the :class:`~repro.experiments.campaign.CampaignRunner`
it built.  Every probe is an ordinary campaign cell on that runner, so
probes are content-hash cached: re-running a sweep replays instantly, an
interrupted sweep resumes from its cached prefix, and overlapping sweeps
(tighter resolution, more seeds) share probe results.

Entry points: :func:`run_sweep` (the driver), :func:`format_envelope`
(ASCII comparison table), ``repro sweep`` (CLI), :func:`repro.api.run_sweep`
and ``POST /sweeps`` (service submission), all through
:mod:`repro.experiments.request`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.experiments.campaign import CampaignRunner, RunSpec
from repro.experiments.request import SweepError

__all__ = [
    "SWEEP_SCHEMA",
    "SweepError",
    "SweepSettings",
    "format_envelope",
    "run_sweep",
    "validate_envelope",
]

#: Bump when the envelope report layout changes.
SWEEP_SCHEMA = 1

#: The four phase-1 heuristics the paper's figures compare.
DEFAULT_ALGORITHMS = ("dsmf", "dheft", "heft", "smf")

#: Scales are rounded to this many decimals before probing, so bisection
#: midpoints hash identically across runs (cache keys must be replayable).
_SCALE_DECIMALS = 4

#: Bisection never probes below this scale: a grid that cannot complete
#: 1/16th of its nominal workload is failing for structural reasons a
#: finer rate cannot fix.
MIN_SCALE = 1.0 / 16.0


@dataclass(frozen=True)
class SweepSettings:
    """The sweep criterion and search grid.

    A probe *passes* when its mean completion rate (``n_done /
    n_workflows`` across seeds) is at least ``threshold``.  The search
    doubles from scale 1.0 until the first failure (capped at
    ``max_scale``), halves until the first pass when 1.0 itself fails,
    then bisects the bracket until it is narrower than ``resolution``.
    """

    threshold: float = 0.95
    resolution: float = 0.25
    max_scale: float = 8.0
    seeds: tuple[int, ...] = (1,)

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.threshold, self.resolution, self.max_scale))):
            raise SweepError(
                "invalid-criterion", "threshold, resolution and max_scale must be finite"
            )
        if not 0.0 < self.threshold <= 1.0:
            raise SweepError("invalid-criterion", "threshold must be in (0, 1]")
        if self.resolution <= 0:
            raise SweepError("invalid-criterion", "resolution must be positive")
        if self.max_scale < 1.0:
            raise SweepError("invalid-criterion", "max_scale must be >= 1")
        if not self.seeds:
            raise SweepError("invalid-seeds", "need at least one seed")


@dataclass
class _Probe:
    scale: float
    completion_rate: float
    act: float
    ae: float
    n_done: int
    n_workflows: int
    from_cache: bool
    passed: bool

    def to_dict(self) -> dict:
        return {
            "scale": self.scale,
            "completion_rate": round(self.completion_rate, 6),
            "act": round(self.act, 3),
            "ae": round(self.ae, 6),
            "n_done": self.n_done,
            "n_workflows": self.n_workflows,
            "from_cache": self.from_cache,
            "passed": self.passed,
        }


@dataclass
class _Search:
    """Bisection state for one (scenario, heuristic) cell."""

    probes: list[_Probe] = field(default_factory=list)

    def result(self, settings: SweepSettings) -> dict:
        passing = [p.scale for p in self.probes if p.passed]
        failing = [p.scale for p in self.probes if not p.passed]
        saturation = max(passing) if passing else 0.0
        # The envelope is *censored* when the search never bracketed the
        # flip: every probe passed (the grid out-absorbed max_scale) or
        # every probe failed (even MIN_SCALE was too much).
        censored = not (passing and failing)
        return {
            "saturation_scale": saturation,
            "censored": censored,
            "n_probes": len(self.probes),
            "n_cached": sum(1 for p in self.probes if p.from_cache),
            "probes": [p.to_dict() for p in sorted(self.probes, key=lambda p: p.scale)],
        }


def _round_scale(scale: float) -> float:
    return round(scale, _SCALE_DECIMALS)


def run_sweep(
    bases: Sequence[RunSpec],
    algorithms: Sequence[str],
    settings: SweepSettings,
    runner: CampaignRunner,
    progress: Optional[Callable[[str, str, "_Probe"], None]] = None,
) -> dict:
    """Bisect every (scenario × heuristic) cell to its saturation scale.

    Returns the capacity-envelope report (schema :data:`SWEEP_SCHEMA`).
    ``bases`` are a resolved sweep request's specs, one base config per
    scenario, labelled by scenario name; every probe of every cell runs on
    ``runner``, so probes are content-hash cached and an interrupted sweep
    resumes for free.  ``progress`` is called with ``(scenario, algorithm,
    probe)`` after every probe.
    """
    configs = {spec.label: spec.config for spec in bases}

    def probe(scenario: str, algorithm: str, scale: float) -> _Probe:
        cfg = configs[scenario]
        specs = [
            RunSpec(
                f"{scenario}/{algorithm}@x{scale:g}#s{seed}",
                cfg.with_(algorithm=algorithm, seed=int(seed), workload_scale=scale),
            )
            for seed in settings.seeds
        ]
        outcome = runner.run(specs)
        rates, acts, aes = [], [], []
        n_done = n_wf = 0
        cached = True
        for run in outcome:
            r = run.result
            rates.append(r.n_done / r.n_workflows if r.n_workflows else 1.0)
            acts.append(float(r.act))
            aes.append(float(r.ae))
            n_done += r.n_done
            n_wf += r.n_workflows
            cached = cached and run.from_cache
        rate = sum(rates) / len(rates)
        return _Probe(
            scale=scale,
            completion_rate=rate,
            act=sum(acts) / len(acts),
            ae=sum(aes) / len(aes),
            n_done=n_done,
            n_workflows=n_wf,
            from_cache=cached,
            passed=rate >= settings.threshold,
        )

    def search(scenario: str, algorithm: str) -> _Search:
        state = _Search()

        def run_probe(scale: float) -> _Probe:
            p = probe(scenario, algorithm, _round_scale(scale))
            state.probes.append(p)
            if progress is not None:
                progress(scenario, algorithm, p)
            return p

        first = run_probe(1.0)
        if first.passed:
            # Exponential growth until the criterion first flips.
            lo, hi = 1.0, None
            scale = 2.0
            while scale <= settings.max_scale:
                p = run_probe(scale)
                if p.passed:
                    lo = scale
                    scale *= 2.0
                else:
                    hi = scale
                    break
            if hi is None:
                return state  # censored at max_scale
        else:
            # Already failing at the nominal rate: halve down to a pass.
            lo, hi = None, 1.0
            scale = 0.5
            while scale >= MIN_SCALE:
                p = run_probe(scale)
                if p.passed:
                    lo = scale
                    break
                hi = scale
                scale /= 2.0
            if lo is None:
                return state  # censored below MIN_SCALE
        while hi - lo > settings.resolution:
            mid = _round_scale((lo + hi) / 2.0)
            if mid in (lo, hi):  # resolution finer than _SCALE_DECIMALS
                break
            p = run_probe(mid)
            lo, hi = (mid, hi) if p.passed else (lo, mid)
        return state

    scenario_entries = []
    for name, cfg in configs.items():
        heuristics = {}
        for algorithm in algorithms:
            cell = search(name, algorithm).result(settings)
            nominal = cfg.load_factor * cfg.n_nodes
            cell["saturation_workflows"] = int(round(nominal * cell["saturation_scale"]))
            cell["saturation_workflows_per_hour"] = round(
                cell["saturation_workflows"] / (cfg.total_time / 3600.0), 3
            )
            heuristics[algorithm] = cell
        scenario_entries.append(
            {
                "name": name,
                "n_nodes": cfg.n_nodes,
                "load_factor": cfg.load_factor,
                "total_time": float(cfg.total_time),
                "nominal_workflows": cfg.load_factor * cfg.n_nodes,
                "heuristics": heuristics,
            }
        )
    return {
        "schema": SWEEP_SCHEMA,
        "kind": "capacity-envelope",
        "criterion": {"metric": "completion_rate", "threshold": settings.threshold},
        "resolution": settings.resolution,
        "max_scale": settings.max_scale,
        "seeds": list(settings.seeds),
        "algorithms": list(algorithms),
        "scenarios": scenario_entries,
    }


def validate_envelope(report: dict) -> list[str]:
    """Sanity-check an envelope report; returns a list of problems."""
    problems: list[str] = []
    if report.get("schema") != SWEEP_SCHEMA:
        problems.append(f"schema must be {SWEEP_SCHEMA}, got {report.get('schema')!r}")
    if report.get("kind") != "capacity-envelope":
        problems.append(f"kind must be 'capacity-envelope', got {report.get('kind')!r}")
    scenarios = report.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        problems.append("scenarios must be a non-empty list")
        return problems
    for entry in scenarios:
        name = entry.get("name", "<unnamed>")
        heuristics = entry.get("heuristics")
        if not isinstance(heuristics, dict) or not heuristics:
            problems.append(f"{name}: heuristics must be a non-empty object")
            continue
        for alg, cell in heuristics.items():
            if not isinstance(cell.get("probes"), list) or not cell["probes"]:
                problems.append(f"{name}/{alg}: no probes recorded")
            if not isinstance(cell.get("saturation_scale"), (int, float)):
                problems.append(f"{name}/{alg}: missing saturation_scale")
            if not cell.get("censored", False):
                scales = {p["scale"]: p["passed"] for p in cell.get("probes", [])}
                if cell.get("saturation_scale") not in scales:
                    problems.append(
                        f"{name}/{alg}: saturation_scale was never probed"
                    )
    return problems


def format_envelope(report: dict) -> str:
    """Render the per-heuristic saturation table of an envelope report."""
    from repro.experiments.report import ascii_table

    headers = [
        "scenario", "heuristic", "saturation", "workflows", "wf/hour",
        "probes (cached)",
    ]
    rows = []
    for entry in report["scenarios"]:
        cells = entry["heuristics"]
        ranked = sorted(
            cells.items(), key=lambda kv: -kv[1]["saturation_scale"]
        )
        for alg, cell in ranked:
            mark = ""
            if cell["censored"]:
                mark = " (>= max)" if cell["saturation_scale"] >= 1.0 else " (< min)"
            rows.append([
                entry["name"],
                alg,
                f"x{cell['saturation_scale']:g}{mark}",
                cell["saturation_workflows"],
                f"{cell['saturation_workflows_per_hour']:g}",
                f"{cell['n_probes']} ({cell['n_cached']})",
            ])
    return ascii_table(headers, rows)
