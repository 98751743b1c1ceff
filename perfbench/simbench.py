"""The simulation workloads: timed ``P2PGridSystem`` reps in this process.

A run repeats *reps* — construct the system, run it, digest the result —
cycling through the run's inputs (:func:`~perfbench.workloads.input_seeds`)
until ``--seconds`` have passed and every input ran at least twice.  A step
is one simulated event; its host time is taken by
:class:`~perfbench.layers.StepClock`.  Each rep is checked: at the pinned
seed its digest and work counts must equal its input's entry in
``expected.json``; at any other seed they must equal those of the first
rep of the same input.  A rep that raises or disagrees is a failed
operation.  Each end-to-end metric is a median over one input's reps,
averaged over the inputs.

Untraced reps sample the host's speed (:mod:`perfbench.hostspeed`): a
burst of probes before and after the set-up, and a probe every
``PROBE_EVERY`` events during the run.  Each rep's set-up, run and step
times are reported at the reference speed.

With tracing on, untraced and traced reps alternate: the traced reps give
the per-layer self times (host time, not scaled) and the traced-only
counts, the untraced ones the tracing overhead (median traced ``run_s``
minus median untraced).
"""

from __future__ import annotations

import contextlib
import gc
import json
import resource
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

from perfbench import stats
from perfbench.hostspeed import PROBE_EVERY, HostSpeed
from perfbench.layers import LayerClock, StepClock, formula9_counter, instrument_run, setup_spans
from perfbench.workloads import HARD_STOP_S, PINNED_SEED, TAIL_Q, input_seeds, sim_config

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: Layer self times reported by the traced run, metric name -> layer.
LAYER_TIMES = {
    "sim.self_s": "sim",
    "gossip.newscast_s": "gossip.newscast",
    "gossip.epidemic_s": "gossip.epidemic",
    "gossip.aggregation_s": "gossip.aggregation",
    "phase1.view_s": "phase1.view",
    "phase1.plan_s": "phase1.plan",
    "phase1.dispatch_s": "phase1.dispatch",
    "phase2.select_s": "phase2.select",
    "xfer.start_s": "xfer.start",
    "churn.kill_s": "churn.kill",
    "churn.revive_s": "churn.revive",
    "net.topology_s": "net.topology",
    "net.landmarks_s": "net.landmarks",
    "setup.other_s": "setup",
}


def work_counts(system, clock: Optional[LayerClock] = None) -> dict[str, int]:
    """Exact per-run work counts, read off the finished system."""
    sim, ep, overlay = system.sim, system.epidemic, system.overlay
    p1, xfer, col = system.phase1, system.transfers, system.collector
    counts = {
        "sim.events": sim.events_executed,
        "sim.events_cancelled": sim.events_cancelled,
        "gossip.newscast_shuffles": overlay.shuffles,
        "gossip.records_shipped": ep.records_shipped,
        "gossip.records_merged": ep.records_merged,
        "gossip.evictions": ep.evictions,
        "phase1.cycles": p1.cycles_run,
        "phase1.decisions": p1.dispatches + p1.dead_target_skips,
        "phase1.dispatches": p1.dispatches,
        "xfer.started": xfer.started,
        "xfer.cancelled": xfer.cancelled,
        "churn.departures": col.n_departures,
        "churn.tasks_lost": col.n_tasks_lost,
        "churn.tasks_recovered": col.n_tasks_recovered,
    }
    if clock is not None:
        counts["phase1.ft_calls"] = clock.counts["phase1.ft_calls"]
        counts["phase1.ft_candidate_evals"] = clock.counts["phase1.ft_candidate_evals"]
        counts["phase2.selections"] = clock.calls["phase2.select"]
    return {k: int(v) for k, v in counts.items()}


@dataclass
class Rep:
    setup_s: float
    run_s: float
    steps_ms: list[float]
    digest: str
    counts: dict[str, int]
    clock: Optional[LayerClock] = None
    problems: list[str] = field(default_factory=list)
    #: Host time -> reference-speed time of the run and of the set-up (see
    #: :mod:`perfbench.hostspeed`).
    scale: float = 1.0
    setup_scale: float = 1.0


def one_rep(config, traced: bool, speed: Optional[HostSpeed] = None) -> Rep:
    """Construct, run and digest one system (tracing optional; with
    ``speed``, the host's speed is sampled and the times scaled by it)."""
    from repro.experiments.campaign import result_digest
    from repro.grid.system import P2PGridSystem

    gc.collect()
    clock = LayerClock() if traced else None
    if speed is not None:
        setup_mark = speed.mark()
        speed.burst()
    t0 = perf_counter()
    if clock is not None:
        with setup_spans(clock):
            system = clock.timed("setup", P2PGridSystem)(config)
    else:
        system = P2PGridSystem(config)
    setup_s = perf_counter() - t0
    if speed is not None:
        speed.burst()
        setup_scale = speed.scale_since(setup_mark)
        run_mark = speed.mark()
    run = system.run
    if clock is not None:
        instrument_run(system, clock)
        run = clock.timed("sim", run)
    steps = StepClock(system, speed, PROBE_EVERY)
    counting = formula9_counter(clock) if clock is not None else contextlib.nullcontext()
    with counting:
        t1 = perf_counter()
        result = run()
        t2 = perf_counter()
    rep = Rep(
        setup_s=setup_s,
        run_s=steps.elapsed(t1, t2),
        steps_ms=steps.steps_ms(t2),
        digest=result_digest(result),
        counts=work_counts(system, clock),
        clock=clock,
    )
    if speed is not None:
        rep.scale = speed.scale_since(run_mark)
        rep.setup_scale = setup_scale
    if result.n_done <= 0 or result.events_executed <= 0:
        rep.problems.append(
            f"degenerate run: {result.n_done} workflows done, "
            f"{result.events_executed} events"
        )
    return rep


def load_expected(workload: str) -> Optional[dict]:
    """The pinned entry of each input seed of ``workload``."""
    try:
        inputs = json.loads(EXPECTED_PATH.read_text())[workload]["inputs"]
        return {entry["seed"]: entry for entry in inputs}
    except (OSError, ValueError, KeyError, TypeError):
        return None


def check_rep(rep: Rep, reference: dict) -> list[str]:
    """Disagreements of one rep with the reference digest and counts (a
    count the rep did not take is not compared)."""
    problems = list(rep.problems)
    if rep.digest != reference["digest"]:
        problems.append(f"digest {rep.digest[:12]} != expected {reference['digest'][:12]}")
    for key, want in reference["counts"].items():
        got = rep.counts.get(key)
        if got is not None and got != want:
            problems.append(f"{key} = {got}, expected {want}")
    return problems


def enough(groups: list[list[Rep]], trace: bool) -> bool:
    """Whether the samples taken so far support every reported metric
    (``groups``: the reps of each input)."""
    if trace:
        reps = [r for g in groups for r in g]
        traced = sum(1 for r in reps if r.clock is not None)
        return traced >= 2 and len(reps) - traced >= 1
    needed = stats.samples_needed(TAIL_Q)
    return all(len(g) >= 2 and all(len(r.steps_ms) >= needed for r in g) for g in groups)


def run_sim(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of a simulation workload; returns the report."""
    seeds = input_seeds(workload, seed, trace)
    built = [sim_config(workload, s) for s in seeds]
    problems = sorted({drift for _, drift in built if drift})
    references: dict[int, dict] = {}
    if seed == PINNED_SEED:
        pinned = load_expected(workload) or {}
        references = {s: pinned[s] for s in seeds if s in pinned}
        if len(references) < len(seeds):
            problems.append(f"{EXPECTED_PATH.name} pins not every input of {workload}")
    groups: dict[int, list[Rep]] = {s: [] for s in seeds}
    attempted = failed = 0
    # The per-layer times of a traced run are host time, not scaled.
    speed = None if trace else HostSpeed()
    start = perf_counter()
    while True:
        k = attempted % len(seeds)
        traced = trace and attempted % 2 == 1
        attempted += 1
        try:
            rep = one_rep(built[k][0], traced, speed)
        except Exception as exc:  # a rep that raises is a failed operation
            failed += 1
            problems.append(f"rep {attempted} raised {type(exc).__name__}: {exc}")
        else:
            # Off the pinned seed the first rep of an input to take a count
            # is the reference for every later rep of that input.
            if seed == PINNED_SEED and seeds[k] not in references:
                bad = [f"no pinned expectation for input seed {seeds[k]}"]
            else:
                reference = references.setdefault(seeds[k], {"digest": rep.digest, "counts": {}})
                for key, value in rep.counts.items():
                    reference["counts"].setdefault(key, value)
                bad = check_rep(rep, reference)
            if bad:
                failed += 1
                problems.extend(f"rep {attempted}: {p}" for p in bad)
            groups[seeds[k]].append(rep)
        elapsed = perf_counter() - start
        done = enough(list(groups.values()), trace)
        if elapsed >= seconds and (done or (failed >= 3 and not any(groups.values()))):
            break
        if elapsed >= HARD_STOP_S:
            break
    if not enough(list(groups.values()), trace):
        problems.append(f"too few samples after {attempted} reps")
    report = {"attempted": attempted, "failed": failed, "problems": problems}
    measured = [g for g in groups.values() if g]
    if measured:
        report["metrics"] = traced_metrics(measured[0]) if trace else end_to_end(measured)
    return report


def peak_rss_mb() -> float:
    """This process's peak resident set (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def input_metrics(reps: list[Rep]) -> dict[str, float]:
    """Medians over one input's reps, every time at the reference speed."""
    steps = [[s * r.scale for s in r.steps_ms] for r in reps]
    metrics = {
        "setup_s": stats.median([r.setup_s * r.setup_scale for r in reps]),
        "run_s": stats.median([r.run_s * r.scale for r in reps]),
        "p50_ms": stats.median([s for group in steps for s in group]),
    }
    if all(len(group) >= stats.samples_needed(TAIL_Q) for group in steps):
        metrics["p90_ms"] = stats.median_tail(steps, TAIL_Q)
    return metrics


def end_to_end(groups: list[list[Rep]]) -> dict[str, float]:
    """The mean over the inputs of :func:`input_metrics` (``groups``: the
    reps of each input; a metric one input lacks is left out)."""
    per_input = [input_metrics(reps) for reps in groups]
    metrics = {
        name: sum(m[name] for m in per_input) / len(per_input)
        for name in per_input[0]
        if all(name in m for m in per_input)
    }
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics


def traced_metrics(reps: list[Rep]) -> dict[str, float]:
    traced = [r for r in reps if r.clock is not None]
    plain = [r for r in reps if r.clock is None]
    if not traced:
        return {}
    metrics: dict[str, float] = {
        name: stats.median([r.clock.self_s.get(layer, 0.0) for r in traced])
        for name, layer in LAYER_TIMES.items()
    }
    metrics.update({k: float(v) for k, v in traced[0].counts.items()})
    counts = traced[0].counts
    metrics["gossip.merge_yield"] = (
        counts["gossip.records_merged"] / counts["gossip.records_shipped"]
        if counts["gossip.records_shipped"] else 0.0
    )
    metrics["phase1.dispatch_yield"] = (
        counts["phase1.dispatches"] / counts["phase1.decisions"]
        if counts["phase1.decisions"] else 0.0
    )
    if plain:
        metrics["trace.overhead_s"] = stats.median([r.run_s for r in traced]) - stats.median(
            [r.run_s for r in plain]
        )
    return metrics


def record_expected(workloads, seed: int = PINNED_SEED) -> dict:
    """Digest and traced work counts of one rep per input of each workload
    at ``seed``."""
    out = {}
    for workload in workloads:
        inputs = []
        for s in input_seeds(workload, seed):
            config, drift = sim_config(workload, s)
            if drift:
                raise RuntimeError(drift)
            rep = one_rep(config, traced=True)
            inputs.append({"seed": s, "digest": rep.digest, "counts": rep.counts})
        out[workload] = {"seed": seed, "inputs": inputs}
    return out
