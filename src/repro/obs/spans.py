"""Sim-time tracing spans: Chrome trace-event JSON from a TraceRecorder.

:func:`build_chrome_trace` turns the events a
:class:`~repro.obs.recorder.TraceRecorder` collected from a
``P2PGridSystem(config, recorder=...)`` run (plus the
workflow records of the finished :class:`~repro.metrics.collectors.RunResult`)
into the Trace Event Format understood by Perfetto
(https://ui.perfetto.dev) and ``chrome://tracing``:

* **pid 1 "nodes"** — one thread per peer node: task execution slices
  (``ph: "X"`` complete events, start→finish) and churn instants
  (``node_down``/``node_up``).
* **pid 2 "workflows"** — one thread per workflow: a lifecycle slice from
  submission to completion/failure, annotated with task counts and the
  number of churn-rescued tasks (tasks dispatched more than once).
* **pid 3 "transfers"** — nestable async spans (``ph: "b"``/``"e"``,
  paired by the recorder's transfer sequence number) per destination
  node, carrying source and megabits.
* **pid 4 "gossip"** — one instant per gossip round with its message
  count.

Timestamps are simulated seconds scaled to microseconds (the format's
unit), so one trace second equals one simulated second.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.metrics.collectors import RunResult
    from repro.obs.recorder import TraceRecorder

__all__ = [
    "build_chrome_trace",
    "write_chrome_trace",
    "summarize_chrome_trace",
    "format_trace_summary",
]

_PID_NODES = 1
_PID_WORKFLOWS = 2
_PID_TRANSFERS = 3
_PID_GOSSIP = 4

#: sim seconds -> trace microseconds
_US = 1e6


def _meta(pid: int, name: str, tid: int = 0, kind: str = "process_name") -> dict:
    return {"ph": "M", "pid": pid, "tid": tid, "name": kind, "args": {"name": name}}


def build_chrome_trace(recorder: "TraceRecorder", result: Optional["RunResult"] = None) -> dict:
    """Build a Trace Event Format document (see module docstring)."""
    events: list[dict] = [
        _meta(_PID_NODES, "nodes"),
        _meta(_PID_WORKFLOWS, "workflows"),
        _meta(_PID_TRANSFERS, "transfers"),
        _meta(_PID_GOSSIP, "gossip"),
        _meta(_PID_GOSSIP, "rounds", tid=0, kind="thread_name"),
    ]

    # ---------------------------------------------------------------- nodes
    named_nodes: set[int] = set()

    def node_track(nid: int) -> int:
        if nid not in named_nodes:
            named_nodes.add(nid)
            events.append(
                _meta(_PID_NODES, f"node {nid}", tid=nid, kind="thread_name")
            )
        return nid

    for node, wid, tid, start, finish in recorder.task_intervals():
        events.append(
            {
                "ph": "X",
                "pid": _PID_NODES,
                "tid": node_track(node),
                "name": f"{wid}/t{tid}",
                "cat": "exec",
                "ts": start * _US,
                "dur": (finish - start) * _US,
                "args": {"wid": wid, "tid": tid},
            }
        )

    dispatch_counts: Counter = Counter()
    for e in recorder.events:
        if e.kind == "dispatch":
            dispatch_counts[(e.wid, e.tid)] += 1
        elif e.kind in ("node_down", "node_up"):
            events.append(
                {
                    "ph": "i",
                    "pid": _PID_NODES,
                    "tid": node_track(e.node),
                    "name": e.kind,
                    "cat": "churn",
                    "ts": e.time * _US,
                    "s": "t",
                }
            )
        elif e.kind == "transfer_start":
            events.append(
                {
                    "ph": "b",
                    "pid": _PID_TRANSFERS,
                    "tid": e.node,
                    "id": e.tid,
                    "name": f"{e.src}->{e.node}",
                    "cat": "transfer",
                    "ts": e.time * _US,
                    "args": {"src": e.src, "dst": e.node, "megabits": e.size},
                }
            )
        elif e.kind == "transfer_done":
            events.append(
                {
                    "ph": "e",
                    "pid": _PID_TRANSFERS,
                    "tid": e.node,
                    "id": e.tid,
                    "name": f"{e.src}->{e.node}",
                    "cat": "transfer",
                    "ts": e.time * _US,
                }
            )
        elif e.kind == "gossip_round":
            events.append(
                {
                    "ph": "i",
                    "pid": _PID_GOSSIP,
                    "tid": 0,
                    "name": f"round {e.tid}",
                    "cat": "gossip",
                    "ts": e.time * _US,
                    "s": "p",
                    "args": {"messages": e.size},
                }
            )
        elif e.kind == "task_lost":
            events.append(
                {
                    "ph": "i",
                    "pid": _PID_NODES,
                    "tid": 0,
                    "name": "task_lost",
                    "cat": "churn",
                    "ts": e.time * _US,
                    "s": "g",
                }
            )

    # ------------------------------------------------------------ workflows
    # Rescued tasks = dispatched more than once (a recovery policy re-entered
    # them after churn loss).
    rescued_by_wid: Counter = Counter()
    for (wid, _tid), n in dispatch_counts.items():
        if n > 1:
            rescued_by_wid[wid] += 1

    terminal_times = {
        e.wid: e.time
        for e in recorder.events
        if e.kind in ("workflow_done", "workflow_failed")
    }
    if result is not None:
        for track, record in enumerate(result.records):
            end = record.completion_time
            if end is None:
                end = terminal_times.get(record.wid)
            status = record.status
            events.append(
                _meta(
                    _PID_WORKFLOWS,
                    f"{record.wid} ({status})",
                    tid=track,
                    kind="thread_name",
                )
            )
            args = {
                "wid": record.wid,
                "home": record.home_id,
                "n_tasks": record.n_tasks,
                "status": status,
                "rescued_tasks": rescued_by_wid.get(record.wid, 0),
            }
            if record.failure_reason:
                args["failure_reason"] = record.failure_reason
            if end is not None:
                events.append(
                    {
                        "ph": "X",
                        "pid": _PID_WORKFLOWS,
                        "tid": track,
                        "name": record.wid,
                        "cat": f"workflow_{status}",
                        "ts": record.submit_time * _US,
                        "dur": (end - record.submit_time) * _US,
                        "args": args,
                    }
                )
            else:  # still running at the horizon: an open-ended instant
                events.append(
                    {
                        "ph": "i",
                        "pid": _PID_WORKFLOWS,
                        "tid": track,
                        "name": f"{record.wid} (running at horizon)",
                        "cat": "workflow_running",
                        "ts": record.submit_time * _US,
                        "s": "t",
                        "args": args,
                    }
                )

    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str, recorder: "TraceRecorder", result: Optional["RunResult"] = None
) -> dict:
    """Write the trace JSON to ``path`` and return the document."""
    trace = build_chrome_trace(recorder, result)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, separators=(",", ":"))
    return trace


# --------------------------------------------------------------------------
# `repro trace summarize`
# --------------------------------------------------------------------------

def summarize_chrome_trace(trace: dict) -> dict:
    """Aggregate a trace document: span counts/durations per category."""
    events = trace.get("traceEvents", [])
    by_cat: dict[str, dict[str, float]] = defaultdict(
        lambda: {"events": 0.0, "span_seconds": 0.0}
    )
    open_async: dict[tuple, float] = {}
    t_min = float("inf")
    t_max = float("-inf")
    for e in events:
        ph = e.get("ph")
        if ph == "M":
            continue
        cat = e.get("cat", "(uncategorized)")
        slot = by_cat[cat]
        slot["events"] += 1
        ts = float(e.get("ts", 0.0))
        t_min = min(t_min, ts)
        t_max = max(t_max, ts)
        if ph == "X":
            dur = float(e.get("dur", 0.0))
            slot["span_seconds"] += dur / _US
            t_max = max(t_max, ts + dur)
        elif ph == "b":
            open_async[(e.get("pid"), e.get("id"))] = ts
        elif ph == "e":
            t0 = open_async.pop((e.get("pid"), e.get("id")), None)
            if t0 is not None:
                slot["span_seconds"] += (ts - t0) / _US
    return {
        "n_events": sum(int(s["events"]) for s in by_cat.values()),
        "time_range_seconds": (
            [t_min / _US, t_max / _US] if t_min <= t_max else [0.0, 0.0]
        ),
        "categories": {k: dict(v) for k, v in sorted(by_cat.items())},
        "unmatched_async": len(open_async),
    }


def format_trace_summary(summary: dict) -> str:
    """Render :func:`summarize_chrome_trace` output for the CLI."""
    lo, hi = summary["time_range_seconds"]
    lines = [
        f"{summary['n_events']} trace events over "
        f"[{lo:.0f}s, {hi:.0f}s] sim time "
        f"({(hi - lo) / 3600.0:.2f} h)",
        f"{'category':<24s} {'events':>10s} {'span total':>14s}",
    ]
    for cat, slot in summary["categories"].items():
        lines.append(
            f"{cat:<24s} {int(slot['events']):>10d} {slot['span_seconds']:>12.1f} s"
        )
    if summary["unmatched_async"]:
        lines.append(
            f"({summary['unmatched_async']} transfers still open at the horizon)"
        )
    return "\n".join(lines)
