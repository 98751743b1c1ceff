"""Schedule analysis over recorded traces: utilization, waits, Gantt."""

from __future__ import annotations

from collections import defaultdict

from repro.obs.recorder import TraceRecorder

__all__ = [
    "node_utilization",
    "waiting_time_breakdown",
    "transfer_stats",
    "gossip_round_stats",
    "time_attribution",
    "gantt_ascii",
]


def node_utilization(recorder: TraceRecorder, horizon: float) -> dict[int, float]:
    """Fraction of ``[0, horizon]`` each node's CPU was busy."""
    busy: dict[int, float] = defaultdict(float)
    for node, _, _, start, finish in recorder.task_intervals():
        busy[node] += finish - start
    return {n: t / horizon for n, t in sorted(busy.items())}


def waiting_time_breakdown(recorder: TraceRecorder) -> dict[str, float]:
    """Mean per-task delay split into *dispatch→start* (ready-set wait +
    data transfers) and *start→finish* (execution)."""
    dispatches: dict[tuple[str, int], float] = {}
    starts: dict[tuple[str, int], float] = {}
    wait_total = exec_total = 0.0
    n = 0
    for e in recorder.events:
        key = (e.wid, e.tid)
        if e.kind == "dispatch":
            dispatches[key] = e.time
        elif e.kind == "start":
            starts[key] = e.time
        elif e.kind == "finish" and key in starts:
            start = starts.pop(key)
            disp = dispatches.pop(key, start)
            wait_total += start - disp
            exec_total += e.time - start
            n += 1
    if n == 0:
        return {"mean_wait": 0.0, "mean_exec": 0.0, "tasks": 0.0}
    return {"mean_wait": wait_total / n, "mean_exec": exec_total / n, "tasks": float(n)}


def transfer_stats(recorder: TraceRecorder) -> dict[str, float]:
    """Aggregate the ``transfer_start``/``transfer_done`` pairs.

    Pairs match on the transfer sequence number the recorder put in
    ``tid``; starts without a done are in-flight at the horizon or were
    cancelled by churn.
    """
    starts: dict[int, float] = {}
    n_done = 0
    time_total = 0.0
    megabits = 0.0
    for e in recorder.events:
        if e.kind == "transfer_start":
            starts[e.tid] = e.time
        elif e.kind == "transfer_done":
            t0 = starts.pop(e.tid, None)
            if t0 is not None:
                n_done += 1
                time_total += e.time - t0
                megabits += e.size
    return {
        "transfers": float(n_done),
        "unfinished": float(len(starts)),
        "mean_seconds": time_total / n_done if n_done else 0.0,
        "total_megabits": megabits,
    }


def gossip_round_stats(recorder: TraceRecorder) -> dict[str, float]:
    """Round count and message volume from ``gossip_round`` events."""
    rounds = recorder.of_kind("gossip_round")
    messages = sum(e.size for e in rounds)
    return {
        "rounds": float(len(rounds)),
        "messages": messages,
        "mean_messages_per_round": messages / len(rounds) if rounds else 0.0,
    }


def time_attribution(recorder: TraceRecorder) -> dict[str, float]:
    """Where sim-time went per dispatched task, summed over the run.

    ``transfer_seconds`` is summed over individual transfers (concurrent
    transfers count multiply — it attributes work, not wall span);
    ``wait_seconds``/``exec_seconds`` come from the dispatch→start→finish
    chain per task.
    """
    breakdown = waiting_time_breakdown(recorder)
    transfers = transfer_stats(recorder)
    n = breakdown["tasks"]
    return {
        "tasks": n,
        "wait_seconds": breakdown["mean_wait"] * n,
        "exec_seconds": breakdown["mean_exec"] * n,
        "transfer_seconds": transfers["mean_seconds"] * transfers["transfers"],
    }


def gantt_ascii(
    recorder: TraceRecorder,
    nodes: list[int] | None = None,
    horizon: float | None = None,
    width: int = 72,
) -> str:
    """Render per-node CPU occupation as an ASCII Gantt chart.

    Each row is one node; distinct workflows cycle through marker
    characters.  Intended for small scenarios (examples, debugging).
    """
    intervals = recorder.task_intervals()
    if not intervals:
        return "(no executed tasks)"
    if horizon is None:
        horizon = max(f for _, _, _, _, f in intervals)
    if nodes is None:
        nodes = sorted({n for n, _, _, _, _ in intervals})
    markers = "abcdefghijklmnopqrstuvwxyz0123456789"
    wid_marker: dict[str, str] = {}
    rows = []
    for node in nodes:
        line = [" "] * width
        for n, wid, _, start, finish in intervals:
            if n != node:
                continue
            m = wid_marker.setdefault(wid, markers[len(wid_marker) % len(markers)])
            a = int(start / horizon * (width - 1))
            b = max(a + 1, int(finish / horizon * (width - 1)))
            for k in range(a, min(b, width)):
                line[k] = m
        rows.append(f"node {node:>4} |{''.join(line)}|")
    legend = "  ".join(f"{m}={w}" for w, m in list(wid_marker.items())[:12])
    out = "\n".join(rows)
    return f"{out}\n  t=0 {'-' * (width - 12)} t={horizon:.0f}s\n  {legend}"
