"""Full-ahead SMF: static Shortest Makespan First (paper §IV.A).

The paper's self-implemented quality ceiling: workflows are scheduled
*whole*, in ascending order of their expected makespan (the average-based
critical path, Eq. 1), and within a workflow tasks are placed in descending
RPM (upward rank) order on their earliest-finish node.

SMF monopolizes global information *and* the shortest-job-first workflow
ordering, which is why the paper finds it the best performer overall — the
decentralized DSMF is designed to approach it without any central
scheduler.
"""

from __future__ import annotations

from repro.core.fullahead.planner import (
    FullAheadPlan,
    FullAheadPlanner,
    GlobalView,
    _EftState,
)
from repro.grid.state import WorkflowExecution
from repro.workflow.analysis import expected_finish_time, upward_rank

__all__ = ["SmfPlanner"]


class SmfPlanner(FullAheadPlanner):
    """Workflow-by-workflow (ascending makespan) list scheduling."""

    name = "smf"

    def plan(self, view: GlobalView, workflows: list[WorkflowExecution]) -> FullAheadPlan:
        ordered = sorted(
            workflows,
            key=lambda wx: (
                expected_finish_time(wx.wf, view.avg_capacity, view.avg_bandwidth),
                wx.wf.wid,
            ),
        )
        state = _EftState(view)
        assignment: dict[tuple[str, int], int] = {}
        for wx in ordered:
            wf = wx.wf
            rank = upward_rank(wf, view.avg_capacity, view.avg_bandwidth)
            pos = wf.topo_index
            # Descending RPM inside the workflow (ties: topological order,
            # so precedence constraints are respected for zero-cost tasks).
            order = sorted(wf.tasks, key=lambda t: (-rank[t], pos[t]))
            for tid in order:
                node = state.place(wx, tid)
                if not wf.tasks[tid].virtual:
                    assignment[(wf.wid, tid)] = node
        return FullAheadPlan(assignment)
