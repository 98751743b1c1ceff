"""Full-ahead HEFT (Topcuoglu et al. [7]) over the whole system.

Every task of every submitted workflow gets an *upward rank* — the
average-based longest path to its workflow's exit task (identical to the
paper's RPM recursion under averages) — and tasks are placed in globally
descending rank order on their earliest-finish node.

Pooling all workflows into one rank-ordered list is what gives HEFT its
characteristic behaviour in Fig. 4–6: tasks of long workflows outrank the
short workflows' tasks, so short workflows wait — great final makespans for
the giants, poor *average* completion time and efficiency.
"""

from __future__ import annotations

from repro.core.fullahead.planner import (
    FullAheadPlan,
    FullAheadPlanner,
    GlobalView,
    _EftState,
)
from repro.grid.state import WorkflowExecution
from repro.workflow.analysis import upward_rank

__all__ = ["HeftPlanner"]


class HeftPlanner(FullAheadPlanner):
    """Global descending-upward-rank list scheduling."""

    name = "heft"

    def plan(self, view: GlobalView, workflows: list[WorkflowExecution]) -> FullAheadPlan:
        pooled: list[tuple[float, str, int, int]] = []  # (-rank, wid, topo_pos, tid)
        by_wid: dict[str, WorkflowExecution] = {}
        for wx in workflows:
            wf = wx.wf
            by_wid[wf.wid] = wx
            rank = upward_rank(wf, view.avg_capacity, view.avg_bandwidth)
            pos = wf.topo_index
            for tid in wf.tasks:
                pooled.append((-rank[tid], wf.wid, pos[tid], tid))
        # Descending rank; topo position breaks zero-cost ties so precedents
        # are always placed before their successors.
        pooled.sort()

        state = _EftState(view)
        assignment: dict[tuple[str, int], int] = {}
        for _, wid, _, tid in pooled:
            wx = by_wid[wid]
            node = state.place(wx, tid)
            if not wx.wf.tasks[tid].virtual:
                assignment[(wid, tid)] = node
        return FullAheadPlan(assignment)
