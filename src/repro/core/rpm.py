"""Rest-path makespan and remaining workflow makespan (Eq. (7)–(8)).

For a schedule-point task ``t`` of workflow ``f``::

    RPM(t)  = min over candidates p of FT(t, p)   (dynamic part, Eq. 7/9:
                                                   queueing + transfers +
                                                   execution on the best
                                                   currently known node)
            + restpath(t)                         (static part: the longest
                                                   eet+ett chain over the
                                                   offspring, Eq. 7 expanded
                                                   with gossip-aggregated
                                                   averages)

    ms(f)   = max over schedule points of RPM     (Eq. 8)

Validated against the paper's Fig. 3 worked example (RPM(A2)=80,
RPM(A3)=115, RPM(B2)=65, RPM(B3)=60 ⇒ ms(A)=115, ms(B)=65 and the DSMF
dispatch order B2, B3, A3, A2) in ``tests/core/test_fig3_example.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.estimates import ResourceView
from repro.grid.state import WorkflowExecution
from repro.workflow.analysis import rest_path_after

__all__ = ["WorkflowPriority", "compute_priorities"]


@dataclass
class WorkflowPriority:
    """Per-workflow DSMF priority data for one scheduling cycle."""

    wx: WorkflowExecution
    #: remaining makespan ms(f) — Eq. (8).
    makespan: float
    #: RPM per schedule-point task — Eq. (7).
    rpm: dict[int, float] = field(default_factory=dict)
    #: static offspring part (diagnostics / DSDF deadlines).
    restpath: dict[int, float] = field(default_factory=dict)

    def deadline(self, tid: int) -> float:
        """DSDF's deadline: slack between the workflow makespan and the
        task's own rest path makespan."""
        return self.makespan - self.rpm[tid]


def compute_priorities(
    wx: WorkflowExecution,
    view: ResourceView,
    avg_capacity: float,
    avg_bandwidth: float,
) -> WorkflowPriority:
    """Evaluate Eq. (7)/(8) for one workflow against a resource view.

    Each DAG edge is visited exactly once in the backward pass and each
    schedule point costs one Formula-(9) minimum over the candidate set
    (``view.best_ft``, whose transfer term the cycle's Eq. (4) batch has
    already evaluated), giving the O(θ(f)) + O(|spset|·|RSS|) complexity
    of §III.E.
    """
    after = rest_path_after(wx.wf, avg_capacity, avg_bandwidth)
    rpm: dict[int, float] = {}
    restpath: dict[int, float] = {}
    for tid in wx.schedule_points:
        task = wx.wf.tasks[tid]
        inputs = wx.inputs_for(tid)
        best_ft = view.best_ft(task.load, task.image_size, inputs)
        rpm[tid] = best_ft + after[tid]
        restpath[tid] = after[tid]
    makespan = max(rpm.values()) if rpm else 0.0
    return WorkflowPriority(wx=wx, makespan=makespan, rpm=rpm, restpath=restpath)
