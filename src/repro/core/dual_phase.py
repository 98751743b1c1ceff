"""The dual-phase just-in-time scheduling engine (paper §III.D).

:class:`Phase1Runner` executes Algorithm 1 for every home node once per
scheduling interval: it assembles the node's :class:`SchedulingContext`
(workflows with schedule points, the RSS-backed resource view, the
gossip-aggregated averages) and hands the bundle's phase-1 policy's
decisions to the grid system for execution.

The second phase (Algorithm 2) is event-driven — it runs whenever a CPU
frees up — and therefore lives in the grid system's ``try_start`` path,
which calls the bundle's phase-2 policy.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING

from repro.core.estimates import ResourceView
from repro.core.heuristics.base import SchedulingContext
from repro.grid.state import WorkflowStatus

if TYPE_CHECKING:  # pragma: no cover
    from repro.grid.system import P2PGridSystem

__all__ = ["Phase1Runner"]


class Phase1Runner:
    """Drives Algorithm 1 across all home nodes each scheduling cycle."""

    def __init__(self, system: "P2PGridSystem"):
        self.system = system
        self.cycles_run = 0
        self.dispatches = 0
        self.dead_target_skips = 0

    # ------------------------------------------------------------------ API
    def run_cycle(self) -> None:
        """One scheduling interval: every home node plans and dispatches."""
        system = self.system
        self.cycles_run += 1
        for home in system.home_nodes:
            if not home.alive:
                continue
            self.run_for_home(home.nid)

    def run_for_home(self, home_id: int, only_wids: set[str] | None = None) -> None:
        """Algorithm 1 at one home node.

        ``only_wids`` restricts planning to specific workflows — used by the
        immediate-dispatch ablation to react to single completions.
        """
        system = self.system
        workflows = [
            wx
            for wx in system.workflows_by_home.get(home_id, [])
            if wx.status is WorkflowStatus.RUNNING
            and wx.schedule_points
            and (only_wids is None or wx.wf.wid in only_wids)
        ]
        if not workflows:
            return
        view = self._build_view(home_id)
        ctx = SchedulingContext(
            home_id=home_id,
            now=system.sim.now,
            workflows=workflows,
            view=view,
            avg_capacity=system.avg_capacity_estimate(home_id),
            avg_bandwidth=system.avg_bandwidth_estimate(home_id),
        )
        telemetry = system.telemetry
        if telemetry.enabled:
            t0 = perf_counter()
            decisions = system.bundle.phase1.plan(ctx)
            telemetry.observe(
                f"sched.phase1_plan_seconds.{system.config.algorithm}",
                perf_counter() - t0,
            )
        else:
            decisions = system.bundle.phase1.plan(ctx)
        for decision in decisions:
            if system.execute_decision(decision):
                self.dispatches += 1
            else:
                self.dead_target_skips += 1

    # ------------------------------------------------------------ internals
    def _build_view(self, home_id: int) -> ResourceView:
        """RSS(home) ∪ {home} as a vectorizable candidate table.

        In ``gossip`` mode capacities/loads come from the (possibly stale)
        epidemic records; in ``oracle`` mode from the live nodes directly.
        """
        system = self.system
        home = system.nodes[home_id]
        ids = [home_id]
        caps = [home.capacity]
        loads = [home.total_load()]
        if system.config.rss_mode == "oracle":
            for node in system.nodes:
                if node.alive and node.nid != home_id:
                    ids.append(node.nid)
                    caps.append(node.capacity)
                    loads.append(node.total_load())
        else:
            # Zero-copy column reads off the RSS record table (a row
            # never contains its owner, so no home filter is needed).
            rss_ids, rss_caps, rss_loads, rss_ts = system.epidemic.rss_columns(
                home_id
            )
            ids.extend(rss_ids.tolist())
            caps.extend(rss_caps.tolist())
            loads.extend(rss_loads.tolist())
            telemetry = system.telemetry
            if telemetry.enabled:
                # RSS staleness as seen by Algorithm 1 (telemetry only).
                observe = telemetry.observe
                for age in (system.sim.now - rss_ts).tolist():
                    observe("sched.rss_age_at_plan_seconds", age)
        now = system.sim.now

        def writeback(target: int, new_load: float) -> None:
            # Algorithm 1 line 15: the dispatched load is also written into
            # the home's own gossip record of the target so it persists
            # until a fresher record arrives.
            if target != home_id:
                system.epidemic.apply_local_update(home_id, target, new_load, now)

        # Trusted fast path: the lists above are plain ints/floats from
        # node/gossip state, so per-element validation is skipped.
        return ResourceView.trusted(
            ids,
            caps,
            loads,
            bandwidth=system.scheduler_bandwidth,
            home_id=home_id,
            writeback=writeback,
        )
