"""The dual-phase just-in-time scheduling engine (paper §III.D).

:class:`Phase1Runner` executes Algorithm 1 for every home node once per
scheduling interval.  It first evaluates Eq. (4) for the whole cycle in one
batch (:func:`~repro.core.estimates.ltd_rows`); then, home by home, it
assembles the node's :class:`SchedulingContext` (workflows with schedule
points, the RSS-backed resource view seeded with the home's Eq. (4) rows,
the gossip-aggregated averages) and hands the bundle's phase-1 policy's
decisions to the grid system for execution.

The second phase (Algorithm 2) is event-driven — it runs whenever a CPU
frees up — and therefore lives in the grid system's ``try_start`` path,
which calls the bundle's phase-2 policy.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Iterable

from repro.core.estimates import ResourceView, ltd_rows
from repro.core.heuristics.base import SchedulingContext
from repro.grid.state import WorkflowExecution, WorkflowStatus

if TYPE_CHECKING:  # pragma: no cover
    from repro.grid.system import P2PGridSystem

__all__ = ["Phase1Runner"]

#: A home's slice of the Eq. (4) batch: ``(candidate ids, rows by key)``.
LtdSlice = tuple[list[int], dict]


class Phase1Runner:
    """Drives Algorithm 1 across all home nodes each scheduling cycle."""

    def __init__(self, system: "P2PGridSystem"):
        self.system = system
        self.cycles_run = 0
        self.dispatches = 0
        self.dead_target_skips = 0

    # ------------------------------------------------------------------ API
    def run_cycle(self) -> None:
        """One scheduling interval: every alive home node plans and dispatches."""
        self.cycles_run += 1
        self.plan_homes(home.nid for home in self.system.home_nodes if home.alive)

    def plan_homes(self, home_ids: Iterable[int]) -> None:
        """Algorithm 1 at each home in turn, over one Eq. (4) batch.

        A home's dispatches change only node loads, which Eq. (4) does not
        read, and its own RSS row, so no home's candidates, workflows or
        task inputs move before its turn: the batch taken up front is what
        each home would evaluate at its turn, and ``run_for_home`` checks
        the candidate ids.
        """
        plans = [(h, wxs) for h in home_ids if (wxs := self.plannable(h))]
        for (home_id, workflows), ltd in zip(plans, self._ltd_batch(plans)):
            self.run_for_home(home_id, workflows, ltd)

    def plannable(self, home_id: int) -> list[WorkflowExecution]:
        """The home's RUNNING workflows that have schedule points."""
        return [
            wx
            for wx in self.system.workflows_by_home.get(home_id, [])
            if wx.status is WorkflowStatus.RUNNING and wx.schedule_points
        ]

    def run_for_home(
        self,
        home_id: int,
        workflows: list[WorkflowExecution],
        ltd: LtdSlice | None = None,
    ) -> None:
        """Algorithm 1 at one home node over ``workflows``.

        ``ltd`` is the home's slice of the cycle's Eq. (4) batch; without
        one (immediate dispatch on a completion, tests) the batch runs for
        this home alone.  Raises ``ValueError`` if the slice was evaluated
        over other candidates than the view built now.
        """
        system = self.system
        if ltd is None:
            (ltd,) = self._ltd_batch([(home_id, workflows)])
        view = self._build_view(home_id)
        view.seed_ltd(*ltd)
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
    def _ltd_batch(
        self, plans: list[tuple[int, list[WorkflowExecution]]]
    ) -> list[LtdSlice]:
        """One :func:`ltd_rows` call over every ``(home_id, workflows)``:
        each home's candidates and the distinct ``(image, inputs)`` of its
        schedule points."""
        homes = [
            (
                home_id,
                self._candidates(home_id),
                {
                    (wx.wf.tasks[tid].image_size, tuple(wx.inputs_for(tid)))
                    for wx in workflows
                    for tid in wx.schedule_points
                },
            )
            for home_id, workflows in plans
        ]
        rows = ltd_rows(self.system.scheduler_bandwidth, homes)
        return [(ids, by_key) for (_, ids, _), by_key in zip(homes, rows)]

    def _candidates(self, home_id: int) -> list[int]:
        """RSS(home) ∪ {home}: the home first, then its RSS records (every
        other alive node in ``oracle`` mode)."""
        system = self.system
        if system.config.rss_mode == "oracle":
            return [home_id] + [n.nid for n in system.nodes if n.alive and n.nid != home_id]
        # A row never contains its owner, so no home filter is needed.
        return [home_id] + system.epidemic.rss_columns(home_id)[0].tolist()

    def _build_view(self, home_id: int) -> ResourceView:
        """The :meth:`_candidates` as a candidate table.

        In ``gossip`` mode capacities/loads come from the (possibly stale)
        epidemic records; in ``oracle`` mode from the live nodes directly.
        """
        system = self.system
        nodes = system.nodes
        ids = self._candidates(home_id)
        oracle = system.config.rss_mode == "oracle"
        if oracle:
            caps = [nodes[i].capacity for i in ids]
            loads = [nodes[i].total_load() for i in ids]
        else:
            # Zero-copy column reads off the RSS record table.
            _, rss_caps, rss_loads, rss_ts = system.epidemic.rss_columns(home_id)
            caps = [nodes[home_id].capacity] + rss_caps.tolist()
            loads = [nodes[home_id].total_load()] + rss_loads.tolist()
            telemetry = system.telemetry
            if telemetry.enabled:
                # RSS staleness as seen by Algorithm 1 (telemetry only).
                observe = telemetry.observe
                for age in (system.sim.now - rss_ts).tolist():
                    observe("sched.rss_age_at_plan_seconds", age)
        now = system.sim.now

        def writeback(k: int, new_load: float) -> None:
            # Algorithm 1 line 15: the dispatched load is also written into
            # the home's own gossip record of candidate k (0 is the home) so
            # it persists until a fresher record arrives.  A gossip view's
            # candidate k is RSS slot k - 1 (only execute_decision, after
            # the plan, reorders the row).
            if k and oracle:
                system.epidemic.apply_local_update(home_id, ids[k], new_load, now)
            elif k:
                rss_loads[k - 1] = new_load
                rss_ts[k - 1] = now

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
