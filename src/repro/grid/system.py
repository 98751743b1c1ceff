"""The complete P2P grid simulation (substrate S12): everything wired up.

:class:`P2PGridSystem` builds — from one
:class:`~repro.experiments.config.ExperimentConfig` — the Waxman topology,
the peer nodes with Table I capacities, the workload submission plan
(via :mod:`repro.workload`: pluggable sources × arrival processes), the
mixed gossip protocol, the scheduling algorithm bundle and (when df > 0)
the churn process, then runs the discrete-event simulation and returns a
:class:`~repro.metrics.collectors.RunResult`.

Submissions are discrete events: each distinct submission instant gets one
``submit`` event that creates the :class:`WorkflowExecution`\\ s arriving
then (the paper's batch-at-t0 workload is the special case of a single
event at t = 0, replayed bit-identically).  Workflows whose submission
time lies beyond the horizon are never created.

Execution semantics implemented here (paper §II.A, Fig. 1):

* phase 1 dispatches migrate a task (image transfer home→target) and start
  the dependent-data transfers from the precedents' nodes (steps 6–8);
* a ready-set task becomes *runnable* when image and data have all arrived
  (step 9); when the target CPU is free the bundle's phase-2 policy picks
  among runnable tasks (Algorithm 2);
* each node's CPU is non-sharable and non-preemptive — one task at a time;
* virtual (zero-cost normalization) tasks complete instantly at the home
  node and are never migrated;
* full-ahead baselines dispatch every task at t=0 per their static plan,
  with each data transfer starting the moment its producer finishes.
"""

from __future__ import annotations

import gc
import time as _wallclock
from typing import Optional

import numpy as np

from repro.availability.models import ChurnModel, make_churn_model
from repro.availability.recovery import make_recovery_policy
from repro.availability.trace import AvailabilityEvent
from repro.core.dual_phase import Phase1Runner
from repro.core.estimates import LandmarkBandwidth, OracleBandwidth
from repro.core.fullahead.planner import GlobalView
from repro.core.heuristics.base import DispatchDecision
from repro.core.heuristics.registry import get_bundle
from repro.experiments.config import ExperimentConfig
from repro.gossip.aggregation import AggregationGossip
from repro.gossip.epidemic import EpidemicGossip
from repro.gossip.newscast import NewscastOverlay
from repro.grid.node import PeerNode
from repro.grid.state import TaskDispatch, WorkflowExecution, WorkflowStatus
from repro.grid.transfers import TransferManager
from repro.metrics.collectors import MetricsCollector, RunResult, WorkflowRecord
from repro.obs.telemetry import make_telemetry
from repro.net.landmarks import LandmarkEstimator
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.periodic import PeriodicActivity
from repro.sim.rng import RngHub
from repro.workflow.analysis import expected_finish_time
from repro.workload.build import WorkflowSubmission, build_submissions

__all__ = ["P2PGridSystem"]


class P2PGridSystem:
    """One simulated P2P grid run."""

    def __init__(
        self,
        config: ExperimentConfig,
        workflows=None,
        submissions=None,
        telemetry=None,
        recorder=None,
    ):
        """Build the full system.

        Parameters
        ----------
        config:
            The experiment description.
        workflows:
            Optional explicit list of ``(home_id, Workflow)`` pairs, all
            submitted at t = 0 (shorthand for ``submissions``).
        submissions:
            Optional explicit list of
            :class:`~repro.workload.build.WorkflowSubmission` — full
            control over what arrives where and when (trace replay).  By
            default the plan is built from the config's workload source ×
            arrival process (the paper default: ``load_factor * n_nodes``
            §IV.A random workflows, all at t = 0).
        telemetry:
            Optional explicit telemetry backend (see
            :mod:`repro.obs.telemetry`).  Defaults to a live backend when
            ``config.telemetry`` is set, else the shared no-op null
            backend.  Telemetry only observes — it never draws randomness
            or feeds decisions, so enabling it leaves results
            bit-identical.
        recorder:
            Optional :class:`~repro.obs.recorder.TraceRecorder`.  The
            system and its transfer manager report every execution event
            to it from explicit hook sites; like telemetry it only
            observes, so a traced run's results are bit-identical.
        """
        self.config = config
        self.sim = Simulator()
        self.recorder = recorder
        self.telemetry = telemetry if telemetry is not None else make_telemetry(
            getattr(config, "telemetry", False)
        )
        #: wall-clock anchors for the events/s series (telemetry only)
        self._tm_last_wall: Optional[float] = None
        self._tm_last_events = 0
        self.rng = RngHub(config.seed)
        self.bundle = get_bundle(config.algorithm)

        # ----------------------------------------------------- network (S2-S4)
        self.topology = Topology.waxman(
            config.n_nodes,
            self.rng.stream("topology"),
            alpha=config.waxman_alpha,
            beta=config.waxman_beta,
            bw_min=config.bw_min,
            bw_max=config.bw_max,
            plane_size=config.plane_size,
        )
        self.landmarks = LandmarkEstimator(
            self.topology, self.rng.stream("landmarks"), n_landmarks=config.n_landmarks
        )
        if config.use_landmark_bandwidth:
            self.scheduler_bandwidth = LandmarkBandwidth(self.landmarks, self.topology)
        else:
            self.scheduler_bandwidth = OracleBandwidth(self.topology)

        # ------------------------------------------------------- nodes (S10)
        cap_rng = self.rng.stream("capacities")
        caps = cap_rng.choice(np.asarray(config.capacities), size=config.n_nodes)
        dynamic = config.churn_enabled()
        n_perm = (
            int(round(config.permanent_fraction * config.n_nodes))
            if dynamic
            else config.n_nodes
        )
        n_perm = max(1, min(config.n_nodes, n_perm))
        self.nodes: list[PeerNode] = [
            PeerNode(
                nid=i,
                capacity=float(caps[i]),
                is_home=(i < n_perm),
                volatile=(i >= n_perm),
            )
            for i in range(config.n_nodes)
        ]
        self.home_nodes = [n for n in self.nodes if n.is_home]

        # ----------------------------------------------------- gossip (S5-S6)
        all_ids = [n.nid for n in self.nodes]
        self.overlay = NewscastOverlay(all_ids, self.rng.stream("newscast"))
        self.epidemic = EpidemicGossip(
            self.overlay,
            load_provider=self._node_state,
            rng=self.rng.stream("epidemic"),
            ttl=config.gossip_ttl,
            push_size=config.gossip_push_size,
            rss_capacity=config.rss_capacity,
            expiry=config.rss_expiry_cycles * config.gossip_interval,
        )
        self.aggregation = AggregationGossip(
            self.overlay,
            self.rng.stream("aggregation"),
            restart_cycles=config.aggregation_restart_cycles,
        )
        self.aggregation.register_metric(
            "capacity", lambda nid: self.nodes[nid].capacity
        )
        meas = self.landmarks.measurements
        finite_cap = np.nanmax(np.where(np.isfinite(meas), meas, np.nan))
        local_bw = np.minimum(meas, finite_cap).mean(axis=1)
        self.aggregation.register_metric(
            "bandwidth", lambda nid: float(local_bw[nid])
        )

        # -------------------------------------------------- workload (S7-S9)
        self._oracle_avg_capacity = float(np.mean([n.capacity for n in self.nodes]))
        self._oracle_avg_bandwidth = self.topology.mean_bandwidth()
        self.executions: dict[str, WorkflowExecution] = {}
        self.workflows_by_home: dict[int, list[WorkflowExecution]] = {
            n.nid: [] for n in self.home_nodes
        }
        if workflows is not None and submissions is not None:
            raise ValueError("pass either workflows or submissions, not both")
        if workflows is not None:
            submissions = [
                WorkflowSubmission(submit_time=0.0, home_id=h, workflow=wf)
                for h, wf in workflows
            ]
        if submissions is None:
            submissions = build_submissions(
                config, self.rng, [n.nid for n in self.home_nodes]
            )
        #: The submission plan, sorted by time (stable for equal instants).
        self.submissions: list[WorkflowSubmission] = sorted(
            submissions, key=lambda s: s.submit_time
        )
        seen_wids: set[str] = set()
        for sub in self.submissions:
            if sub.workflow.wid in seen_wids:
                raise ValueError(
                    f"duplicate workflow id {sub.workflow.wid!r} in workload"
                )
            seen_wids.add(sub.workflow.wid)
            if not (0 <= sub.home_id < config.n_nodes) or not self.nodes[
                sub.home_id
            ].is_home:
                raise ValueError(
                    f"workflow {sub.workflow.wid} submitted at node "
                    f"{sub.home_id}, which is not a home node "
                    f"(homes are 0..{len(self.home_nodes) - 1})"
                )
        # t=0 submissions are registered now (the seed's contract: batch
        # workloads are inspectable right after construction); later
        # arrivals materialize when their submit event fires.
        for sub in self.submissions:
            if sub.submit_time == 0.0:
                self._materialize(sub)

        # ------------------------------------------------------ runtime state
        self.transfers = TransferManager(
            self.sim, self.topology, contention=config.transfer_contention,
            recorder=recorder,
        )
        self.dispatch_index: dict[tuple[str, int], TaskDispatch] = {}
        self._seq = 0
        #: full-ahead: (wid, producer_tid) -> consumers awaiting its data.
        self._deferred_edges: dict[tuple[str, int], list[tuple[TaskDispatch, float]]] = {}
        self.collector = MetricsCollector(n_nodes=config.n_nodes)
        self.phase1 = Phase1Runner(self)
        #: Realized availability transitions, in event order — saveable via
        #: :func:`repro.availability.save_availability_trace` and replayable
        #: through the ``trace`` churn model.
        self.availability_events: list[AvailabilityEvent] = []
        self._alive_count = config.n_nodes
        #: Lost-to-churn task keys still awaiting re-entry + completion —
        #: a task counts as *recovered* only when it actually finishes.
        self._lost_task_keys: set[tuple[str, int]] = set()
        self.recovery = make_recovery_policy(config.recovery_policy)
        self.churn: Optional[ChurnModel] = (
            make_churn_model(self, self.rng.stream("churn")) if dynamic else None
        )
        self._fullahead_plan = None
        self._ran = False
        # Static per-node arrays for full-ahead GlobalViews: ids and
        # capacities never change mid-run, so submit-time (re)planning only
        # refreshes the load vector instead of rebuilding everything.
        self._node_ids_arr = np.asarray([n.nid for n in self.nodes], dtype=np.int64)
        self._capacities_arr = np.asarray([n.capacity for n in self.nodes])

    # ------------------------------------------------------------------ setup
    def _node_state(self, nid: int) -> tuple[float, float]:
        node = self.nodes[nid]
        return node.total_load(), node.capacity

    # ----------------------------------------------------------- gossip views
    def avg_capacity_estimate(self, nid: int) -> float:
        """The node's decentralized estimate of mean capacity (MIPS)."""
        est = self.aggregation.estimate("capacity", nid)
        return est if est > 0 else self._oracle_avg_capacity

    def avg_bandwidth_estimate(self, nid: int) -> float:
        """The node's decentralized estimate of mean bandwidth (Mb/s)."""
        est = self.aggregation.estimate("bandwidth", nid)
        return est if est > 0 else max(self._oracle_avg_bandwidth, 1e-9)

    # ------------------------------------------------------------------- run
    def run(self) -> RunResult:
        """Execute the simulation and return the collected metrics."""
        if self._ran:
            raise RuntimeError("a P2PGridSystem can only run once")
        self._ran = True
        cfg = self.config
        started = _wallclock.perf_counter()

        # Same-instant ordering within a tick: gossip, churn, phase-1,
        # metrics — achieved by creation order (the event queue is FIFO at
        # equal timestamps).
        PeriodicActivity(self.sim, cfg.gossip_interval, self._gossip_cycle, label="gossip")
        if self.churn is not None:
            # The model schedules its own events (the paper-interval model
            # arms the same periodic activity the legacy code did here, so
            # the default event sequence is unchanged).
            self.churn.start()
        if not self.bundle.full_ahead:
            PeriodicActivity(
                self.sim, cfg.schedule_interval, self._phase1_cycle, label="phase1"
            )
        PeriodicActivity(
            self.sim, cfg.metrics_interval, self._metrics_cycle, label="metrics"
        )

        # One submit event per distinct submission instant (the paper's
        # batch workload is exactly one event at t=0, matching the seed's
        # event sequence); arrivals beyond the horizon are dropped.  For
        # full-ahead bundles each group is followed by its planning event,
        # mirroring the seed's submit-then-plan ordering at t=0.
        for when, group in self._submission_groups():
            self.sim.schedule(when, lambda g=group: self._submit_group(g), label="submit")
            if self.bundle.full_ahead:
                self.sim.schedule(
                    when, lambda g=group: self._fullahead_plan_group(g),
                    label="fullahead",
                )

        # A run leaves no cyclic garbage: reference counting frees all it
        # drops.  Yet each container it allocates counts towards a gen-0
        # sweep, and the default threshold (700) would sweep hundreds of
        # times per run to find nothing.  The threshold is raised for the
        # loop and the previous setting always restored.
        gc_thresholds = gc.get_threshold()
        gc.set_threshold(100_000, gc_thresholds[1], gc_thresholds[2])
        try:
            self.sim.run(until=cfg.total_time)
        finally:
            gc.set_threshold(*gc_thresholds)
        self._finalize_records()
        self.collector.sample(
            self.sim.now,
            rss_mean=self.epidemic.mean_known_nodes(),
            alive_nodes=self._alive_count,
        )
        wall = _wallclock.perf_counter() - started
        avg_alive = self.collector.avg_alive_fraction(cfg.total_time)
        return RunResult(
            algorithm=cfg.algorithm,
            seed=cfg.seed,
            n_nodes=cfg.n_nodes,
            n_workflows=len(self.executions),
            total_time=cfg.total_time,
            act=self.collector.act,
            ae=self.collector.ae,
            n_done=self.collector.n_done,
            n_failed=self.collector.n_failed,
            events_executed=self.sim.events_executed,
            wall_seconds=wall,
            rss_mean=self.epidemic.mean_known_nodes(),
            records=self.collector.records,
            samples=self.collector.samples,
            config=cfg.describe(),
            n_departures=self.collector.n_departures,
            n_revivals=self.collector.n_revivals,
            n_tasks_lost=self.collector.n_tasks_lost,
            n_tasks_recovered=self.collector.n_tasks_recovered,
            avg_alive_fraction=avg_alive,
            availability_ae=self.collector.ae * avg_alive,
            telemetry=self._telemetry_snapshot(wall),
        )

    def _telemetry_snapshot(self, wall: float):
        """Fold subsystem counters into a snapshot (None when disabled).

        The always-on subsystem counters (engine, gossip, transfers,
        phase 1, churn census) cost nothing extra to read here; the
        histograms/series were accumulated during the run only when the
        backend was live.
        """
        t = self.telemetry
        if not t.enabled:
            return None
        sim = self.sim
        t.inc("sim.events_executed", float(sim.events_executed))
        t.inc("sim.events_cancelled", float(sim.events_cancelled))
        t.inc("sim.events_rescheduled", float(sim.events_rescheduled))
        t.gauge("sim.queue_depth_final", float(sim.queue_depth()))
        t.gauge("sim.events_per_sec_wall", sim.events_executed / wall if wall > 0 else 0.0)
        ep = self.epidemic
        t.inc("gossip.digests_sent", float(ep.messages_sent))
        t.inc("gossip.records_shipped", float(ep.records_shipped))
        t.inc("gossip.records_merged", float(ep.records_merged))
        t.inc("gossip.evictions", float(ep.evictions))
        t.gauge("gossip.rss_mean", ep.mean_known_nodes())
        overlay = self.overlay
        t.inc("gossip.newscast_shuffles", float(overlay.shuffles))
        t.inc("gossip.newscast_reseeds", float(overlay.reseeds))
        t.gauge("gossip.newscast_view_age_seconds", overlay.mean_descriptor_age(sim.now))
        p1 = self.phase1
        t.inc("sched.phase1_cycles", float(p1.cycles_run))
        t.inc("sched.phase1_dispatches", float(p1.dispatches))
        t.inc("sched.dead_target_skips", float(p1.dead_target_skips))
        tr = self.transfers
        t.inc("transfers.started", float(tr.started))
        t.inc("transfers.completed", float(tr.completed))
        t.inc("transfers.cancelled", float(tr.cancelled))
        t.inc("transfers.megabits_moved", tr.bytes_moved)
        t.gauge("transfers.inflight_peak", float(tr.peak_active))
        col = self.collector
        t.inc("churn.departures", float(col.n_departures))
        t.inc("churn.revivals", float(col.n_revivals))
        t.inc("churn.tasks_lost", float(col.n_tasks_lost))
        t.inc("churn.tasks_recovered", float(col.n_tasks_recovered))
        t.inc("workflows.done", float(col.n_done))
        t.inc("workflows.failed", float(col.n_failed))
        t.gauge("run.wall_seconds", wall)
        return t.snapshot()

    # --------------------------------------------------------- periodic ticks
    def _gossip_cycle(self, cycle: int) -> None:
        now = self.sim.now
        sent = self.epidemic.messages_sent
        self.overlay.run_cycle(now)
        self.epidemic.run_cycle(now)
        self.aggregation.run_cycle(now)
        if self.recorder is not None:
            self.recorder.add(
                now, "gossip_round", -1, tid=cycle,
                size=float(self.epidemic.messages_sent - sent),
            )

    def _phase1_cycle(self, cycle: int) -> None:
        self.phase1.run_cycle()

    def _metrics_cycle(self, cycle: int) -> None:
        self.collector.sample(
            self.sim.now,
            rss_mean=self.epidemic.mean_known_nodes(),
            alive_nodes=self._alive_count,
        )
        t = self.telemetry
        if t.enabled:
            now = self.sim.now
            depth = float(self.sim.queue_depth())
            t.gauge_max("sim.queue_depth_peak", depth)
            t.point("sim.queue_depth", now, depth)
            wall = _wallclock.perf_counter()
            executed = self.sim.events_executed
            if self._tm_last_wall is not None and wall > self._tm_last_wall:
                t.point(
                    "sim.events_per_sec_wall",
                    now,
                    (executed - self._tm_last_events) / (wall - self._tm_last_wall),
                )
            self._tm_last_wall = wall
            self._tm_last_events = executed

    # ------------------------------------------------------------ submission
    def _submission_groups(self) -> list[tuple[float, list[WorkflowSubmission]]]:
        """Submissions grouped by instant, horizon-filtered, in time order."""
        groups: list[tuple[float, list[WorkflowSubmission]]] = []
        for sub in self.submissions:
            if sub.submit_time > self.config.total_time:
                continue
            if groups and groups[-1][0] == sub.submit_time:
                groups[-1][1].append(sub)
            else:
                groups.append((sub.submit_time, [sub]))
        return groups

    def _materialize(self, sub: WorkflowSubmission) -> WorkflowExecution:
        """Register one submission as a live workflow execution."""
        wf = sub.workflow
        eft = expected_finish_time(
            wf, self._oracle_avg_capacity, self._oracle_avg_bandwidth
        )
        wx = WorkflowExecution(wf, sub.home_id, submit_time=sub.submit_time, eft=eft)
        self.executions[wf.wid] = wx
        self.workflows_by_home.setdefault(sub.home_id, []).append(wx)
        return wx

    def _submit_group(self, group: list[WorkflowSubmission]) -> None:
        """One submission instant: the group's workflows enter the system."""
        arrived = [
            self.executions.get(sub.workflow.wid) or self._materialize(sub)
            for sub in group
        ]
        for wx in arrived:
            self._absorb_virtual_and_check(wx)
        if self.config.immediate_dispatch and not self.bundle.full_ahead:
            self.phase1.plan_homes(home.nid for home in self.home_nodes)

    # --------------------------------------------------------- JIT dispatching
    def execute_decision(self, decision: DispatchDecision) -> bool:
        """Migrate one task per a phase-1 decision (Algorithm 1 lines 13–15).

        Returns False when the target churned out since the gossip record
        was stamped — the task then stays a schedule point for the next
        cycle and the stale record is evicted from the home's RSS.
        """
        target = self.nodes[decision.target]
        home_id = decision.wx.home_id
        if not target.alive:
            self.epidemic.discard(home_id, decision.target)
            return False
        wx = decision.wx
        tid = decision.tid
        if wx.status is not WorkflowStatus.RUNNING or tid not in wx.schedule_points:
            return False
        inputs = wx.inputs_for(tid)
        # A precedent's data may live on a departed node.
        dead_sources = [src for src, _ in inputs if not self.nodes[src].alive]
        if dead_sources:
            if self.config.churn_mode == "suspend":
                # The data's host is temporarily offline: retry next cycle.
                return False
            # fail mode: the recovery policy decides — fail the workflow,
            # invalidate dead producers for a re-run, or (checkpoint)
            # return a patched input list re-served from the home.
            patched = self.recovery.on_dead_sources(
                self, wx, tid, inputs, dead_sources
            )
            if patched is None:
                return False
            inputs = patched

        if self.telemetry.enabled:
            stamp = self.epidemic.timestamp_of(home_id, target.nid)
            if stamp is not None:
                self.telemetry.observe(
                    "sched.rss_age_at_dispatch_seconds", self.sim.now - stamp
                )

        wx.mark_dispatched(tid)
        task = wx.wf.tasks[tid]
        dispatch = TaskDispatch(
            wid=wx.wf.wid,
            tid=tid,
            load=task.load,
            image_size=task.image_size,
            home_id=home_id,
            target_id=target.nid,
            dispatch_time=self.sim.now,
            seq=self._next_seq(),
            ms_stamp=decision.stamps.get("ms", 0.0),
            rpm_stamp=decision.stamps.get("rpm", 0.0),
            sufferage_stamp=decision.stamps.get("sufferage", 0.0),
            deadline_stamp=decision.stamps.get("deadline", 0.0),
            et_stamp=decision.stamps.get("et", 0.0),
        )
        self.dispatch_index[dispatch.key()] = dispatch
        target.enqueue(dispatch)
        self._start_input_transfers(dispatch, inputs)
        if self.recorder is not None:
            self.recorder.add(self.sim.now, "dispatch", target.nid, wx.wf.wid, tid)
        return True

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _start_input_transfers(
        self, dispatch: TaskDispatch, inputs: list[tuple[int, float]]
    ) -> None:
        """Start image + dependent-data transfers; arm readiness counting."""
        pending = 0
        target = dispatch.target_id
        arrived = self._arrival(dispatch)
        if dispatch.image_size > 0.0 and dispatch.home_id != target:
            pending += 1
            self.transfers.start(dispatch.home_id, target, dispatch.image_size, arrived)
        for src, mb in inputs:
            if mb > 0.0 and src != target:
                pending += 1
                self.transfers.start(src, target, mb, arrived)
        dispatch.pending_inputs = pending
        if pending == 0:
            dispatch.ready_time = self.sim.now
            self._try_start(self.nodes[target])

    def _arrival(self, dispatch: TaskDispatch):
        """One callback, shared by the dispatch's transfers, per arrival."""
        return lambda: self._transfer_arrived(dispatch)

    def _transfer_arrived(self, dispatch: TaskDispatch) -> None:
        if dispatch.cancelled:
            return
        dispatch.pending_inputs -= 1
        if dispatch.pending_inputs == 0:
            dispatch.ready_time = self.sim.now
            self._try_start(self.nodes[dispatch.target_id])

    # -------------------------------------------------- phase 2 / execution
    def _try_start(self, node: PeerNode) -> None:
        """Algorithm 2: assign the CPU when it is free (paper step 4/9)."""
        if not node.alive or node.busy:
            return
        # Single pass: collect runnable tasks and lazily prune cancelled
        # entries so ready sets stay small.
        runnable = node.poll_runnable()
        if not runnable:
            return
        t = self.telemetry
        if t.enabled:
            t0 = _wallclock.perf_counter()
            dispatch = self.bundle.phase2.select(runnable, self.sim.now)
            t.observe(
                f"sched.phase2_select_seconds.{self.config.algorithm}",
                _wallclock.perf_counter() - t0,
            )
            t.inc("sched.phase2_selections")
        else:
            dispatch = self.bundle.phase2.select(runnable, self.sim.now)
        et = node.start(dispatch, self.sim.now)
        node.completion_event = self.sim.schedule(
            et, lambda n=node: self._on_cpu_complete(n), label="exec"
        )
        if self.recorder is not None:
            self.recorder.add(self.sim.now, "start", node.nid, dispatch.wid, dispatch.tid)

    def _on_cpu_complete(self, node: PeerNode) -> None:
        dispatch = node.finish_running(self.sim.now)
        self._task_finished(dispatch, node)
        self._try_start(node)

    def _task_finished(self, dispatch: TaskDispatch, node: PeerNode) -> None:
        if self.recorder is not None:
            self.recorder.add(self.sim.now, "finish", node.nid, dispatch.wid, dispatch.tid)
        wx = self.executions[dispatch.wid]
        self.dispatch_index.pop(dispatch.key(), None)
        if wx.status is not WorkflowStatus.RUNNING:
            return  # workflow already failed; the result is discarded
        wx.mark_finished(dispatch.tid, node.nid, self.sim.now)
        if self._lost_task_keys and dispatch.key() in self._lost_task_keys:
            self._lost_task_keys.discard(dispatch.key())
            self.collector.task_recovered()
        self._absorb_virtual_and_check(wx)
        if self.bundle.full_ahead:
            self._release_deferred_edges(wx, dispatch.tid, node.nid)
        elif (
            self.config.immediate_dispatch
            and wx.status is WorkflowStatus.RUNNING
            and wx.schedule_points
        ):
            self.phase1.run_for_home(wx.home_id, [wx])

    def _absorb_virtual_and_check(self, wx: WorkflowExecution) -> None:
        """Complete virtual schedule points instantly; detect completion."""
        progressed = True
        while progressed:
            progressed = False
            for tid in list(wx.schedule_points):
                if wx.wf.tasks[tid].virtual:
                    wx.mark_finished(tid, wx.home_id, self.sim.now)
                    progressed = True
        if wx.status is WorkflowStatus.RUNNING and wx.is_complete:
            wx.status = WorkflowStatus.DONE
            wx.completion_time = self.sim.now
            if self.recorder is not None:
                self.recorder.add(self.sim.now, "workflow_done", wx.home_id, wx.wf.wid)
            self.collector.workflow_done(self._record(wx))

    # --------------------------------------------------- full-ahead execution
    def _fullahead_plan_group(self, group: list[WorkflowSubmission]) -> None:
        """Plan the group's just-submitted workflows centrally (global
        information at their submission instant) and dispatch everything.

        The view carries each node's resident load so mid-run arrival
        groups (streaming workloads) are planned against the occupied
        grid; at t = 0 every load is zero and this reduces to the paper's
        idle-grid plan."""
        wxs = [
            self.executions[sub.workflow.wid]
            for sub in group
            if sub.workflow.wid in self.executions
        ]
        if not wxs:
            return
        view = GlobalView(
            node_ids=self._node_ids_arr,
            capacities=self._capacities_arr,
            bandwidth=self.topology._bandwidth,
            latency=self.topology._latency,
            avg_capacity=self._oracle_avg_capacity,
            avg_bandwidth=max(self._oracle_avg_bandwidth, 1e-9),
            loads=np.asarray([n.total_load() for n in self.nodes]),
        )
        assert self.bundle.planner is not None
        plan = self.bundle.planner.plan(view, wxs)
        if self._fullahead_plan is None:
            self._fullahead_plan = plan
        else:
            self._fullahead_plan.assignment.update(plan.assignment)

        for wx in wxs:
            wf = wx.wf
            for tid in wf.topo_order:
                task = wf.tasks[tid]
                if task.virtual or tid in wx.finished:
                    continue
                target = plan.node_for(wf.wid, tid)
                self._fullahead_dispatch(wx, tid, target, plan)

    def _fullahead_dispatch(self, wx, tid: int, target: int, plan) -> None:
        """Place a task per the static plan; edge transfers start when the
        producing task finishes (full-ahead knows targets in advance)."""
        wf = wx.wf
        task = wf.tasks[tid]
        wx.schedule_points.discard(tid)
        wx.dispatched.add(tid)
        dispatch = TaskDispatch(
            wid=wf.wid,
            tid=tid,
            load=task.load,
            image_size=task.image_size,
            home_id=wx.home_id,
            target_id=target,
            dispatch_time=self.sim.now,
            seq=self._next_seq(),
        )
        self.dispatch_index[dispatch.key()] = dispatch
        node = self.nodes[target]
        node.enqueue(dispatch)

        pending = 0
        arrived = self._arrival(dispatch)
        if task.image_size > 0.0 and wx.home_id != target:
            pending += 1
            self.transfers.start(wx.home_id, target, task.image_size, arrived)
        for p, data in wf.precedents[tid].items():
            if p in wx.finished:
                # Producer already done (virtual entry at t=0): only a real
                # remote transfer delays readiness.
                src = wx.finished[p][0]
                if data > 0.0 and src != target:
                    pending += 1
                    self.transfers.start(src, target, data, arrived)
            else:
                # Every unfinished precedent holds one readiness token, even
                # for co-located / zero-data edges — otherwise a successor
                # sharing its producer's node could execute first.
                pending += 1
                self._deferred_edges.setdefault((wf.wid, p), []).append(
                    (dispatch, data)
                )
        dispatch.pending_inputs = pending
        if pending == 0:
            dispatch.ready_time = self.sim.now
            self._try_start(node)
        if self.recorder is not None:
            self.recorder.add(self.sim.now, "dispatch", node.nid, wf.wid, tid)

    def _release_deferred_edges(self, wx, producer_tid: int, producer_node: int) -> None:
        """The producer finished: ship its outputs to waiting consumers (or
        release their dependency token directly when no transfer is needed)."""
        waiting = self._deferred_edges.pop((wx.wf.wid, producer_tid), None)
        if not waiting:
            return
        for consumer, data in waiting:
            if consumer.cancelled:
                continue
            if data > 0.0 and producer_node != consumer.target_id:
                self.transfers.start(
                    producer_node, consumer.target_id, data, self._arrival(consumer)
                )
            else:
                self._transfer_arrived(consumer)

    # ------------------------------------------------------------------ churn
    def _record_churn(self, kind: str, nid: int) -> None:
        """Log one availability transition and update the alive census."""
        now = self.sim.now
        self.availability_events.append(AvailabilityEvent(now, nid, kind))
        if kind == "leave":
            self._alive_count -= 1
            self.collector.node_departed(now, self._alive_count)
        else:
            self._alive_count += 1
            self.collector.node_revived(now, self._alive_count)

    def kill_node(self, nid: int) -> None:
        """Disconnect a volatile node.

        ``suspend`` churn mode (default): the node goes offline with its
        tasks — the running task's remaining execution time is frozen, the
        ready set is kept, and everything resumes on rejoin.  Workflows with
        tasks here simply stall (the paper's "large-load tasks which cannot
        be finished quickly").

        ``fail`` churn mode: resident tasks are lost; their fate is the
        recovery policy's call (fail the owning workflow, reschedule the
        lost tasks, or re-enter them from the home's dispatch checkpoint).
        """
        nid = int(nid)  # numpy scalars must not reach lookups or traces
        node = self.nodes[nid]
        if not node.alive:
            return
        node.alive = False
        self._record_churn("leave", nid)
        lost: list[TaskDispatch] = []
        if self.config.churn_mode == "suspend":
            # In-flight inbound transfers are assumed buffered at the
            # (returning) node's NIC and complete normally.
            if node.completion_event is not None:
                node.suspended_remaining = max(
                    0.0, node.completion_event.time - self.sim.now
                )
                node.completion_event.cancel()
                node.completion_event = None
        else:
            if node.completion_event is not None:
                node.completion_event.cancel()
            lost.extend(node.ready)
            if node.running is not None:
                lost.append(node.running)
            node.ready.clear()
            node.running = None
            node.completion_event = None
            node.invalidate_load()
            self.transfers.cancel_inbound(nid)
        # Overlay/gossip state dies with the connection.
        self.overlay.remove_node(nid)
        self.epidemic.remove_node(nid)
        self.aggregation.remove_node(nid)
        for dispatch in lost:
            if dispatch.cancelled:
                continue
            dispatch.cancelled = True
            self.dispatch_index.pop(dispatch.key(), None)
            wx = self.executions[dispatch.wid]
            if wx.status is not WorkflowStatus.RUNNING:
                continue
            if self.recorder is not None:
                self.recorder.add(self.sim.now, "task_lost", -1)
            self.collector.task_lost()
            self._lost_task_keys.add(dispatch.key())
            self.recovery.on_task_lost(self, wx, dispatch.tid, nid)
        if self.recorder is not None:
            self.recorder.add(self.sim.now, "node_down", nid)

    def revive_node(self, nid: int) -> None:
        """A departed node rejoins.

        ``suspend`` mode: picks up exactly where it left off (the frozen
        running task is re-armed, queued tasks become eligible again).
        ``fail`` mode: returns fresh and empty.
        """
        nid = int(nid)
        node = self.nodes[nid]
        if node.alive:
            return
        self._record_churn("join", nid)
        if self.config.churn_mode == "suspend":
            node.alive = True
            node.epoch += 1
            if node.running is not None:
                remaining = node.suspended_remaining or 0.0
                node.suspended_remaining = None
                node.completion_event = self.sim.schedule(
                    remaining, lambda n=node: self._on_cpu_complete(n), label="exec"
                )
            else:
                self._try_start(node)
        else:
            node.reset_for_rejoin(node.epoch + 1)
        self.overlay.add_node(nid, self.sim.now)
        self.epidemic.add_node(nid)
        self.aggregation.add_node(nid)
        if self.recorder is not None:
            self.recorder.add(self.sim.now, "node_up", nid)

    def _reschedule_lost(self, wx, tid: int, dead_node: int) -> None:
        """Extension (paper's future work): restore lost tasks as schedule
        points, invalidating finished tasks whose output data died with the
        node and is still needed."""
        wx.invalidate_task(tid)
        for ftid, (fnode, _) in list(wx.finished.items()):
            if fnode != dead_node:
                continue
            needed = any(
                s not in wx.finished and s not in wx.dispatched
                for s in wx.wf.successors[ftid]
            )
            if needed:
                wx.invalidate_task(ftid)

    def _fail_workflow(self, wx, reason: str) -> None:
        wx.status = WorkflowStatus.FAILED
        wx.failure_reason = reason
        # Cancel sibling dispatches still queued anywhere (running tasks
        # are non-preemptive and run to completion; their results are
        # simply discarded).
        for tid in wx.wf.tasks:
            dispatch = self.dispatch_index.pop((wx.wf.wid, tid), None)
            if dispatch is not None and dispatch.start_time is None:
                dispatch.cancelled = True
                self.nodes[dispatch.target_id].remove(dispatch)
        if self.recorder is not None:
            self.recorder.add(
                self.sim.now, "workflow_failed", wx.home_id, wx.wf.wid, detail=reason
            )
        self.collector.workflow_failed(self._record(wx))

    # ---------------------------------------------------------------- records
    def _record(self, wx) -> WorkflowRecord:
        return WorkflowRecord(
            wid=wx.wf.wid,
            home_id=wx.home_id,
            n_tasks=wx.wf.n_tasks,
            eft=wx.eft,
            submit_time=wx.submit_time,
            status=wx.status.value,
            completion_time=wx.completion_time,
            failure_reason=wx.failure_reason,
        )

    def _finalize_records(self) -> None:
        """Workflows still running at the horizon are recorded as such."""
        for wx in self.executions.values():
            if wx.status is WorkflowStatus.RUNNING:
                self.collector.records.append(self._record(wx))
