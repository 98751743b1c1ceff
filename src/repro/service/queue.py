"""The submission queue: serial campaign execution over the shared cache.

One submit path and one worker path carry both request kinds through
:mod:`repro.experiments.request`: :meth:`CampaignQueue.submit` resolves a
manifest (:func:`~repro.service.schemas.admit`), and the worker thread
drains accepted requests in FIFO order through
:func:`~repro.experiments.request.execute` — a campaign fans out through
:class:`~repro.experiments.campaign.CampaignRunner`'s process pool, a
sweep through :func:`~repro.experiments.sweep.run_sweep`.  A campaign
recreated from the submission journal runs with the result digests the
experiment index recorded for its cells, so a replayed cell whose digest
changed fails it.  Serial campaign execution is a deliberate design choice,
not a limitation: together with the content-addressed cache (and the
runner's own within-sweep dedup) it gives the service its coalescing
guarantee — when N clients concurrently submit overlapping manifests,
every distinct config hash is simulated **exactly once**; later campaigns
replay the overlap from cache.  Parallelism lives inside a campaign
(``jobs`` worker processes), where the runner already dedupes.

Campaign state transitions: ``queued -> running -> done | failed``; per
config the run states are ``pending -> running -> done`` (cache hits jump
straight to ``done``).  Every queued and running campaign is kept, and of
the finished ones the most recent :data:`MAX_FINISHED`; an older id reads
as unknown, as every finished id does after a restart.
"""

from __future__ import annotations

import queue as _queuemod
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Optional

from repro.experiments.campaign import CampaignError
from repro.experiments.request import execute
from repro.faults import NULL_FAULTS
from repro.service.index import ExperimentIndex, entry_from_result
from repro.service.schemas import admit

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.campaign import CampaignRun, RunSpec
    from repro.experiments.request import Request
    from repro.service.journal import ServiceJournal

__all__ = ["MAX_FINISHED", "CampaignQueue", "CampaignState", "QueueFullError", "RunState"]

#: How many finished campaigns stay pollable; older ones are forgotten,
#: oldest first.  At about 2 KiB each, this bounds the queue's memory
#: however many campaigns a server finishes.
MAX_FINISHED = 1000


class QueueFullError(RuntimeError):
    """The queue is at its bounded depth; try again after ``retry_after``."""

    def __init__(self, depth: int, retry_after: float):
        self.depth = depth
        self.retry_after = retry_after
        super().__init__(
            f"queue is full ({depth} campaigns queued or running); "
            f"retry after {retry_after:g}s"
        )


@dataclass
class RunState:
    """Live status of one (label, config) cell of a campaign."""

    label: str
    config_hash: str
    status: str = "pending"  # pending | running | done
    from_cache: bool = False
    wall_seconds: float = 0.0
    act: Optional[float] = None
    ae: Optional[float] = None
    n_done: Optional[int] = None
    n_workflows: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "config_hash": self.config_hash,
            "status": self.status,
            "from_cache": self.from_cache,
            "wall_seconds": self.wall_seconds,
            "act": self.act,
            "ae": self.ae,
            "n_done": self.n_done,
            "n_workflows": self.n_workflows,
        }


@dataclass
class CampaignState:
    """Live status of one submitted campaign.

    ``version`` increments on every observable mutation (status
    transitions and per-run updates) — the long-poll in
    :meth:`CampaignQueue.get` returns as soon as it changes.
    """

    id: str
    manifest: dict
    runs: list[RunState] = field(default_factory=list)
    status: str = "queued"  # queued | running | done | failed
    #: ``campaign`` (fixed grid, runs known at submit time) or ``sweep``
    #: (adaptive capacity search, runs appended as probes are chosen).
    kind: str = "campaign"
    #: The capacity-envelope report, set when a sweep finishes.
    report: Optional[dict] = None
    error: Optional[str] = None
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    version: int = 0
    #: True when this campaign was recreated from the submission journal
    #: after a server restart (it keeps its original id).
    resumed: bool = False

    def to_dict(self, with_runs: bool = True) -> dict:
        completed = sum(1 for r in self.runs if r.status == "done")
        out = {
            "id": self.id,
            "kind": self.kind,
            "status": self.status,
            "error": self.error,
            "manifest": self.manifest,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "progress": {"completed": completed, "total": len(self.runs)},
            "n_cached": sum(1 for r in self.runs if r.from_cache),
            "version": self.version,
            "resumed": self.resumed,
        }
        if with_runs:
            out["runs"] = [r.to_dict() for r in self.runs]
        if self.report is not None:
            out["report"] = self.report
        return out


class CampaignQueue:
    """Accept manifests, execute them serially, expose poll-able status.

    Parameters
    ----------
    cache_dir:
        The content-addressed result cache shared with the CLI.
    index:
        The persistent experiment index; every completed run (cache hits
        included) is recorded there.
    jobs:
        Worker processes per campaign (the fan-out *inside* a campaign).
    runner:
        Injectable per-config work function (tests use a counting stub);
        forwarded to :class:`~repro.experiments.campaign.CampaignRunner`.
    use_cache:
        Disable only in diagnostics — without the cache the coalescing
        guarantee degrades to within-campaign dedup.
    journal:
        Optional :class:`~repro.service.journal.ServiceJournal`.  When
        given, accepted submissions are journaled before the client sees
        them, and any submitted-but-unfinished campaign from a previous
        process is recreated (original id, ``resumed`` flag) and
        re-enqueued — finished cells replay from cache, digest-checked
        against the index.
    max_pending:
        Overload bound: when this many campaigns are queued or running, a
        new submission raises :class:`QueueFullError` (the HTTP layer
        turns it into ``429`` + ``Retry-After``) instead of growing the
        backlog without limit.  ``None`` = unbounded.
    faults:
        A :class:`~repro.faults.FaultPlan` forwarded to every runner
        (default: the zero-overhead null plan).
    """

    def __init__(
        self,
        cache_dir,
        index: ExperimentIndex,
        jobs: int = 1,
        runner: Optional[Callable] = None,
        use_cache: bool = True,
        mp_context: Optional[str] = None,
        journal: "Optional[ServiceJournal]" = None,
        max_pending: Optional[int] = None,
        faults=NULL_FAULTS,
    ):
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.cache_dir = cache_dir
        self.index = index
        self.jobs = jobs
        self.runner = runner
        self.use_cache = use_cache
        self.mp_context = mp_context
        self.journal = journal
        self.max_pending = max_pending
        self.faults = faults
        #: Robustness counters aggregated across every campaign runner
        #: (retries, pool rebuilds, cache errors) — exposed on /metrics.
        self.stats: dict = {}
        self._queue: _queuemod.Queue = _queuemod.Queue()
        self._campaigns: dict[str, CampaignState] = {}
        #: Finished campaign ids, oldest first (see :meth:`_retire`).
        self._finished: deque[str] = deque()
        self._lock = threading.RLock()
        #: Long-poll wakeups: every state mutation bumps the campaign's
        #: ``version`` and notifies all waiters (see :meth:`get`).
        self._changed = threading.Condition(self._lock)
        self._seq = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        if journal is not None:
            self._seq = journal.max_seq
            self._replay(journal.unfinished)

    def _replay(self, unfinished: "list[dict]") -> None:
        """Recreate journaled unfinished campaigns under their original ids.

        Each runs with the result digests the index recorded, so a cell
        whose cached result changed fails it.  Manifests were validated at
        submission; one that no longer validates (schema drift across an
        upgrade) is journaled as failed rather than wedging the queue.
        """
        expected = self.index.digests()
        for entry in unfinished:
            cid, kind, manifest = entry["id"], entry["kind"], entry["manifest"]
            state = CampaignState(
                id=cid, manifest=dict(manifest), kind=kind,
                submitted_at=time.time(), resumed=True,
            )
            self._campaigns[cid] = state
            try:
                request = admit(kind, manifest)
            except Exception as exc:
                state.status = "failed"
                state.error = f"resume: manifest no longer valid: {exc}"
                self._retire(cid)
                if self.journal is not None:
                    self.journal.finished(cid, "failed")
                continue
            state.runs = _run_states(request)
            self._queue.put((cid, request, expected))

    # ----------------------------------------------------------- lifecycle
    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._worker, name="repro-service-worker", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: Optional[float] = 30.0) -> None:
        """Stop the worker after the campaign in flight (if any) finishes."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    # ----------------------------------------------------------- submission
    def submit(self, manifest: Mapping, kind: str = "campaign") -> dict:
        """Validate a ``campaign`` or ``sweep`` manifest, enqueue it,
        return its status.

        A campaign's runs are known at submission.  A sweep's start empty:
        the adaptive search *chooses* its probes as earlier ones complete,
        so its :class:`RunState` entries are appended live, and the
        finished envelope report lands on the state's ``report`` field.
        Raises :class:`~repro.service.schemas.ManifestError` on any
        validation failure — nothing invalid ever reaches the worker —
        and :class:`QueueFullError` when the bounded queue is at depth.
        """
        request = admit(kind, manifest)
        with self._lock:
            self._check_capacity()
            self._seq += 1
            cid = f"c{self._seq:06d}"
            state = CampaignState(
                id=cid,
                manifest=dict(manifest),
                kind=kind,
                runs=_run_states(request),
                submitted_at=time.time(),
            )
            self._campaigns[cid] = state
            snapshot = state.to_dict()
        if self.journal is not None:
            self.journal.submitted(cid, kind, manifest)
        self._queue.put((cid, request, None))
        return snapshot

    def _check_capacity(self) -> None:
        """Reject a submission when the backlog is at ``max_pending``.

        Called under ``self._lock``.  ``Retry-After`` scales with the
        backlog: one serial slot frees per campaign, so a deeper queue
        advertises a longer wait (capped at 30 s).
        """
        if self.max_pending is None:
            return
        active = sum(
            1
            for s in self._campaigns.values()
            if s.status in ("queued", "running")
        )
        if active >= self.max_pending:
            raise QueueFullError(active, min(30.0, float(max(1, active))))

    def get(
        self,
        campaign_id: str,
        wait: float = 0.0,
        since: Optional[int] = None,
    ) -> Optional[dict]:
        """One campaign's status; ``None`` for an unknown id.

        ``wait > 0`` long-polls: the call blocks up to ``wait`` seconds,
        returning early as soon as the campaign's state changes (any
        ``version`` bump) or it is already terminal (``done``/``failed``)
        — a client sees progress the moment it happens instead of on its
        next poll tick.

        ``since`` is the client's last-observed ``version``.  Without it
        the poll waits for a change relative to the state *at call time*,
        which loses any bump that landed between the client's previous
        response and this request — the client then parks for the full
        ``wait`` despite a transition having already happened.  With
        ``since`` given, such a poll returns immediately.
        """
        deadline = time.monotonic() + wait
        with self._changed:
            state = self._campaigns.get(campaign_id)
            if state is None:
                return None
            seen = state.version if since is None else since
            while (
                wait > 0
                and state.version == seen
                and state.status not in ("done", "failed")
            ):
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._changed.wait(remaining):
                    break
            return state.to_dict()

    def list(self) -> list[dict]:
        """Submission-ordered campaign summaries (runs omitted)."""
        with self._lock:
            return [s.to_dict(with_runs=False) for s in self._campaigns.values()]

    def status_counts(self) -> dict[str, int]:
        """Campaign counts per lifecycle state (for ``GET /metrics``)."""
        counts = {"queued": 0, "running": 0, "done": 0, "failed": 0}
        with self._lock:
            for state in self._campaigns.values():
                counts[state.status] = counts.get(state.status, 0) + 1
        return counts

    def __len__(self) -> int:
        with self._lock:
            return len(self._campaigns)

    # ------------------------------------------------------------- worker
    def _worker(self) -> None:
        # Graceful drain: the stop check precedes each dequeue, so a
        # SIGTERM finishes the campaign in flight but leaves the queued
        # backlog to the submission journal (replayed on next start)
        # instead of racing to drain it inside the shutdown window.
        while not self._stop.is_set():
            try:
                cid, request, expected = self._queue.get(timeout=0.2)
            except _queuemod.Empty:
                continue
            try:
                self._process(cid, request, expected)
            finally:
                self._queue.task_done()

    def _bump(self, state: CampaignState) -> None:
        """Mark a state mutation: bump ``version``, wake long-pollers.

        Callers hold ``self._lock`` (the condition shares it).
        """
        state.version += 1
        self._changed.notify_all()

    def _retire(self, cid: str) -> None:
        """Record ``cid`` as finished and forget the oldest finished
        campaigns beyond :data:`MAX_FINISHED`.

        Callers hold ``self._lock`` (or own the queue, as ``_replay``).
        """
        self._finished.append(cid)
        while len(self._finished) > MAX_FINISHED:
            del self._campaigns[self._finished.popleft()]

    def _set_run(self, cid: str, label: str, key: str, **updates) -> None:
        """Update a run state, appending it first if unknown (a sweep's
        probes are not known before they are chosen)."""
        with self._lock:
            state = self._campaigns[cid]
            for run in state.runs:
                if run.label == label:
                    break
            else:
                run = RunState(label, key)
                state.runs.append(run)
            for name, value in updates.items():
                setattr(run, name, value)
            self._bump(state)

    def _process(
        self, cid: str, request: "Request", expected: "Optional[dict]"
    ) -> None:
        with self._lock:
            state = self._campaigns[cid]
            state.status = "running"
            state.started_at = time.time()
            self._bump(state)

        def on_start(spec: "RunSpec", key: str) -> None:
            self._set_run(cid, spec.label, key, status="running")

        def on_done(run: "CampaignRun") -> None:
            self._set_run(
                cid,
                run.label,
                run.cache_key,
                status="done",
                from_cache=run.from_cache,
                wall_seconds=run.wall_seconds,
                act=float(run.result.act),
                ae=float(run.result.ae),
                n_done=run.result.n_done,
                n_workflows=run.result.n_workflows,
            )
            self.index.record(
                entry_from_result(
                    run.cache_key,
                    run.result,
                    label=run.label,
                    campaign_id=cid,
                    source="service",
                    from_cache=run.from_cache,
                    digest=run.digest(),
                )
            )

        options: dict = {} if self.runner is None else {"runner": self.runner}
        try:
            outcome = execute(
                request,
                progress=on_done,
                on_start=on_start,
                expected=expected,
                jobs=self.jobs,
                cache_dir=self.cache_dir,
                use_cache=self.use_cache,
                mp_context=self.mp_context,
                faults=self.faults,
                stats=self.stats,
                **options,
            )
        except CampaignError as exc:
            with self._lock:
                state.status = "failed"
                state.error = str(exc)
        except Exception as exc:  # pragma: no cover - defensive: never wedge
            with self._lock:
                state.status = "failed"
                state.error = f"{type(exc).__name__}: {exc}"
        else:
            with self._lock:
                state.status = "done"
                if request.kind == "sweep":
                    state.report = outcome
        finally:
            with self._lock:
                state.finished_at = time.time()
                final = state.status
                self._bump(state)
                self._retire(cid)
            if self.journal is not None:
                self.journal.finished(cid, final)


def _run_states(request: "Request") -> "list[RunState]":
    """A campaign's runs, known at submission; a sweep's start empty."""
    if request.kind == "sweep":
        return []
    return [RunState(spec.label, key) for spec, key in zip(request.specs, request.keys)]
