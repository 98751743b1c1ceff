"""Campaign orchestration: fan out many simulations, cache the results.

The paper's evaluation is a large grid of (algorithm × seed × config)
simulations.  Each run is single-threaded and deterministic given its
:class:`~repro.experiments.config.ExperimentConfig` (every stochastic
component draws from a named stream of :class:`~repro.sim.rng.RngHub`,
seeded only by ``config.seed``), which makes the campaign layer simple and
safe:

* **fan-out** — independent runs execute across worker processes
  (:class:`concurrent.futures.ProcessPoolExecutor`; spawn-safe, so it works
  on every platform start method), and the outcome is bit-identical to a
  serial sweep;
* **caching** — a completed :class:`~repro.metrics.collectors.RunResult` is
  stored on disk keyed by a content hash of the resolved config, so
  repeated benchmark/figure invocations are near-instant.

Entry points: :func:`sweep_specs` builds the (algorithm × seed × variant)
grid, :class:`CampaignRunner` executes it, and
:meth:`CampaignResult.fingerprint` digests everything but wall-clock time
for determinism checks.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
import traceback
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path
from time import perf_counter
from typing import Callable, Mapping, Optional, Sequence

from repro._version import __version__
from repro.experiments.config import ExperimentConfig
from repro.faults import NULL_FAULTS
from repro.metrics.collectors import RunResult
from repro.obs.telemetry import TelemetrySnapshot

__all__ = [
    "CampaignError",
    "CampaignResult",
    "CampaignRun",
    "CampaignRunner",
    "QUARANTINE_DIR",
    "RunSpec",
    "config_hash",
    "default_cache_dir",
    "load_cached_result",
    "result_digest",
    "sweep_specs",
]

#: Bump to invalidate every existing cache entry when the stored layout or
#: the simulation semantics change without a version bump.
#: 2: submission moved to the repro.workload subsystem (new config fields).
#: 3: repro.availability subsystem (churn_model/recovery_policy fields,
#:    availability series on RunResult).
#: 4: observability layer (``telemetry`` config field enters every hash;
#:    RunResult grew a ``telemetry`` snapshot slot).
#: 5: capacity sweeps (``workload_scale`` config field enters every hash).
CACHE_SCHEMA = 5

#: A canary cell (the service benchmark's: the Fig. 4 setting on 20 nodes
#: for 2 simulated hours) and its pinned ``result_digest``.  A test replays
#: it, so a change to the simulation's output fails until ``CACHE_SCHEMA``
#: is bumped and this digest re-pinned together; without the bump a
#: persistent cache serves stale results under unchanged keys.
CANARY_CELL = {"scenario": "paper-fig4", "algorithm": "dsmf", "seed": 1,
               "n_nodes": 20, "load_factor": 1, "total_time": 2 * 3600.0}
CANARY_DIGEST = "fc6e15923d1297603f2dae3ef0517199126c62b127395b4c6de7e6de278f70c4"


def default_cache_dir() -> Path:
    """Default on-disk cache location (read per call, so tests/notebooks
    can set ``REPRO_CAMPAIGN_CACHE`` after import)."""
    return Path(os.environ.get("REPRO_CAMPAIGN_CACHE", ".repro_cache/campaign"))


#: Corrupt cache entries are moved here (under the cache dir) instead of
#: being silently shadowed — kept for postmortems, invisible to the
#: ``*.pkl`` globs of the index rebuild.
QUARANTINE_DIR = ".quarantine"


def _count(stats: "Optional[dict]", name: str, n: int = 1) -> None:
    """Increment a counter in an optional stats dict."""
    if stats is not None:
        stats[name] = stats.get(name, 0) + n


def _quarantine(path: Path, stats: "Optional[dict]" = None) -> None:
    """Move a corrupt cache entry aside and make the corruption observable."""
    qdir = path.parent / QUARANTINE_DIR
    try:
        qdir.mkdir(parents=True, exist_ok=True)
        target = qdir / path.name
        os.replace(path, target)
        moved = str(target)
    except OSError:
        # Can't move (read-only cache, races): the warning still fires.
        moved = "<unmovable>"
    _count(stats, "campaign.cache_quarantined")
    warnings.warn(
        f"quarantined corrupt cache entry {path} -> {moved}",
        RuntimeWarning,
        stacklevel=3,
    )


def load_cached_result(
    key: str,
    cache_dir: "str | os.PathLike | None" = None,
    stats: "Optional[dict]" = None,
    faults=NULL_FAULTS,
) -> Optional[RunResult]:
    """Load one cached :class:`RunResult` by its config hash.

    Returns ``None`` on a miss, an IO error, or a corrupt/foreign entry —
    the service's ``GET /results/{hash}`` route and the index rebuild both
    depend on this never raising for bad cache files.  Corrupt entries are
    *quarantined* (moved to :data:`QUARANTINE_DIR` with a
    ``RuntimeWarning`` and a counted ``campaign.cache_quarantined`` event)
    rather than silently shadowed, so a fresh write replaces them and the
    corruption stays observable.
    """
    cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    path = cache_dir / f"{key}.pkl"
    if not path.is_file():
        return None
    try:
        if faults.enabled and faults.check("cache.read") is not None:
            raise OSError(f"injected cache read error for {key}")
        with path.open("rb") as fh:
            result = pickle.load(fh)
    except OSError:
        # Transient IO failure (EIO, permissions, injection): a miss, not
        # corruption — the entry may read fine next time.
        _count(stats, "campaign.cache_read_errors")
        return None
    except Exception:
        # Corrupt/truncated entry (e.g. an interrupted writer on an old
        # layout): quarantine it and let a fresh write replace it.
        _quarantine(path, stats)
        return None
    if not isinstance(result, RunResult):
        _quarantine(path, stats)
        return None
    return result


# --------------------------------------------------------------------------
# Content hashing
# --------------------------------------------------------------------------

def _workload_path_digest(path_str: str) -> str:
    """Content digest of the file(s) behind a path-valued config field.

    Path-backed inputs (imported DAGs, submission traces, availability
    traces) must key the cache by what the files *contain*, not just
    their name — otherwise editing a file silently replays stale cached
    results.  Missing paths hash to a marker (the run itself will fail
    with the real error).
    """
    path = Path(path_str)
    h = hashlib.sha256()
    if path.is_file():
        files = [path]
    elif path.is_dir():
        files = sorted(
            p for p in path.iterdir()
            if p.suffix.lower() in (".json", ".xml", ".dax")
        )
    else:
        return "missing"
    for p in files:
        h.update(p.name.encode("utf-8"))
        h.update(p.read_bytes())
    return h.hexdigest()


def config_hash(config: "ExperimentConfig | Mapping") -> str:
    """Content hash of a resolved experiment configuration.

    Stable across processes, dict key ordering and tuple-vs-list spelling
    (JSON canonicalization), and salted with the package version plus a
    cache schema number so stored results never outlive the code that
    produced them.  When the config references workload files
    (``workload_path``), their contents are folded in too.
    """
    payload = (
        config.describe() if isinstance(config, ExperimentConfig) else dict(config)
    )
    wpath = payload.get("workload_path")
    apath = payload.get("availability_path")
    blob = json.dumps(
        {
            "schema": CACHE_SCHEMA,
            "version": __version__,
            "config": payload,
            "workload_files": _workload_path_digest(wpath) if wpath else None,
            "availability_files": _workload_path_digest(apath) if apath else None,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def result_digest(result: RunResult) -> str:
    """Deterministic digest of a run's *outcome* (wall time excluded).

    Two runs of the same config — different processes, different worker
    counts, cache hits — must produce the same digest.
    """
    payload = {
        "algorithm": result.algorithm,
        "seed": result.seed,
        "n_nodes": result.n_nodes,
        "n_workflows": result.n_workflows,
        "total_time": float(result.total_time),
        "act": float(result.act),
        "ae": float(result.ae),
        "n_done": result.n_done,
        "n_failed": result.n_failed,
        "events": result.events_executed,
        "rss_mean": float(result.rss_mean),
        "records": [
            [
                r.wid,
                r.home_id,
                r.n_tasks,
                float(r.eft),
                float(r.submit_time),
                r.status,
                None if r.completion_time is None else float(r.completion_time),
                r.failure_reason,
            ]
            for r in result.records
        ],
        "samples": [
            [
                float(s.time),
                s.throughput,
                float(s.act),
                float(s.ae),
                float(s.rss_mean),
                s.alive_nodes,
            ]
            for s in result.samples
        ],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# Specs and outcomes
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RunSpec:
    """One cell of a campaign grid: a display label plus its full config."""

    label: str
    config: ExperimentConfig


@dataclass
class CampaignRun:
    """Outcome of one campaign cell."""

    label: str
    config: ExperimentConfig
    result: RunResult
    cache_key: str
    from_cache: bool
    #: Worker-side execution seconds (0.0 for cache hits).
    wall_seconds: float
    #: Execution attempts this cell took (0 for cache hits/dedup copies,
    #: 1 for a clean run, >1 when worker-crash retries were needed).
    attempts: int = 1

    def digest(self) -> str:
        return result_digest(self.result)


@dataclass
class CampaignResult:
    """Everything a finished campaign produced, in spec order."""

    runs: list[CampaignRun]
    #: End-to-end orchestration seconds (includes cache I/O and pool setup).
    wall_seconds: float
    #: Robustness counters for *this* run() call (retries, pool rebuilds,
    #: cache read/write errors, quarantined entries) — empty on the happy
    #: path, so fingerprints and old pickles are unaffected.
    stats: dict = field(default_factory=dict)

    def __iter__(self):
        return iter(self.runs)

    def __len__(self) -> int:
        return len(self.runs)

    @property
    def n_cached(self) -> int:
        return sum(1 for r in self.runs if r.from_cache)

    def results(self) -> dict[str, RunResult]:
        """``label -> RunResult`` (labels must be unique to use this)."""
        return {r.label: r.result for r in self.runs}

    def fingerprint(self) -> str:
        """Order-sensitive digest over every run's outcome, wall excluded.

        Identical sweeps — whatever the worker count or cache state —
        yield identical fingerprints.
        """
        blob = json.dumps(
            [[r.label, r.digest()] for r in self.runs], separators=(",", ":")
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def telemetry_summary(self) -> TelemetrySnapshot:
        """Campaign-layer telemetry, plus every run snapshot folded in.

        Always returns a snapshot: the ``campaign.*`` metrics (cache
        hits/misses, worker-busy seconds, effective parallelism =
        busy/wall) exist even when per-run telemetry was off.  Run-level
        counters are summed across runs
        (:meth:`~repro.obs.telemetry.TelemetrySnapshot.merged` semantics).
        """
        snaps = [
            r.result.telemetry
            for r in self.runs
            if getattr(r.result, "telemetry", None) is not None
        ]
        merged = TelemetrySnapshot.merged(snaps) if snaps else TelemetrySnapshot(n_runs=0)
        n = len(self.runs)
        merged.counters["campaign.runs"] = float(n)
        merged.counters["campaign.cache_hits"] = float(self.n_cached)
        merged.counters["campaign.cache_misses"] = float(n - self.n_cached)
        busy = sum(r.wall_seconds for r in self.runs)
        merged.gauges["campaign.worker_busy_seconds"] = busy
        merged.gauges["campaign.wall_seconds"] = self.wall_seconds
        merged.gauges["campaign.worker_utilization"] = (
            busy / self.wall_seconds if self.wall_seconds > 0 else 0.0
        )
        merged.counters["campaign.retries"] = float(self.stats.get("campaign.retries", 0))
        for name, value in self.stats.items():
            if name != "campaign.retries":
                merged.counters[name] = float(value)
        return merged


class CampaignError(RuntimeError):
    """One or more campaign runs failed; carries every failure."""

    def __init__(self, failures: list[tuple[str, str]]):
        self.failures = failures
        lines = "\n".join(f"  [{label}] {msg.splitlines()[0]}" for label, msg in failures)
        super().__init__(f"{len(failures)} campaign run(s) failed:\n{lines}")


# --------------------------------------------------------------------------
# Sweep construction
# --------------------------------------------------------------------------

def sweep_specs(
    algorithms: Sequence[str],
    seeds: Sequence[int],
    base: Optional[ExperimentConfig] = None,
    variants: Optional[Mapping[str, Mapping]] = None,
    **overrides,
) -> list[RunSpec]:
    """Build the (algorithm × variant × seed) grid of run specs.

    Parameters
    ----------
    base:
        Starting configuration (default: Table I paper scale — pass a
        profile-scaled config for anything CI-sized).
    variants:
        Optional named config-override axis, e.g.
        ``{"static": {}, "churn": {"dynamic_factor": 0.2}}``.
    overrides:
        Applied to every cell (on top of ``base``, under ``variants``).
    """
    cfg = base if base is not None else ExperimentConfig()
    if overrides:
        cfg = cfg.with_(**overrides)
    named_variants = dict(variants) if variants else {"": {}}
    specs: list[RunSpec] = []
    seen: set[str] = set()
    for alg in algorithms:
        for vname, vover in named_variants.items():
            for seed in seeds:
                label = alg + (f"@{vname}" if vname else "") + f"#s{int(seed)}"
                if label in seen:
                    # Label-keyed consumers (results(), the bench sweeps)
                    # would silently drop the duplicate cell downstream.
                    raise ValueError(
                        f"duplicate sweep cell {label!r} — repeated "
                        "algorithm, seed, or variant name"
                    )
                seen.add(label)
                specs.append(
                    RunSpec(
                        label,
                        cfg.with_(algorithm=alg, seed=int(seed), **dict(vover)),
                    )
                )
    return specs


# --------------------------------------------------------------------------
# Execution
# --------------------------------------------------------------------------

def _default_runner(config: ExperimentConfig) -> RunResult:
    from repro.grid.system import P2PGridSystem

    return P2PGridSystem(config).run()


#: Exit status for an injected worker-process crash — distinguishable from
#: a real SIGKILL/OOM in pool stderr, identical in recovery semantics.
_CRASH_EXIT_CODE = 86

#: Ceiling on the exponential retry backoff (seconds).
_BACKOFF_CAP = 5.0


@dataclass
class _Outcome:
    index: int
    result: Optional[RunResult]
    wall: float
    error: Optional[str] = None
    #: True only for worker-*process* deaths (real or injected) — failures
    #: the retry loop may re-run.  Application exceptions from the runner
    #: are deterministic and stay non-retryable.
    retryable: bool = False
    attempts: int = 1


def _execute(item: "tuple[int, ExperimentConfig, Callable, Optional[str]]") -> _Outcome:
    """Worker entry point (module-level, hence picklable under spawn).

    ``crash`` carries a parent-side fault-plan decision: ``"exit"``
    hard-kills this worker process (pool mode — the stand-in for an OOM
    kill, breaking the whole pool), while ``"raise"`` reports a retryable
    crash outcome instead (inline mode, where ``os._exit`` would take the
    orchestrator down with it).
    """
    index, config, runner, crash = item
    if crash == "exit":  # pragma: no cover - dies before coverage flushes
        os._exit(_CRASH_EXIT_CODE)
    if crash == "raise":
        return _Outcome(
            index, None, 0.0, error="injected worker crash (inline)", retryable=True
        )
    t0 = perf_counter()
    try:
        result = runner(config)
        return _Outcome(index, result, perf_counter() - t0)
    except Exception as exc:
        return _Outcome(
            index,
            None,
            perf_counter() - t0,
            error=f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
        )


class CampaignRunner:
    """Execute a list of :class:`RunSpec`s with fan-out and caching.

    Parameters
    ----------
    jobs:
        Worker processes (1 = run inline in this process).
    cache_dir:
        Where completed results are stored (``None`` = :func:`default_cache_dir`).
    use_cache:
        Disable to force fresh runs and skip cache writes.
    runner:
        The per-config work function (module-level, picklable); injectable
        for tests.  Default builds and runs a
        :class:`~repro.grid.system.P2PGridSystem`.
    mp_context:
        multiprocessing start method (``None`` = platform default;
        ``"spawn"`` is fully supported — workers receive only picklable
        frozen configs).
    progress:
        Optional callback invoked with each finished :class:`CampaignRun`
        (cache hits included), in completion order.
    on_start:
        Optional callback invoked with ``(spec, cache_key)`` as each
        *pending* spec (cache miss) is handed to a worker — the status
        hook the service layer uses for per-config progress.  Fires again
        on retry rounds.
    max_retries:
        How many times a cell killed by a worker-*process* death (real or
        injected) is re-run before it becomes a permanent failure.
        Application exceptions raised by ``runner`` are deterministic and
        never retried.
    retry_backoff:
        Base delay (seconds) before a retry round; doubles per round,
        capped at 5 s.  Set 0 for tests.
    faults:
        A :class:`~repro.faults.FaultPlan` (default: the zero-overhead
        :data:`~repro.faults.NULL_FAULTS`).  Decisions are made
        parent-side in this single-threaded orchestrator, so a schedule
        fires deterministically regardless of pool timing or retries.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: "str | os.PathLike | None" = None,
        use_cache: bool = True,
        runner: Callable[[ExperimentConfig], RunResult] = _default_runner,
        mp_context: Optional[str] = None,
        progress: Optional[Callable[[CampaignRun], None]] = None,
        on_start: Optional[Callable[[RunSpec, str], None]] = None,
        max_retries: int = 2,
        retry_backoff: float = 0.25,
        faults=NULL_FAULTS,
        stats: Optional[dict] = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        self.jobs = jobs
        self.cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        self.use_cache = use_cache
        self.runner = runner
        self.mp_context = mp_context
        self.progress = progress
        self.on_start = on_start
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.faults = faults
        #: Cumulative robustness counters across every run() on this
        #: runner; each :class:`CampaignResult` carries its own delta in
        #: ``.stats``.  An externally-supplied dict lets the service
        #: aggregate across runners for ``/metrics``.
        self.stats: dict = {} if stats is None else stats

    # ----------------------------------------------------------------- cache
    def _cache_path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.pkl"

    def _cache_load(self, key: str) -> Optional[RunResult]:
        return load_cached_result(
            key, cache_dir=self.cache_dir, stats=self.stats, faults=self.faults
        )

    def _cache_store(self, key: str, result: RunResult) -> bool:
        """Atomically persist one result: serialize, tmp + fsync + rename.

        Returns ``False`` instead of raising on IO failure — a cache write
        error must not fail a campaign whose simulation already succeeded.
        """
        path = self._cache_path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
            if self.faults.enabled:
                if self.faults.check("cache.write") is not None:
                    raise OSError(f"injected cache write error for {key}")
                if self.faults.check("cache.corrupt") is not None:
                    # A torn writer that bypassed the tmp protocol: persist
                    # a truncated pickle for a later read to quarantine.
                    blob = blob[: max(1, len(blob) // 3)]
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            with tmp.open("wb") as fh:
                fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)  # atomic: readers never see partial files
            return True
        except OSError as exc:
            _count(self.stats, "campaign.cache_write_errors")
            warnings.warn(
                f"cache write failed for {key}: {exc}", RuntimeWarning, stacklevel=2
            )
            tmp.unlink(missing_ok=True)
            return False

    # ------------------------------------------------------------------- run
    def run(
        self, specs: Sequence[RunSpec], keys: Optional[Sequence[str]] = None
    ) -> CampaignResult:
        """Execute every spec; returns runs in spec order.

        ``keys`` are the specs' config hashes when the caller has them
        already (:func:`repro.experiments.request.execute` does); they are
        used as given, and computed here when omitted.

        Raises :class:`CampaignError` after the sweep drains if any run
        failed permanently.  Worker-*process* deaths (a broken pool) are
        retried up to ``max_retries`` times on a rebuilt pool before they
        count as failures.
        """
        t0 = perf_counter()
        stats_before = dict(self.stats)
        if keys is None:
            keys = [config_hash(s.config) for s in specs]
        elif len(keys) != len(specs):
            raise ValueError(f"{len(keys)} cache keys for {len(specs)} specs")
        runs: list[Optional[CampaignRun]] = [None] * len(specs)

        # Resolve cache hits and dedupe identical configs within the sweep.
        pending: list[int] = []
        first_index_by_key: dict[str, int] = {}
        duplicates: dict[int, int] = {}
        for i, (spec, key) in enumerate(zip(specs, keys)):
            if key in first_index_by_key:
                duplicates[i] = first_index_by_key[key]
                continue
            first_index_by_key[key] = i
            cached = self._cache_load(key) if self.use_cache else None
            if cached is not None:
                runs[i] = CampaignRun(
                    label=spec.label,
                    config=spec.config,
                    result=cached,
                    cache_key=key,
                    from_cache=True,
                    wall_seconds=0.0,
                    attempts=0,
                )
                self._notify(runs[i])
            else:
                pending.append(i)

        failures: list[tuple[str, str]] = []
        for outcome in self._execute_pending(specs, keys, pending):
            i = outcome.index
            if outcome.error is not None:
                failures.append((specs[i].label, outcome.error))
                continue
            assert outcome.result is not None
            if self.use_cache:
                self._cache_store(keys[i], outcome.result)
            runs[i] = CampaignRun(
                label=specs[i].label,
                config=specs[i].config,
                result=outcome.result,
                cache_key=keys[i],
                from_cache=False,
                wall_seconds=outcome.wall,
                attempts=outcome.attempts,
            )
            self._notify(runs[i])

        if failures:
            raise CampaignError(failures)

        # Materialize deduped cells from their primary's result.
        for i, primary in duplicates.items():
            first = runs[primary]
            assert first is not None
            runs[i] = CampaignRun(
                label=specs[i].label,
                config=specs[i].config,
                result=first.result,
                cache_key=keys[i],
                from_cache=first.from_cache,
                wall_seconds=0.0,
                attempts=0,
            )
            self._notify(runs[i])

        assert all(r is not None for r in runs)
        delta = {
            k: v - stats_before.get(k, 0)
            for k, v in self.stats.items()
            if v != stats_before.get(k, 0)
        }
        return CampaignResult(
            runs=list(runs), wall_seconds=perf_counter() - t0, stats=delta
        )

    # -------------------------------------------------------------- internals
    def _notify(self, run: CampaignRun) -> None:
        if self.progress is not None:
            self.progress(run)

    def _notify_start(self, spec: RunSpec, key: str) -> None:
        if self.on_start is not None:
            self.on_start(spec, key)

    def _make_item(self, i: int, specs, crash_mode: str):
        """Build one worker item, folding in a parent-side crash decision.

        The ``worker.crash`` check runs here — in the single-threaded
        orchestrator — so a fault schedule fires on deterministic counts
        regardless of pool scheduling, and a retried cell is a *fresh*
        eligible check (letting a plan kill the same cell repeatedly).
        """
        crash = None
        if self.faults.enabled and self.faults.check("worker.crash", key=str(i)) is not None:
            _count(self.stats, "campaign.injected_crashes")
            crash = crash_mode
        return (i, specs[i].config, self.runner, crash)

    def _execute_pending(self, specs, keys, pending: list[int]):
        """Yield one :class:`_Outcome` per pending index.

        Fault-tolerant execution: outcomes marked retryable (a worker
        *process* death, real or injected) are re-run up to
        ``max_retries`` times with exponential backoff, on a fresh pool —
        a broken pool is rebuilt between rounds instead of aborting the
        campaign.  Deterministic application exceptions from the runner
        fail immediately.  The happy path is exactly one round on exactly
        one pool, same as before the retry machinery existed.
        """
        if not pending:
            return
        attempts = dict.fromkeys(pending, 0)
        queue = list(pending)
        round_no = 0
        while queue:
            if round_no and self.retry_backoff > 0:
                time.sleep(min(self.retry_backoff * 2 ** (round_no - 1), _BACKOFF_CAP))
            use_pool = self.jobs > 1 and len(queue) > 1
            rnd = self._round_pool(specs, keys, queue) if use_pool else self._round_inline(specs, keys, queue)
            retry: list[int] = []
            for outcome in rnd:
                i = outcome.index
                attempts[i] += 1
                if (
                    outcome.error is not None
                    and outcome.retryable
                    and attempts[i] <= self.max_retries
                ):
                    _count(self.stats, "campaign.retries")
                    retry.append(i)
                    continue
                outcome.attempts = attempts[i]
                yield outcome
            queue = sorted(retry)
            round_no += 1

    def _round_inline(self, specs, keys, queue: list[int]):
        for i in queue:
            self._notify_start(specs[i], keys[i])
            # Inline mode uses the "raise" crash flavor: os._exit here
            # would kill the orchestrator itself.
            yield _execute(self._make_item(i, specs, "raise"))

    def _round_pool(self, specs, keys, queue: list[int]):
        """One submission round on a fresh process pool.

        A worker-process death poisons the whole pool: every unfinished
        future resolves to :class:`BrokenProcessPool` and later submits
        raise it too.  Each affected cell becomes a retryable outcome;
        the next round gets a rebuilt pool.
        """
        ctx = get_context(self.mp_context) if self.mp_context else None
        pool = ProcessPoolExecutor(max_workers=min(self.jobs, len(queue)), mp_context=ctx)
        broke = False
        try:
            futures: dict = {}
            unsubmitted: list[tuple[int, BaseException]] = []
            for i in queue:
                item = self._make_item(i, specs, "exit")
                self._notify_start(specs[i], keys[i])
                try:
                    futures[pool.submit(_execute, item)] = i
                except BrokenProcessPool as exc:
                    unsubmitted.append((i, exc))
            for fut in as_completed(futures):
                i = futures[fut]
                exc = fut.exception()
                if exc is None:
                    yield fut.result()
                    continue
                retryable = isinstance(exc, BrokenProcessPool)
                if retryable and not broke:
                    broke = True
                    _count(self.stats, "campaign.pool_rebuilds")
                yield _Outcome(
                    i, None, 0.0,
                    error=f"{type(exc).__name__}: {exc}",
                    retryable=retryable,
                )
            for i, exc in unsubmitted:
                if not broke:
                    broke = True
                    _count(self.stats, "campaign.pool_rebuilds")
                yield _Outcome(
                    i, None, 0.0,
                    error=f"{type(exc).__name__}: {exc}",
                    retryable=True,
                )
        finally:
            pool.shutdown()
