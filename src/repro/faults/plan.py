"""Deterministic, seeded fault injection for the campaign/service stack.

The simulation itself survives node churn by design (the paper's
scheduler; ``repro.availability``).  This module exists to prove the
*infrastructure around* the simulation — the campaign runner's process
pool, the content-addressed cache, the experiment index, the HTTP
service — absorbs transient faults the same way, instead of turning one
OOM-killed worker into a permanently failed sweep cell.

Design constraints (mirroring :data:`~repro.obs.telemetry.NULL_TELEMETRY`):

* **Zero overhead and zero RNG when disabled.**  Every injection point
  holds either a :class:`FaultPlan` or the shared :data:`NULL_FAULTS`
  null object and guards with one ``faults.enabled`` attribute check.
  ``NULL_FAULTS`` draws nothing and allocates nothing, so all golden
  fingerprints stay bit-identical with injection compiled out.
* **Deterministic when enabled.**  A plan is a fixed schedule of
  :class:`FaultSpec`\\ s — *the Nth eligible invocation at this site
  fires* — so a chaos test replays the exact same fault sequence every
  run.  :meth:`FaultPlan.seeded` derives a schedule from a seed via a
  private ``random.Random`` (never the simulation's RNG streams).
* **Faults are injected, recovery is real.**  A plan only decides *when*
  something breaks; the breakage itself (a worker ``os._exit``, an
  ``OSError`` from the cache, a torn journal line, a dropped connection)
  exercises the production recovery paths, not mocks of them.

Sites (see :data:`SITES`):

========================  ====================================================
``worker.crash``          campaign worker process dies mid-cell (``os._exit``
                          under a process pool; a retryable crash marker when
                          running inline)
``cache.read``            ``OSError`` while reading a cached result
``cache.write``           ``OSError`` while writing a cached result
``cache.corrupt``         the cached pickle is written truncated (a torn
                          writer), to be quarantined by a later read
``index.append``          an experiment-index or run-journal append tears
                          mid-line (the service journal never checks it)
``http.reset``            the service drops the connection before responding
``http.slow``             the service stalls ``delay`` seconds before
                          responding
========================  ====================================================
"""

from __future__ import annotations

import json
import random
import threading
from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "NULL_FAULTS",
    "FaultPlan",
    "FaultSpec",
    "NullFaultPlan",
    "SITES",
    "load_fault_plan",
]

#: Every injection point the plane knows about.
SITES = (
    "worker.crash",
    "cache.read",
    "cache.write",
    "cache.corrupt",
    "index.append",
    "http.reset",
    "http.slow",
)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: *fire at the Nth eligible check of a site*.

    ``at`` is 1-based; ``count`` consecutive checks starting there all
    fire.  A spec with ``key`` set is only eligible for checks carrying
    that context key (e.g. the sweep-cell index for ``worker.crash``) and
    is counted on the per-key counter; an unkeyed spec counts every check
    of its site.  ``delay`` parameterizes ``http.slow``.
    """

    site: str
    at: int = 1
    count: int = 1
    key: Optional[str] = None
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(
                f"unknown fault site {self.site!r} (expected one of {', '.join(SITES)})"
            )
        if self.at < 1:
            raise ValueError("FaultSpec.at is 1-based and must be >= 1")
        if self.count < 1:
            raise ValueError("FaultSpec.count must be >= 1")
        if self.delay < 0:
            raise ValueError("FaultSpec.delay must be >= 0")

    def to_dict(self) -> dict:
        out: dict = {"site": self.site, "at": self.at}
        if self.count != 1:
            out["count"] = self.count
        if self.key is not None:
            out["key"] = self.key
        if self.delay:
            out["delay"] = self.delay
        return out

    @classmethod
    def from_dict(cls, payload: Mapping) -> "FaultSpec":
        unknown = set(payload) - {"site", "at", "count", "key", "delay"}
        if unknown:
            raise ValueError(f"unknown FaultSpec field(s): {sorted(unknown)}")
        return cls(
            site=str(payload["site"]),
            at=int(payload.get("at", 1)),
            count=int(payload.get("count", 1)),
            key=None if payload.get("key") is None else str(payload["key"]),
            delay=float(payload.get("delay", 0.0)),
        )


class FaultPlan:
    """A deterministic schedule of faults, checked at injection sites.

    Thread-safe: the service checks ``http.*`` sites from handler
    threads.  Counters are mutable — a plan instance represents one
    chaos run; build a fresh plan (same specs) to replay the schedule.
    """

    enabled = True

    def __init__(self, specs: Iterable[FaultSpec] = ()):
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise TypeError(f"FaultPlan takes FaultSpecs, got {type(spec).__name__}")
        self._by_site: dict = {}
        for spec in self.specs:
            self._by_site.setdefault(spec.site, []).append(spec)
        self._counts: dict = {}
        #: Every fault that actually fired: ``(site, key, invocation_n)``.
        self.fired: List[Tuple[str, Optional[str], int]] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------- checking
    def check(self, site: str, key: Optional[str] = None) -> Optional[FaultSpec]:
        """Count one eligible invocation at ``site``; return the spec that
        fires on it, or ``None``.  The caller performs the actual damage
        (raise, exit, tear, stall) so recovery code sees real failures."""
        specs = self._by_site.get(site)
        with self._lock:
            n_global = self._counts[site, None] = self._counts.get((site, None), 0) + 1
            n_keyed = 0
            if key is not None:
                n_keyed = self._counts[site, key] = self._counts.get((site, key), 0) + 1
            if not specs:
                return None
            for spec in specs:
                if spec.key is None:
                    n = n_global
                elif spec.key == key:
                    n = n_keyed
                else:
                    continue
                if spec.at <= n < spec.at + spec.count:
                    self.fired.append((site, key, n))
                    return spec
        return None

    def fired_count(self, site: Optional[str] = None) -> int:
        """How many faults fired (optionally at one site) — the chaos
        suite's way of asserting a schedule actually ran."""
        with self._lock:
            if site is None:
                return len(self.fired)
            return sum(1 for s, _, _ in self.fired if s == site)

    # -------------------------------------------------------- construction
    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        worker_crashes: int = 0,
        cache_read_errors: int = 0,
        cache_write_errors: int = 0,
        cache_corruptions: int = 0,
        torn_appends: int = 0,
        connection_resets: int = 0,
        slow_responses: int = 0,
        horizon: int = 8,
        slow_delay: float = 0.05,
    ) -> "FaultPlan":
        """Derive a deterministic schedule from ``seed``.

        Each requested fault lands on a distinct invocation count in
        ``[1, horizon]`` of its site, drawn from a private
        ``random.Random(seed)`` — same seed, same schedule, no
        interaction with any simulation RNG stream.
        """
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        rng = random.Random(seed)
        wanted = (
            ("worker.crash", worker_crashes, {}),
            ("cache.read", cache_read_errors, {}),
            ("cache.write", cache_write_errors, {}),
            ("cache.corrupt", cache_corruptions, {}),
            ("index.append", torn_appends, {}),
            ("http.reset", connection_resets, {}),
            ("http.slow", slow_responses, {"delay": slow_delay}),
        )
        specs: list[FaultSpec] = []
        for site, n, extra in wanted:
            if n < 0:
                raise ValueError(f"negative fault count for {site}")
            if n > horizon:
                raise ValueError(
                    f"{n} {site} faults cannot fit in a horizon of {horizon} checks"
                )
            for at in sorted(rng.sample(range(1, horizon + 1), n)):
                specs.append(FaultSpec(site=site, at=at, **extra))
        return cls(specs)

    # ------------------------------------------------------- serialisation
    def to_dict(self) -> dict:
        return {"schema": 1, "specs": [spec.to_dict() for spec in self.specs]}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "FaultPlan":
        if payload.get("schema") != 1:
            raise ValueError(f"unknown fault-plan schema {payload.get('schema')!r}")
        specs = payload.get("specs")
        if not isinstance(specs, Sequence) or isinstance(specs, (str, bytes)):
            raise ValueError("fault plan needs a 'specs' array")
        return cls(FaultSpec.from_dict(s) for s in specs)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------- pickling
    def __getstate__(self) -> dict:
        # Locks don't pickle; a copy starts with fresh counters (a plan's
        # mutable state is per-chaos-run, decisions stay parent-side).
        return {"specs": self.specs}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["specs"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sites = ", ".join(f"{s.site}@{s.at}" for s in self.specs) or "empty"
        return f"FaultPlan({sites})"


class NullFaultPlan:
    """Injection disabled: one attribute check, no counters, no RNG."""

    __slots__ = ()
    enabled = False
    specs: Tuple[FaultSpec, ...] = ()
    fired: Tuple = ()

    def check(self, site: str, key: Optional[str] = None) -> None:
        return None

    def fired_count(self, site: Optional[str] = None) -> int:
        return 0


#: Shared null instance — safe because it is stateless.
NULL_FAULTS = NullFaultPlan()


def load_fault_plan(path) -> FaultPlan:
    """Read a JSON fault plan (the ``--inject-faults`` CLI entry point)."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
    try:
        return FaultPlan.from_dict(payload)
    except (TypeError, ValueError, KeyError) as exc:
        raise ValueError(f"{path}: invalid fault plan: {exc}") from None
