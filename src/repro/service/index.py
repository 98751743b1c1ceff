"""Persistent experiment index: a crash-safe JSON-lines journal.

Every run the service completes is appended to an on-disk journal (a
:class:`~repro.experiments.journal.JsonlLog`, so a crash can lose at most
the record being written — never corrupt earlier ones).  On
startup the index reloads the journal *and* rebuilds entries for any
cached result the journal does not know about (e.g. runs produced by the
CLI against the same cache directory, or a journal lost to a disk swap),
so ``GET /experiments`` always reflects the content-addressed cache.

Listing semantics: one entry per distinct config hash (the latest record
wins), in first-seen order — resubmitting a manifest refreshes an entry
rather than duplicating it.
"""

from __future__ import annotations

import os
import pickle
import re
import time
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Optional

from repro.experiments.journal import JsonlLog
from repro.faults import NULL_FAULTS

if TYPE_CHECKING:  # pragma: no cover
    from repro.metrics.collectors import RunResult

__all__ = ["ExperimentIndex", "entry_from_result"]

_HASH_RE = re.compile(r"^[0-9a-f]{64}$")


def entry_from_result(
    config_hash: str,
    result: "RunResult",
    label: Optional[str] = None,
    campaign_id: Optional[str] = None,
    source: str = "run",
    from_cache: bool = False,
    recorded_at: Optional[float] = None,
    digest: Optional[str] = None,
) -> dict:
    """Build one index entry (a flat JSON-safe summary) for a finished run.

    ``digest`` is the run's result digest; a restarted service checks the
    cells it replays against it.
    """
    config = result.config if isinstance(result.config, Mapping) else {}
    return {
        "config_hash": config_hash,
        "label": label,
        "campaign_id": campaign_id,
        "source": source,
        "from_cache": bool(from_cache),
        "algorithm": result.algorithm,
        "seed": result.seed,
        "scenario": config.get("scenario"),
        "n_nodes": result.n_nodes,
        "n_workflows": result.n_workflows,
        "n_done": result.n_done,
        "n_failed": result.n_failed,
        "act": float(result.act),
        "ae": float(result.ae),
        "total_time": float(result.total_time),
        "recorded_at": time.time() if recorded_at is None else float(recorded_at),
        "digest": digest,
    }


class ExperimentIndex(JsonlLog):
    """Thread-safe persistent index of completed experiments."""

    def __init__(self, path: "str | os.PathLike", faults=NULL_FAULTS):
        super().__init__(path, faults)
        #: config_hash -> latest entry; insertion order = first-seen order.
        self._entries: dict[str, dict] = {}
        for entry in self.records():
            if isinstance(entry.get("config_hash"), str):
                self._entries[entry["config_hash"]] = entry
            else:
                self.skipped_lines += 1

    def record(self, entry: Mapping) -> None:
        """Append one entry to the journal and the listing.

        A failed append (see :class:`~repro.experiments.journal.JsonlLog`)
        is counted in ``append_errors`` and never loses the in-memory entry.
        """
        entry = dict(entry)
        if not isinstance(entry.get("config_hash"), str):
            raise ValueError("index entries need a string config_hash")
        with self._lock:
            self.append(entry)
            self._entries[entry["config_hash"]] = entry

    def entries(self) -> list[dict]:
        """Latest entry per config hash, in first-seen order (copies)."""
        with self._lock:
            return [dict(e) for e in self._entries.values()]

    def digests(self) -> dict[str, str]:
        """config_hash -> the result digest last recorded for it."""
        with self._lock:
            return {
                key: entry["digest"]
                for key, entry in self._entries.items()
                if isinstance(entry.get("digest"), str)
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, config_hash: str) -> bool:
        with self._lock:
            return config_hash in self._entries

    # ------------------------------------------------------------- rebuild
    def rebuild_from_cache(self, cache_dir: "str | os.PathLike") -> int:
        """Index every cached result the journal doesn't already list.

        Scans ``cache_dir`` for content-addressed ``<hash>.pkl`` entries
        (the :class:`~repro.experiments.campaign.CampaignRunner` layout)
        and appends an entry per unknown hash.  Unreadable or foreign
        pickles are skipped — a rebuild must never take the service down.
        Returns the number of entries added.
        """
        from repro.metrics.collectors import RunResult

        cache_dir = Path(cache_dir)
        if not cache_dir.is_dir():
            return 0
        added = 0
        for path in sorted(cache_dir.glob("*.pkl")):
            key = path.stem
            if not _HASH_RE.match(key) or key in self:
                continue
            try:
                with path.open("rb") as fh:
                    result = pickle.load(fh)
            except Exception:
                continue
            if not isinstance(result, RunResult):
                continue
            self.record(
                entry_from_result(
                    key,
                    result,
                    source="cache-rebuild",
                    from_cache=True,
                    recorded_at=path.stat().st_mtime,
                )
            )
            added += 1
        return added
