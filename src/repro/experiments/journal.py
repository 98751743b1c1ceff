"""Crash-safe JSON-lines logs, and the run journal behind ``--resume``.

:class:`JsonlLog` is the one durable append log in the package: the run
journal below, the service submission journal
(:mod:`repro.service.journal`) and the experiment index
(:mod:`repro.service.index`) are all built on it and add only what their
records mean.  One JSON object per line, flushed and fsynced per record,
so a ``SIGKILL`` can lose at most the record being written and never
corrupts earlier ones.

The run journal (``repro campaign --resume`` / ``repro sweep --resume``):
a multi-hour campaign killed at cell 37/48 should not restart from cell
one.  The cache already guarantees the *results* survive (each finished
cell is an atomically-written ``<hash>.pkl``); what a crash loses is the
*bookkeeping* — which cells of which request were done, and what their
digests were.  The journal persists exactly that:

``begin``
    opens a journal: the request's *identity hash* (a content hash of the
    ordered cell labels + config hashes, so ``--resume`` refuses a
    journal from a different request) plus a human-readable request echo.
``done``
    one per finished cell: config hash, label, result digest.
``finish``
    the campaign completed; carries the final fingerprint.

Resume = load the journal, verify identity, re-run the same request
against the same cache: journaled-done cells replay as cache hits (no
re-execution), and their digests are checked against the journaled ones —
a mismatch means the cache changed identity mid-campaign and is an error,
not a warning.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Optional

from repro.faults import NULL_FAULTS

__all__ = ["JournalState", "JsonlLog", "RunJournal", "request_identity"]

JOURNAL_SCHEMA = 1


def request_identity(kind: str, payload) -> str:
    """Content hash identifying one campaign/sweep request.

    For a campaign, ``payload`` is the ordered ``(label, config_hash)``
    grid — covering the algorithms, seeds, scenario, overrides, code
    version, and cache schema (all folded into each config hash), plus
    the grid order.  For a sweep it is the JSON request dict.
    """
    blob = json.dumps([kind, payload], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class JournalState:
    """What a loaded journal says happened so far."""

    kind: str
    identity: str
    request: dict
    #: config_hash -> result digest for every journaled-done cell.
    done: dict = field(default_factory=dict)
    finished: bool = False
    fingerprint: Optional[str] = None
    #: Unparseable lines skipped on load (torn tail writes).
    skipped_lines: int = 0


class JsonlLog:
    """One thread-safe, crash-safe JSON-lines file.

    * :meth:`append` writes one ``sort_keys`` compact JSON line, then
      flushes and fsyncs it, under a lock.  The file opens lazily, and a
      torn tail (a crash mid-write left no trailing newline) is
      terminated once per open, so the next record starts on its own line.
    * An append never raises ``OSError`` (a real ``ENOSPC``/``EIO``, or an
      injected ``index.append`` tear from ``faults``): it is counted in
      :attr:`append_errors`, the handle is dropped, and the next append
      reopens the file and repairs its tail.  Callers keep their
      in-memory state either way.
    * :meth:`records` yields every line that parses to a JSON object and
      counts the rest (torn or foreign lines) in :attr:`skipped_lines`;
      subclasses add their own rejects to the same count.

    The lock is reentrant so a subclass can hold it across an append and
    the in-memory update that must stay in the same order.
    """

    def __init__(self, path: "str | os.PathLike", faults=NULL_FAULTS):
        self.path = Path(path)
        self.faults = faults
        self._lock = threading.RLock()
        self._fh = None
        #: Appends that failed with an IO error (torn writes).
        self.append_errors = 0
        #: Lines :meth:`records` (or a subclass) could not use.
        self.skipped_lines = 0

    def records(self) -> Iterator[dict]:
        """Yield each JSON-object line in file order (nothing if absent)."""
        if not self.path.is_file():
            return
        with self.path.open("r", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except ValueError:
                    self.skipped_lines += 1
                    continue
                if isinstance(rec, dict):
                    yield rec
                else:
                    self.skipped_lines += 1

    def _handle(self):
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = fh = self.path.open("ab+")
            if fh.seek(0, os.SEEK_END) > 0:
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    fh.write(b"\n")
        return self._fh

    def _drop(self) -> None:
        if self._fh is not None:
            fh, self._fh = self._fh, None
            try:
                fh.close()
            except OSError:  # pragma: no cover - double-fault close
                pass

    def append(self, record: Mapping) -> None:
        """Durably append one record; an IO error is counted, not raised."""
        line = json.dumps(dict(record), sort_keys=True, separators=(",", ":"))
        with self._lock:
            try:
                fh = self._handle()
                if self.faults.enabled and self.faults.check("index.append") is not None:
                    # A torn write: half the line lands on disk, no newline,
                    # and the writer sees an IO error — exactly what a crash
                    # or full disk leaves behind.
                    fh.write(line[: max(1, len(line) // 2)].encode("utf-8"))
                    fh.flush()
                    raise OSError("injected torn append")
                fh.write(line.encode("utf-8") + b"\n")
                fh.flush()
                os.fsync(fh.fileno())
            except OSError:
                self.append_errors += 1
                self._drop()

    def close(self) -> None:
        with self._lock:
            self._drop()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class RunJournal(JsonlLog):
    """Append-side journal handle for one campaign/sweep process.

    ``faults`` may inject ``index.append`` tears; recovery is the same
    code path a real ``ENOSPC`` would take (see :class:`JsonlLog`).
    """

    def begin(self, kind: str, identity: str, request: Mapping) -> None:
        self.append(
            {
                "event": "begin",
                "schema": JOURNAL_SCHEMA,
                "kind": kind,
                "identity": identity,
                "request": dict(request),
            }
        )

    def record_done(self, key: str, label: str, digest: str) -> None:
        self.append({"event": "done", "key": key, "label": label, "digest": digest})

    def finish(self, fingerprint: str) -> None:
        self.append({"event": "finish", "fingerprint": fingerprint})

    @staticmethod
    def load(path: "str | os.PathLike") -> Optional[JournalState]:
        """Parse a journal; ``None`` if it doesn't exist or has no valid
        ``begin`` record.  Corrupt lines (torn tails) are skipped, and a
        later ``begin`` resets the state (a resumed run re-begins)."""
        log = JsonlLog(path)
        state: Optional[JournalState] = None
        for rec in log.records():
            event = rec.get("event")
            if event == "begin":
                if (
                    rec.get("schema") == JOURNAL_SCHEMA
                    and isinstance(rec.get("kind"), str)
                    and isinstance(rec.get("identity"), str)
                ):
                    # Done cells carry across a re-begin only when it is
                    # the *same* request resuming.
                    done = (
                        state.done
                        if state is not None and state.identity == rec["identity"]
                        else {}
                    )
                    state = JournalState(
                        kind=rec["kind"],
                        identity=rec["identity"],
                        request=dict(rec.get("request") or {}),
                        done=done,
                    )
                else:
                    log.skipped_lines += 1
            elif state is None:
                log.skipped_lines += 1
            elif event == "done":
                key, digest = rec.get("key"), rec.get("digest")
                if isinstance(key, str) and isinstance(digest, str):
                    state.done[key] = digest
                else:
                    log.skipped_lines += 1
            elif event == "finish":
                state.finished = True
                fp = rec.get("fingerprint")
                state.fingerprint = fp if isinstance(fp, str) else None
            else:
                log.skipped_lines += 1
        if state is not None:
            state.skipped_lines = log.skipped_lines
        return state
