"""Service submission journal: campaigns survive a server kill.

The queue executes serially, so a ``SIGKILL`` (OOM, deploy, power loss)
can strand two kinds of campaigns: queued-but-unstarted ones and the one
in flight.  Both are recoverable — every submitted manifest was validated
before it was accepted, and every *finished cell* of the in-flight
campaign is already in the content-addressed cache — all that dies with
the process is the submission bookkeeping.  This journal persists it:

``submitted``
    one per accepted manifest (id, kind, manifest), durable on disk before
    the client sees its 202 — an id handed out is an id that survives.
``finished``
    one per terminal transition (``done``/``failed``).

On restart the queue replays the journal: every submitted-but-unfinished
campaign is recreated under its **original id** (clients polling that id
just see it go ``queued -> running -> done`` again) and re-enqueued in
submission order.  Re-executing the in-flight campaign is safe because
cells are cached exactly-once by config hash: journaled-done cells replay
as cache hits, only the genuinely unfinished tail runs.

Durability, torn tails and failed appends are
:class:`~repro.experiments.journal.JsonlLog`'s.  This journal never takes
a fault plan: the ``index.append`` site belongs to the index and the run
journal.
"""

from __future__ import annotations

import os
import re
from typing import Mapping

from repro.experiments.journal import JsonlLog

__all__ = ["ServiceJournal"]

_ID_RE = re.compile(r"^c(\d{6,})$")


class ServiceJournal(JsonlLog):
    """Thread-safe append journal of campaign submissions and completions."""

    def __init__(self, path: "str | os.PathLike"):
        super().__init__(path)
        #: Highest numeric campaign id seen in the journal — the queue
        #: seeds its sequence past it so resumed ids are never reissued.
        self.max_seq = 0
        open_by_id: dict[str, dict] = {}
        for rec in self.records():
            cid = rec.get("id")
            if not isinstance(cid, str):
                self.skipped_lines += 1
                continue
            m = _ID_RE.match(cid)
            if m:
                self.max_seq = max(self.max_seq, int(m.group(1)))
            event = rec.get("event")
            if event == "submitted" and isinstance(rec.get("manifest"), dict):
                open_by_id[cid] = {
                    "id": cid,
                    "kind": rec.get("kind") or "campaign",
                    "manifest": rec["manifest"],
                }
            elif event == "finished":
                open_by_id.pop(cid, None)
            else:
                self.skipped_lines += 1
        #: Submission-ordered ``{"id", "kind", "manifest"}`` for every
        #: campaign with no terminal record.
        self.unfinished: list[dict] = list(open_by_id.values())

    def submitted(self, cid: str, kind: str, manifest: Mapping) -> None:
        self.append(
            {"event": "submitted", "id": cid, "kind": kind, "manifest": dict(manifest)}
        )

    def finished(self, cid: str, status: str) -> None:
        self.append({"event": "finished", "id": cid, "status": status})
