"""Service stack under injected faults: dropped connections, slow
responses, bounded-queue overload, torn index appends, an unwritable
submission journal, and restart resume from the submission journal."""

from __future__ import annotations

import copy
import http.client
import json
import time
import urllib.request

import pytest

from chaos_helpers import TINY_MANIFEST
from repro.faults import FaultPlan, FaultSpec
from repro.service.client import ServiceError


def tiny_manifest(**overrides) -> dict:
    manifest = copy.deepcopy(TINY_MANIFEST)
    manifest["overrides"].update(overrides)
    return manifest


# --------------------------------------------------------------------------
# Connection-level faults
# --------------------------------------------------------------------------

class TestConnectionFaults:
    def test_reset_retried_by_client(self, make_service):
        plan = FaultPlan([FaultSpec("http.reset", at=1)])
        server, client = make_service(client_retries=2, faults=plan)
        record = client.health()  # first attempt reset, retry succeeds
        assert record["status"] == "ok"
        assert plan.fired_count("http.reset") == 1

    def test_reset_without_retries_surfaces(self, make_service):
        plan = FaultPlan([FaultSpec("http.reset", at=1)])
        server, client = make_service(client_retries=0, faults=plan)
        with pytest.raises((OSError, http.client.HTTPException)):
            client.health()
        # The server carried on: the next request answers normally.
        assert client.health()["status"] == "ok"

    def test_slow_response_stalls_then_answers(self, make_service):
        plan = FaultPlan([FaultSpec("http.slow", at=1, delay=0.3)])
        server, client = make_service(client_retries=0, faults=plan)
        t0 = time.monotonic()
        assert client.health()["status"] == "ok"
        assert time.monotonic() - t0 >= 0.25
        assert client.health()  # only the scheduled request stalls
        assert plan.fired_count("http.slow") == 1


# --------------------------------------------------------------------------
# Bounded queue: 429 + Retry-After
# --------------------------------------------------------------------------

class TestOverload:
    def test_full_queue_answers_429_with_retry_after(self, make_service):
        server, client = make_service(client_retries=0, max_pending=1)
        first = client.submit(tiny_manifest(total_time=12 * 3600.0))
        with pytest.raises(ServiceError) as err:
            client.submit({**tiny_manifest(), "seeds": [6]})
        assert err.value.status == 429
        assert err.value.code == "queue-full"
        assert err.value.retry_after is not None and err.value.retry_after > 0
        # Once the backlog drains, the same submission is accepted.
        client.wait(first["id"], timeout=60.0, poll=1.0)
        accepted = client.submit({**tiny_manifest(), "seeds": [6]})
        assert accepted["status"] in ("queued", "running")

    def test_retrying_client_rides_out_the_429(self, make_service):
        server, client = make_service(client_retries=6, max_pending=1)
        client.backoff = 0.2
        first = client.submit(tiny_manifest(total_time=12 * 3600.0))
        # Submitted while the queue is full: the client honors Retry-After
        # and lands the manifest once the first campaign finishes.
        second = client.submit({**tiny_manifest(), "seeds": [7]})
        assert second["id"] != first["id"]
        done = client.wait(second["id"], timeout=60.0, poll=1.0)
        assert done["status"] == "done"


# --------------------------------------------------------------------------
# Torn index appends behind the live service
# --------------------------------------------------------------------------

class TestTornIndex:
    def test_index_append_tear_recovers(self, make_service, tmp_path):
        plan = FaultPlan([FaultSpec("index.append", at=1)])
        server, client = make_service(client_retries=1, faults=plan)
        record = client.submit(tiny_manifest())
        assert client.wait(record["id"], timeout=60.0, poll=1.0)["status"] == "done"
        assert plan.fired_count("index.append") == 1
        assert server.state.index.append_errors == 1
        # The in-memory listing kept the entry despite the torn journal.
        assert len(client.experiments()) == 1
        metrics = client.metrics()
        assert "repro_index_append_errors_total 1" in metrics
        assert "repro_faults_injected_total" in metrics


class TestUnwritableJournal:
    def test_failed_journal_appends_are_counted(self, make_service, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")  # the journal's parent directory is a file
        server, client = make_service(
            client_retries=1, journal_path=blocker / "service.jsonl"
        )
        request = urllib.request.Request(
            client.base_url + "/campaigns",
            data=json.dumps(tiny_manifest()).encode("utf-8"),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=15.0) as response:
            assert response.status == 202
            record = json.loads(response.read())
        assert client.wait(record["id"], timeout=60.0, poll=1.0)["status"] == "done"
        # The worker journals `finished` just after the status turns done;
        # joining it orders that append before the checks below.
        server.state.queue.stop()
        # Both the `submitted` and the `finished` append failed.
        assert server.state.journal.append_errors == 2
        assert "repro_journal_append_errors_total 2" in client.metrics()


# --------------------------------------------------------------------------
# Restart resume from the submission journal
# --------------------------------------------------------------------------

class TestRestartResume:
    def test_journaled_unfinished_campaign_resumes(self, make_service, tmp_path):
        journal_path = tmp_path / "service.jsonl"
        # A previous process accepted this campaign and was killed before
        # finishing it: the journal has `submitted` with no `finished`.
        journal_path.write_text(
            json.dumps(
                {
                    "event": "submitted",
                    "id": "c000001",
                    "kind": "campaign",
                    "manifest": tiny_manifest(),
                }
            )
            + "\n"
        )
        server, client = make_service(client_retries=1, journal_path=journal_path)
        assert client.health()["resumed_campaigns"] == 1
        record = client.wait("c000001", timeout=60.0, poll=1.0)
        assert record["status"] == "done"
        assert record["resumed"] is True
        assert "repro_service_resumed_campaigns_total 1" in client.metrics()
        # New ids are seeded past the journaled one — never reissued.
        fresh = client.submit({**tiny_manifest(), "seeds": [8]})
        assert fresh["id"] == "c000002"
        assert fresh["resumed"] is False
        # The finish was journaled: a third boot replays nothing.
        client.wait("c000002", timeout=60.0, poll=1.0)

    @pytest.mark.parametrize("edited, status", [(False, "done"), (True, "failed")])
    def test_resumed_campaign_checks_replayed_digests(
        self, make_service, tmp_path, edited, status
    ):
        """A restarted service replays a journaled campaign's finished
        cells from cache and checks each against the result digest the
        experiment index recorded, as ``repro campaign --resume`` does."""
        journal_path = tmp_path / "service.jsonl"
        index_path = tmp_path / "cache" / "experiments.jsonl"
        server, client = make_service(client_retries=1, journal_path=journal_path)
        primed = client.submit(tiny_manifest())
        assert client.wait(primed["id"], timeout=60.0, poll=1.0)["status"] == "done"
        server.shutdown()
        server.server_close()
        server.state.close()

        # A killed process left a campaign over the primed cell unfinished.
        with journal_path.open("a") as fh:
            fh.write(json.dumps({
                "event": "submitted", "id": "c000009", "kind": "campaign",
                "manifest": tiny_manifest(),
            }) + "\n")
        [entry] = [json.loads(line) for line in index_path.read_text().splitlines()]
        if edited:
            entry["digest"] = "0" * 64
        index_path.write_text(json.dumps(entry) + "\n")

        server, client = make_service(client_retries=1, journal_path=journal_path)
        record = client.wait("c000009", timeout=60.0, poll=1.0)
        assert record["resumed"] is True
        assert record["n_cached"] == 1
        assert record["status"] == status, record
        assert ("diverged" in (record["error"] or "")) is edited

    def test_replayed_failures_count_toward_retention(
        self, make_service, tmp_path, monkeypatch
    ):
        """Campaigns the replay marks failed are finished campaigns too:
        past ``MAX_FINISHED`` the oldest of them is forgotten."""
        from repro.service import queue as queue_module

        monkeypatch.setattr(queue_module, "MAX_FINISHED", 2)
        journal_path = tmp_path / "service.jsonl"
        journal_path.write_text("".join(
            json.dumps({
                "event": "submitted", "id": cid, "kind": "campaign",
                "manifest": {"algorithms": ["no-such-algorithm"]},
            }) + "\n"
            for cid in ("c000001", "c000002", "c000003")
        ))
        server, client = make_service(client_retries=0, journal_path=journal_path)
        with pytest.raises(ServiceError) as err:
            client.campaign("c000001")
        assert err.value.status == 404
        assert [(c["id"], c["status"]) for c in client.campaigns()] == [
            ("c000002", "failed"), ("c000003", "failed")
        ]

    def test_invalid_journaled_manifest_fails_cleanly(self, make_service, tmp_path):
        journal_path = tmp_path / "service.jsonl"
        journal_path.write_text(
            json.dumps(
                {
                    "event": "submitted",
                    "id": "c000003",
                    "kind": "campaign",
                    "manifest": {"algorithms": ["no-such-algorithm"], "seeds": [1]},
                }
            )
            + "\n"
        )
        server, client = make_service(client_retries=1, journal_path=journal_path)
        record = client.campaign("c000003")
        assert record["status"] == "failed"
        assert "no longer valid" in record["error"]
        # ... and the failure was journaled, so it won't replay again.
        from repro.service.journal import ServiceJournal

        server.state.close()
        reloaded = ServiceJournal(journal_path)
        assert reloaded.unfinished == []
        reloaded.close()
