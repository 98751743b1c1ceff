"""Crash-safety tests for the durable JSONL logs: the shared
:class:`JsonlLog` contract, checked once over all three logs built on it
(the campaign/sweep run journal, the service submission journal and the
experiment index), plus each journal's own record semantics."""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.experiments.journal import JsonlLog, RunJournal, request_identity
from repro.faults import FaultPlan, FaultSpec
from repro.service.index import ExperimentIndex
from repro.service.journal import ServiceJournal

H1 = "a" * 64
H2 = "b" * 64


def _run_view(path):
    state = RunJournal.load(path)
    return state.done, state.skipped_lines


def _service_view(path):
    with ServiceJournal(path) as journal:
        return [rec["id"] for rec in journal.unfinished], journal.skipped_lines


def _index_view(path):
    with ExperimentIndex(path) as index:
        return [e["config_hash"] for e in index.entries()], index.skipped_lines


@pytest.mark.parametrize(
    "open_log, write_first, torn, write_next, view, before, after",
    [
        pytest.param(
            RunJournal,
            lambda log: (log.begin("campaign", "id", {}), log.record_done("h1", "a", "d1")),
            '{"event":"done","key":"h2"',
            lambda log: log.record_done("h3", "c", "d3"),
            _run_view,
            {"h1": "d1"},
            {"h1": "d1", "h3": "d3"},
            id="run-journal",
        ),
        pytest.param(
            ServiceJournal,
            lambda log: log.submitted("c000001", "campaign", {"a": 1}),
            '{"event":"submitted","id":"c0000',
            lambda log: log.finished("c000001", "done"),
            _service_view,
            ["c000001"],
            [],
            id="service-journal",
        ),
        pytest.param(
            ExperimentIndex,
            lambda log: log.record({"config_hash": H1, "act": 1.0}),
            '{"config_hash": "cafe',
            lambda log: log.record({"config_hash": H2, "act": 1.0}),
            _index_view,
            [H1],
            [H1, H2],
            id="index",
        ),
    ],
)
def test_torn_tail_is_skipped_and_repaired(
    tmp_path, open_log, write_first, torn, write_next, view, before, after
):
    path = tmp_path / "log.jsonl"
    with open_log(path) as log:
        write_first(log)
    # Simulate a writer killed mid-append: half a record, no newline.
    with path.open("a") as fh:
        fh.write(torn)
    assert view(path) == (before, 1)
    # A reopened writer terminates the torn tail before appending, so the
    # new record lands on its own parseable line.
    with open_log(path) as log:
        write_next(log)
    lines = path.read_text().splitlines()
    assert lines[-2] == torn
    assert isinstance(json.loads(lines[-1]), dict)
    assert view(path) == (after, 1)


def test_real_append_error_is_counted_not_raised(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")  # the log's parent directory is a regular file
    path = blocker / "log.jsonl"
    with JsonlLog(path) as log:
        log.append({"n": 1})
        log.append({"n": 2})
        assert log.append_errors == 2
        assert list(log.records()) == []
        # Once the obstacle is gone, the next append simply lands.
        blocker.unlink()
        log.append({"n": 3})
        assert log.append_errors == 2
    assert list(JsonlLog(path).records()) == [{"n": 3}]


def test_concurrent_appends_and_tears_stay_line_atomic(tmp_path):
    """More writer threads than cores, switching as often as possible, with
    torn appends among them: every tear costs exactly its own record, and
    every other record lands whole, once, in its writer's order."""
    n_threads, per_thread, tears = 8, 20, (10, 50, 90, 130)
    plan = FaultPlan([FaultSpec("index.append", at=k) for k in tears])
    path = tmp_path / "log.jsonl"
    errors: list[BaseException] = []

    def write(log: JsonlLog, t: int) -> None:
        try:
            for i in range(per_thread):
                log.append({"t": t, "i": i})
        except BaseException as exc:  # surfaced by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with JsonlLog(path, faults=plan) as log:
            threads = [
                threading.Thread(target=write, args=(log, t)) for t in range(n_threads)
            ]
            for th in threads:
                th.start()
            for th in threads:
                th.join(30)
            assert not any(th.is_alive() for th in threads)
            assert errors == []
            assert log.append_errors == len(tears)
    finally:
        sys.setswitchinterval(interval)
    reader = JsonlLog(path)
    records = list(reader.records())
    assert reader.skipped_lines == len(tears)
    assert len(records) == n_threads * per_thread - len(tears)
    for t in range(n_threads):
        mine = [r["i"] for r in records if r["t"] == t]
        assert mine == sorted(set(mine))


class TestRequestIdentity:
    def test_deterministic_and_sensitive(self):
        cells = [("dsmf#s1", "abc"), ("dsmf#s2", "def")]
        assert request_identity("campaign", cells) == request_identity("campaign", cells)
        assert request_identity("campaign", cells) != request_identity("sweep", cells)
        assert request_identity("campaign", cells) != request_identity(
            "campaign", list(reversed(cells))
        )


class TestRunJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        identity = request_identity("campaign", [("a", "h1")])
        with RunJournal(path) as journal:
            journal.begin("campaign", identity, {"algorithms": ["dsmf"]})
            journal.record_done("h1", "a", "digest-1")
            journal.finish("fp")
        state = RunJournal.load(path)
        assert state.kind == "campaign"
        assert state.identity == identity
        assert state.done == {"h1": "digest-1"}
        assert state.finished and state.fingerprint == "fp"
        assert state.skipped_lines == 0

    def test_load_missing_or_headerless(self, tmp_path):
        assert RunJournal.load(tmp_path / "nope.jsonl") is None
        orphan = tmp_path / "orphan.jsonl"
        orphan.write_text('{"event":"done","key":"h","digest":"d"}\n')
        assert RunJournal.load(orphan) is None

    def test_rebegin_same_identity_keeps_done(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.begin("campaign", "same", {})
            journal.record_done("h1", "a", "d1")
            journal.begin("campaign", "same", {})  # a --resume re-begins
            journal.record_done("h2", "b", "d2")
        assert RunJournal.load(path).done == {"h1": "d1", "h2": "d2"}

    def test_rebegin_different_identity_resets_done(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.begin("campaign", "one", {})
            journal.record_done("h1", "a", "d1")
            journal.begin("campaign", "two", {})
        assert RunJournal.load(path).done == {}

    def test_injected_torn_append_recovers(self, tmp_path):
        plan = FaultPlan([FaultSpec("index.append", at=2)])
        path = tmp_path / "run.jsonl"
        with RunJournal(path, faults=plan) as journal:
            journal.begin("campaign", "id", {})
            journal.record_done("h1", "a", "d1")  # torn (check #2 fires)
            journal.record_done("h2", "b", "d2")  # reopens, repairs, lands
            assert journal.append_errors == 1
        assert plan.fired_count("index.append") == 1
        state = RunJournal.load(path)
        assert state.done == {"h2": "d2"}
        assert state.skipped_lines == 1


class TestServiceJournal:
    def test_unfinished_survive_and_seq_advances(self, tmp_path):
        path = tmp_path / "service.jsonl"
        journal = ServiceJournal(path)
        journal.submitted("c000001", "campaign", {"algorithms": ["dsmf"]})
        journal.submitted("c000002", "sweep", {"scenarios": ["poisson-steady"]})
        journal.finished("c000001", "done")
        journal.close()

        reloaded = ServiceJournal(path)
        assert reloaded.max_seq == 2
        assert [rec["id"] for rec in reloaded.unfinished] == ["c000002"]
        assert reloaded.unfinished[0]["kind"] == "sweep"
        reloaded.close()
