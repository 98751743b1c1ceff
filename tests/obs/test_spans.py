"""Tests for Chrome trace-event export (`repro run --trace-out`)."""

from __future__ import annotations

import json

import pytest

from repro.api import run_experiment
from repro.obs.spans import (
    build_chrome_trace,
    format_trace_summary,
    summarize_chrome_trace,
    write_chrome_trace,
)
from repro.obs.recorder import TraceRecorder

#: Phases the exporter is allowed to emit (Trace Event Format).
_VALID_PH = {"X", "i", "b", "e", "M"}


@pytest.fixture(scope="module")
def traced_run():
    """One tiny instrumented run shared by the whole module."""
    from repro.experiments.config import ExperimentConfig

    config = ExperimentConfig(
        algorithm="dsmf",
        n_nodes=24,
        load_factor=1,
        total_time=6 * 3600.0,
        seed=5,
        task_range=(2, 10),
    )
    recorder = TraceRecorder()
    result = run_experiment(config, recorder=recorder)
    return recorder, result


class TestSchema:
    def test_document_shape(self, traced_run):
        trace = build_chrome_trace(*traced_run)
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        assert isinstance(trace["traceEvents"], list)
        assert trace["traceEvents"]

    def test_every_event_is_schema_valid(self, traced_run):
        trace = build_chrome_trace(*traced_run)
        for e in trace["traceEvents"]:
            assert e["ph"] in _VALID_PH
            assert isinstance(e["pid"], int)
            assert isinstance(e["tid"], int)
            assert isinstance(e["name"], str) and e["name"]
            if e["ph"] == "M":
                assert "name" in e["args"]
                continue
            assert e["ts"] >= 0
            if e["ph"] == "X":
                assert e["dur"] >= 0
            if e["ph"] in ("b", "e"):
                assert "id" in e

    def test_async_transfer_spans_pair_up(self, traced_run):
        trace = build_chrome_trace(*traced_run)
        begins = {e["id"] for e in trace["traceEvents"] if e["ph"] == "b"}
        ends = {e["id"] for e in trace["traceEvents"] if e["ph"] == "e"}
        assert ends <= begins  # every end has a begin; some begins open
        assert begins

    def test_expected_categories_present(self, traced_run):
        trace = build_chrome_trace(*traced_run)
        cats = {e.get("cat") for e in trace["traceEvents"]}
        assert {"exec", "transfer", "gossip"} <= cats
        assert "workflow_done" in cats

    def test_workflow_slices_match_done_count(self, traced_run):
        _, result = traced_run
        trace = build_chrome_trace(*traced_run)
        done_slices = [
            e for e in trace["traceEvents"]
            if e["ph"] == "X" and e.get("cat") == "workflow_done"
        ]
        assert len(done_slices) == result.n_done
        for e in done_slices:
            assert e["args"]["status"] == "done"
            assert e["args"]["n_tasks"] >= 1

    def test_json_serializable_and_written(self, traced_run, tmp_path):
        path = tmp_path / "trace.json"
        doc = write_chrome_trace(str(path), *traced_run)
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(doc))
        assert len(loaded["traceEvents"]) == len(doc["traceEvents"])


class TestSummarize:
    def test_summary_counts_and_range(self, traced_run):
        _, result = traced_run
        trace = build_chrome_trace(*traced_run)
        summary = summarize_chrome_trace(trace)
        n_meta = sum(1 for e in trace["traceEvents"] if e["ph"] == "M")
        assert summary["n_events"] == len(trace["traceEvents"]) - n_meta
        lo, hi = summary["time_range_seconds"]
        assert 0 <= lo < hi <= result.total_time
        assert summary["categories"]["exec"]["span_seconds"] > 0
        assert summary["categories"]["transfer"]["span_seconds"] > 0

    def test_empty_trace(self):
        summary = summarize_chrome_trace({"traceEvents": []})
        assert summary["n_events"] == 0
        assert summary["time_range_seconds"] == [0.0, 0.0]

    def test_format_is_printable(self, traced_run):
        text = format_trace_summary(summarize_chrome_trace(build_chrome_trace(*traced_run)))
        assert "trace events" in text
        assert "exec" in text


class TestCli:
    def test_run_trace_out_and_summarize(self, tmp_path, capsys):
        from repro.experiments.cli import main

        out = tmp_path / "t.json"
        assert main([
            "run", "-n", "16", "-l", "1", "--hours", "4", "--seed", "3",
            "--telemetry", "--trace-out", str(out),
        ]) == 0
        stdout = capsys.readouterr().out
        assert "== telemetry ==" in stdout
        assert "sim.events_executed" in stdout
        assert "perfetto" in stdout.lower()
        assert out.exists()

        assert main(["trace", "summarize", str(out)]) == 0
        assert "trace events" in capsys.readouterr().out

    def test_summarize_rejects_non_trace_json(self, tmp_path):
        from repro.experiments.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        with pytest.raises(SystemExit, match="traceEvents"):
            main(["trace", "summarize", str(bad)])

    def test_summarize_rejects_missing_file(self, tmp_path):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit, match="cannot read"):
            main(["trace", "summarize", str(tmp_path / "nope.json")])
