"""Kill-and-resume: a real ``repro campaign`` process is SIGKILLed
mid-campaign and resumed with ``--resume`` — the journal plus the
content-addressed cache must hand back an identical campaign.  The
in-process tests below drive the remaining ``--journal``/``--resume``
paths of ``campaign`` and ``sweep`` through the CLI entry point."""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.experiments.cli import main
from repro.experiments.journal import RunJournal, request_identity

ARGS = [
    "--algorithms", "dsmf", "dheft",
    "--seeds", "1", "2", "3",
    "--profile", "small",
    "--set", "n_nodes=24",
    "--set", "load_factor=1",
    "--set", "total_time=14400",
]


def _campaign(journal, cache, *extra, **popen_kwargs):
    cmd = [
        sys.executable, "-m", "repro.experiments.cli", "campaign", *ARGS,
        "--cache-dir", str(cache), "--journal", str(journal), *extra,
    ]
    env = dict(os.environ)
    return subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, **popen_kwargs,
    )


def _journal_events(path) -> list[dict]:
    if not path.is_file():
        return []
    events = []
    for line in path.read_text().splitlines():
        try:
            events.append(json.loads(line))
        except ValueError:
            continue
    return events


def _fingerprint(stdout: str) -> str:
    for line in stdout.splitlines():
        if "fingerprint" in line:
            return line.rsplit(" ", 1)[-1]
    raise AssertionError(f"no fingerprint line in output:\n{stdout}")


def test_sigkill_then_resume_completes_identically(tmp_path):
    journal = tmp_path / "campaign.jsonl"
    cache = tmp_path / "cache"

    # Phase 1: start the campaign, kill it after at least one cell lands.
    proc = _campaign(journal, cache)
    deadline = time.monotonic() + 90.0
    try:
        while True:
            done = [e for e in _journal_events(journal) if e.get("event") == "done"]
            if done:
                break
            if proc.poll() is not None:
                out, err = proc.communicate()
                pytest.fail(f"campaign finished before it could be killed:\n{err}")
            if time.monotonic() > deadline:
                pytest.fail("no journaled cell within 90s")
            time.sleep(0.01)
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.communicate(timeout=30)
    events = _journal_events(journal)
    assert events[0]["event"] == "begin"
    journaled_done = [e for e in events if e.get("event") == "done"]
    assert journaled_done and not any(e.get("event") == "finish" for e in events)

    # Phase 2: --resume completes the campaign on the same dirs.
    resumed = _campaign(journal, cache, "--resume")
    out, err = resumed.communicate(timeout=120)
    assert resumed.returncode == 0, err
    assert "resuming:" in err
    assert "resume verified" in err
    events = _journal_events(journal)
    assert any(e.get("event") == "finish" for e in events)
    # Every cell journaled before the kill replayed from cache.
    cached = int(out.split(" runs (")[1].split(" from cache")[0])
    assert cached >= len(journaled_done)

    # Phase 3: the resumed fingerprint matches a from-scratch run.
    fresh = _campaign(tmp_path / "fresh.jsonl", tmp_path / "fresh-cache")
    fresh_out, fresh_err = fresh.communicate(timeout=120)
    assert fresh.returncode == 0, fresh_err
    assert _fingerprint(out) == _fingerprint(fresh_out)


def test_resume_without_journal_is_an_error(tmp_path):
    proc = _campaign(tmp_path / "missing.jsonl", tmp_path / "cache", "--resume")
    out, err = proc.communicate(timeout=120)
    assert proc.returncode != 0
    assert "no journal at" in err


# --------------------------------------------------------------------------
# The --journal/--resume paths, in process through the CLI entry point
# --------------------------------------------------------------------------

def _probe_counts(stdout: str) -> tuple[int, int]:
    m = re.search(r"^(\d+) probes \((\d+) from cache\)", stdout, re.MULTILINE)
    assert m, stdout
    return int(m.group(1)), int(m.group(2))


def _edit_last_digest(path) -> None:
    """Corrupt the journaled digest a resume would check for one cell."""
    lines = path.read_text().splitlines()
    i = max(i for i, ln in enumerate(lines) if json.loads(ln).get("event") == "done")
    rec = json.loads(lines[i])
    rec["digest"] = "0" * 64
    lines[i] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")


def test_sweep_resume_replays_every_probe_and_catches_divergence(tmp_path, capsys):
    journal = tmp_path / "sweep.jsonl"
    argv = [
        "sweep", "--quick", "--quiet",
        "--cache-dir", str(tmp_path / "cache"), "--journal", str(journal),
    ]
    assert main(argv) == 0
    total, cached = _probe_counts(capsys.readouterr().out)
    assert total > 0 and cached == 0
    first = RunJournal.load(journal)
    assert first.finished and len(first.done) > 0

    assert main(argv + ["--resume"]) == 0
    assert _probe_counts(capsys.readouterr().out) == (total, total)
    events = [json.loads(ln)["event"] for ln in journal.read_text().splitlines()]
    assert events.count("begin") == 2
    assert events[-1] == "finish"
    resumed = RunJournal.load(journal)
    assert resumed.finished and resumed.done == first.done

    _edit_last_digest(journal)
    with pytest.raises(SystemExit, match="diverged"):
        main(argv + ["--resume"])


def test_campaign_resume_catches_edited_digest(tmp_path):
    journal = tmp_path / "campaign.jsonl"
    argv = [
        "campaign", "--algorithms", "dsmf", "--seeds", "1", *ARGS[7:], "--quiet",
        "--cache-dir", str(tmp_path / "cache"), "--journal", str(journal),
    ]
    assert main(argv) == 0
    _edit_last_digest(journal)
    with pytest.raises(SystemExit, match="diverged"):
        main(argv + ["--resume"])


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["campaign", *ARGS], id="campaign"),
        pytest.param(["sweep", "--quick"], id="sweep"),
    ],
)
def test_resume_refuses_a_journal_from_another_request(tmp_path, argv):
    journal = tmp_path / "other.jsonl"
    kind = argv[0]
    with RunJournal(journal) as log:
        log.begin(kind, request_identity(kind, "another request"), {})
    with pytest.raises(SystemExit, match=f"different {kind} request"):
        main([*argv, "--cache-dir", str(tmp_path / "cache"),
               "--journal", str(journal), "--resume"])
    assert not (tmp_path / "cache").exists()  # refused before any cell ran
