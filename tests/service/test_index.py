"""The persistent experiment index (``repro.service.index``): crash-safe
journalling, dedup-on-reload, and cache-dir rebuild."""

from __future__ import annotations

import json
import pickle

from repro.experiments.campaign import CampaignRunner, config_hash
from repro.service.index import ExperimentIndex, entry_from_result

H1 = "a" * 64
H2 = "b" * 64


def _entry(config_hash_: str, **extra) -> dict:
    return {"config_hash": config_hash_, "act": 1.0, **extra}


def test_record_and_reload(tmp_path):
    path = tmp_path / "experiments.jsonl"
    index = ExperimentIndex(path)
    assert len(index) == 0
    index.record(_entry(H1, label="first"))
    index.record(_entry(H2))
    index.close()

    reloaded = ExperimentIndex(path)
    assert len(reloaded) == 2
    assert H1 in reloaded and H2 in reloaded
    assert reloaded.skipped_lines == 0
    assert [e["config_hash"] for e in reloaded.entries()] == [H1, H2]


def test_latest_record_wins_but_order_is_first_seen(tmp_path):
    index = ExperimentIndex(tmp_path / "e.jsonl")
    index.record(_entry(H1, act=1.0))
    index.record(_entry(H2))
    index.record(_entry(H1, act=2.0))  # refresh, not duplicate
    entries = index.entries()
    assert [e["config_hash"] for e in entries] == [H1, H2]
    assert entries[0]["act"] == 2.0
    # The journal keeps all three lines; the listing dedupes.
    assert len((tmp_path / "e.jsonl").read_text().splitlines()) == 3
    index.close()
    reloaded = ExperimentIndex(tmp_path / "e.jsonl")
    assert len(reloaded) == 2
    assert reloaded.entries()[0]["act"] == 2.0


def test_corrupt_lines_are_skipped(tmp_path):
    path = tmp_path / "e.jsonl"
    lines = [
        json.dumps(_entry(H1)),
        "{torn garbage",
        json.dumps(["not", "a", "dict"]),
        json.dumps({"no_hash": True}),
        json.dumps(_entry(H2)),
    ]
    path.write_text("\n".join(lines) + "\n")
    index = ExperimentIndex(path)
    assert len(index) == 2
    assert index.skipped_lines == 3


def test_entry_from_result_summarizes(tiny_run):
    config, result = tiny_run
    key = config_hash(config)
    entry = entry_from_result(key, result, label="dsmf@s5", campaign_id="c1",
                              source="service", recorded_at=123.0)
    assert entry["config_hash"] == key
    assert entry["algorithm"] == "dsmf"
    assert entry["seed"] == 5
    assert entry["n_nodes"] == 24
    assert entry["recorded_at"] == 123.0
    assert json.dumps(entry)  # journal-safe


def test_rebuild_from_cache(tmp_path, tiny_run):
    config, result = tiny_run
    cache_dir = tmp_path / "cache"
    key = config_hash(config)
    CampaignRunner(cache_dir=cache_dir)._cache_store(key, result)
    # Foreign files must not take the rebuild down (or be indexed).
    (cache_dir / "notahash.pkl").write_bytes(pickle.dumps({"foreign": True}))
    (cache_dir / f"{H1}.pkl").write_bytes(b"corrupt pickle")
    (cache_dir / f"{H2}.pkl").write_bytes(pickle.dumps("not a RunResult"))

    index = ExperimentIndex(tmp_path / "e.jsonl")
    assert index.rebuild_from_cache(cache_dir) == 1
    [entry] = index.entries()
    assert entry["config_hash"] == key
    assert entry["source"] == "cache-rebuild"
    assert entry["from_cache"] is True
    # Idempotent: already-known hashes are not re-added.
    assert index.rebuild_from_cache(cache_dir) == 0
    assert index.rebuild_from_cache(tmp_path / "missing") == 0
    index.close()
