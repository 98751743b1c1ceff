"""Manifest validation (``repro.service.schemas``) — every rejection is a
structured :class:`ManifestError`, never a bare exception."""

from __future__ import annotations

import json

import pytest

from repro.experiments.campaign import config_hash, result_digest
from repro.service.schemas import (
    MAX_ALGORITHMS,
    MAX_BODY_BYTES,
    MAX_SEEDS,
    ManifestError,
    manifest_specs,
    parse_manifest,
    result_to_dict,
)


def _error(callable_, *args):
    with pytest.raises(ManifestError) as exc_info:
        callable_(*args)
    return exc_info.value


# ----------------------------------------------------------- parse_manifest
def test_parse_manifest_good_body():
    manifest = parse_manifest(b'{"algorithms": ["dsmf"], "seeds": [1]}')
    assert manifest == {"algorithms": ["dsmf"], "seeds": [1]}


def test_parse_manifest_rejects_oversized_body():
    err = _error(parse_manifest, b"x" * (MAX_BODY_BYTES + 1))
    assert err.code == "body-too-large"


def test_parse_manifest_rejects_malformed_json():
    err = _error(parse_manifest, b"{not json")
    assert err.code == "malformed-json"
    err = _error(parse_manifest, b"\xff\xfe")
    assert err.code == "malformed-json"


@pytest.mark.parametrize(
    "body",
    [
        b"[" * 100_000 + b"]" * 100_000,  # nested past the recursion limit
        b'{"seeds": [' + b"1" * 5000 + b"]}",  # past the int digit limit
    ],
)
def test_parse_manifest_rejects_json_python_cannot_decode(body):
    """Both used to escape as RecursionError/ValueError and drop the
    connection instead of answering 400."""
    assert _error(parse_manifest, body).code == "malformed-json"


def test_parse_manifest_rejects_non_object():
    err = _error(parse_manifest, b"[1, 2, 3]")
    assert err.code == "malformed-manifest"
    assert "list" in err.message


# ------------------------------------------------------------ manifest_specs
def test_manifest_specs_full_grid():
    specs = manifest_specs({
        "scenario": "poisson-steady",
        "algorithms": ["dsmf", "dheft"],
        "seeds": [1, 2, 3],
        "overrides": {"n_nodes": 40},
    })
    assert len(specs) == 6
    for spec in specs:
        assert spec.config.n_nodes == 40  # explicit override wins
        assert spec.config.scenario == "poisson-steady"
    assert {s.config.algorithm for s in specs} == {"dsmf", "dheft"}
    assert {s.config.seed for s in specs} == {1, 2, 3}


def test_manifest_specs_defaults():
    [spec] = manifest_specs({})
    assert spec.config.algorithm == "dsmf"
    assert spec.config.seed == 1


def test_manifest_specs_unknown_field():
    err = _error(manifest_specs, {"algos": ["dsmf"]})
    assert err.code == "unknown-field"
    assert err.field == "algos"


def test_manifest_specs_non_mapping():
    assert _error(manifest_specs, ["dsmf"]).code == "malformed-manifest"


@pytest.mark.parametrize("bad", ["dsmf", [], [1], None])
def test_manifest_specs_invalid_algorithms(bad):
    err = _error(manifest_specs, {"algorithms": bad})
    assert err.code == "invalid-algorithms"
    assert err.field == "algorithms"


def test_manifest_specs_too_many_algorithms():
    err = _error(manifest_specs, {"algorithms": ["dsmf"] * (MAX_ALGORITHMS + 1)})
    assert err.code == "too-many-algorithms"


def test_manifest_specs_unknown_algorithm():
    err = _error(manifest_specs, {"algorithms": ["dsmf", "bogus"]})
    assert err.code == "unknown-algorithm"
    assert "bogus" in err.message


@pytest.mark.parametrize("bad", [5, [], ["1"], [1.5], [True], [-1]])
def test_manifest_specs_invalid_seeds(bad):
    err = _error(manifest_specs, {"seeds": bad})
    assert err.code == "invalid-seeds"
    assert err.field == "seeds"


def test_manifest_specs_oversized_seed_list():
    err = _error(manifest_specs, {"seeds": list(range(MAX_SEEDS + 1))})
    assert err.code == "too-many-seeds"
    assert "oversized" in err.message


def test_manifest_specs_unknown_scenario():
    err = _error(manifest_specs, {"scenario": "nope"})
    assert err.code == "unknown-scenario"
    assert err.field == "scenario"


@pytest.mark.parametrize("bad", ["nope", [], {"1": 2, 3: 4}])
def test_manifest_specs_invalid_overrides_shape(bad):
    err = _error(manifest_specs, {"overrides": bad})
    assert err.code == "invalid-overrides"


@pytest.mark.parametrize("key", ["algorithm", "seed", "scenario"])
def test_manifest_specs_reserved_override(key):
    err = _error(manifest_specs, {"overrides": {key: "x"}})
    assert err.code == "invalid-overrides"
    assert "reserved" in err.message


def test_manifest_specs_unknown_override_field():
    err = _error(manifest_specs, {"overrides": {"warp_factor": 9}})
    assert err.code == "invalid-overrides"


def test_manifest_specs_bad_override_type():
    err = _error(manifest_specs, {"overrides": {"n_nodes": "lots"}})
    assert err.code == "invalid-overrides"
    assert err.field == "overrides"


def test_manifest_specs_bad_override_value():
    err = _error(manifest_specs, {"overrides": {"n_nodes": -3}})
    assert err.code == "invalid-overrides"


@pytest.mark.parametrize(
    "overrides",
    [{"task_range": [2, 1_000_000_000]}, {"fanout_range": [1, 10**12]}],
)
def test_manifest_specs_rejects_oversized_workflows(overrides):
    """The single service worker would otherwise try to generate workflows
    of up to a billion tasks."""
    err = _error(manifest_specs, {"overrides": overrides})
    assert err.code == "invalid-overrides"
    assert err.field == "overrides"
    assert "upper bound must be <= 1000" in err.message


def test_manifest_error_to_dict():
    err = _error(manifest_specs, {"scenario": "nope"})
    body = err.to_dict()
    assert body["error"]["code"] == "unknown-scenario"
    assert body["error"]["field"] == "scenario"
    assert json.dumps(body)  # JSON-safe as-is


# ------------------------------------------------------------ result_to_dict
def test_result_to_dict_round_trips_as_json(tiny_run):
    config, result = tiny_run
    payload = json.loads(json.dumps(result_to_dict(result)))
    assert payload["algorithm"] == "dsmf"
    assert payload["seed"] == 5
    assert payload["n_nodes"] == 24
    assert payload["result_digest"] == result_digest(result)
    assert payload["n_done"] == len(
        [r for r in payload["records"] if r["status"] == "done"]
    )
    assert payload["samples"], "hourly samples missing"
    # The embedded config hashes identically to the live one.
    assert config_hash(payload["config"]) == config_hash(config)
