"""Property tests of the one request boundary: every JSON-shaped manifest
either raises :class:`ManifestError` or resolves to configs that are safe
to run and to key — all of their float values finite, and their config
hash computable.  No run is ever started."""

from __future__ import annotations

import math
from dataclasses import fields
from numbers import Integral

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.campaign import config_hash
from repro.experiments.config import ExperimentConfig
from repro.experiments.request import ManifestError, resolve
from repro.service.schemas import admit, manifest_specs
from repro.workload.scenarios import scenario_names

_GROUPS: dict = {}
for _f in fields(ExperimentConfig):
    _GROUPS.setdefault(str(_f.type), []).append(_f.name)
#: Config field names, each annotation type (float, int, path...) equally likely.
FIELDS = st.sampled_from(sorted(_GROUPS.values())).flatmap(st.sampled_from)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NUMBERS = st.one_of(
    st.integers(min_value=0, max_value=100_000),
    st.floats(min_value=0.0, max_value=1e6),
    NON_FINITE,
    NON_FINITE,
    st.integers(),
    st.floats(),
)
#: JSON values: mostly numbers, else scalars and small lists and objects.
VALUES = st.one_of(
    NUMBERS,
    NUMBERS,
    st.recursive(
        st.one_of(NUMBERS, st.none(), st.booleans(), st.text(alphabet="abc.-_", max_size=6)),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(alphabet="abc", max_size=3), inner, max_size=2),
        max_leaves=4,
    ),
)
#: Override keys, mostly real config field names.
OVERRIDES = st.dictionaries(
    st.one_of(FIELDS, FIELDS, FIELDS, st.text(max_size=6)),
    VALUES,
    min_size=1,
    max_size=2,
)
ALGORITHMS = st.lists(st.sampled_from(["dsmf", "heft", "smf"]), min_size=1, max_size=3)
SEEDS = st.lists(st.integers(min_value=-1, max_value=50), min_size=1, max_size=3)
SCENARIOS = st.lists(st.sampled_from(scenario_names()), min_size=1, max_size=2)


def _mostly(valid):
    """``valid`` nine times in ten, else any JSON value."""
    return st.integers(0, 9).flatmap(lambda i: VALUES if i == 0 else valid)


CAMPAIGNS = st.fixed_dictionaries(
    {"overrides": OVERRIDES},
    optional={
        "scenario": _mostly(st.sampled_from(scenario_names())),
        "algorithms": _mostly(ALGORITHMS),
        "seeds": _mostly(SEEDS),
    },
)
SWEEPS = st.fixed_dictionaries(
    {"scenarios": _mostly(SCENARIOS), "overrides": OVERRIDES},
    optional={
        "algorithms": _mostly(ALGORITHMS),
        "seeds": _mostly(SEEDS),
        "threshold": _mostly(NUMBERS),
        "resolution": _mostly(NUMBERS),
        "max_scale": _mostly(NUMBERS),
    },
)


def _check(configs) -> None:
    """Resolved configs must be runnable: finite floats, bool fields that
    hold bools, int fields that hold integers, and a computable hash."""
    for config in configs:
        for name, value in vars(config).items():
            for v in value if isinstance(value, (tuple, list)) else (value,):
                if isinstance(v, float):
                    assert math.isfinite(v), (name, value)
        for f in fields(config):
            value = getattr(config, f.name)
            if f.type == "bool":
                assert isinstance(value, bool), (f.name, value)
            elif f.type == "int" or f.type == "Optional[int]" and value is not None:
                assert isinstance(value, Integral) and not isinstance(value, bool), (
                    f.name, value)
        config_hash(config)


def _resolved_or_refused(call) -> None:
    try:
        configs = call()
    except ManifestError:
        return
    _check(configs)


@given(manifest=CAMPAIGNS)
@settings(max_examples=200, deadline=None)
def test_campaign_manifests_resolve_or_refuse(manifest):
    _resolved_or_refused(lambda: [s.config for s in resolve("campaign", manifest).specs])
    _resolved_or_refused(lambda: [s.config for s in manifest_specs(manifest)])


@given(manifest=SWEEPS)
@settings(max_examples=200, deadline=None)
def test_sweep_manifests_resolve_or_refuse(manifest):
    _resolved_or_refused(lambda: [s.config for s in resolve("sweep", manifest).specs])
    _resolved_or_refused(lambda: [s.config for s in admit("sweep", manifest).specs])
    try:
        request = admit("sweep", manifest).sweep
    except ManifestError:
        return
    for key in ("threshold", "resolution", "max_scale"):
        assert math.isfinite(request[key]), (key, request[key])
