"""Tests for ExperimentConfig validation and profiles."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.experiments.config import (
    PROFILE_OVERRIDES,
    ExperimentConfig,
    ScaleProfile,
    apply_profile,
)


def test_defaults_match_table1():
    cfg = ExperimentConfig()
    assert cfg.n_nodes == 1000
    assert cfg.load_factor == 3
    assert cfg.total_time == 36 * 3600.0
    assert cfg.schedule_interval == 900.0
    assert cfg.gossip_interval == 300.0
    assert cfg.task_range == (2, 30)
    assert cfg.fanout_range == (1, 5)
    assert cfg.load_range == (100.0, 10_000.0)
    assert cfg.image_range == (10.0, 100.0)
    assert cfg.capacities == (1.0, 2.0, 4.0, 8.0, 16.0)
    assert cfg.bw_min == 0.1 and cfg.bw_max == 10.0
    assert cfg.gossip_ttl == 4


@pytest.mark.parametrize(
    "field,value",
    [
        ("n_nodes", 1),
        ("load_factor", 0),
        ("total_time", 0.0),
        ("total_time", -3600.0),
        ("seed", -1),
        ("schedule_interval", -1.0),
        ("gossip_interval", 0.0),
        ("metrics_interval", -60.0),
        ("task_range", (5, 2)),       # inverted
        ("task_range", (0, 5)),       # below one task
        ("fanout_range", (3, 1)),     # inverted
        ("fanout_range", (0, 2)),     # zero fan-out
        ("load_range", (100.0, 10.0)),   # inverted
        ("load_range", (-1.0, 10.0)),    # negative
        ("image_range", (50.0, 5.0)),    # inverted
        ("data_range", (1000.0, 10.0)),  # inverted
        ("data_range", (-5.0, 10.0)),    # negative
        ("capacities", ()),
        ("capacities", (0.0, 1.0)),
        ("bw_min", 0.0),
        ("bw_max", 0.01),             # below bw_min
        ("gossip_ttl", 0),
        ("gossip_push_size", 0),
        ("rss_capacity", 0),
        ("rss_expiry_cycles", 0.0),
        ("dynamic_factor", 1.5),
        ("dynamic_factor", -0.1),
        ("permanent_fraction", 0.0),
        ("rss_mode", "psychic"),
        ("churn_mode", "explode"),
        ("algorithm", "not-an-algorithm"),
        ("scenario", "not-a-scenario"),
        ("workload_source", "tea-leaves"),
        ("arrival_process", "whenever"),
        ("structured_family", "fractal"),
        ("arrival_spread", 0.0),
        ("arrival_spread", 1.5),
        ("burst_on", 0.0),
        ("burst_off", -1.0),
        ("diurnal_period", 0.0),
        ("task_range", (2, 10**9)),   # above MAX_TASKS
        ("fanout_range", (1, 1001)),  # above MAX_TASKS
        ("n_landmarks", 0),
        ("n_landmarks", -2),
    ],
)
def test_invalid_values_rejected(field, value):
    with pytest.raises(ValueError):
        ExperimentConfig(**{field: value})


@pytest.mark.parametrize(
    "field,value,fragment",
    [
        ("task_range", (5, 2), "inverted"),
        ("task_range", (2, 1001), "upper bound must be <= 1000"),
        ("rss_mode", "psychic", "rss_mode"),
        ("algorithm", "bogus", "available:"),
        ("workload_source", "x", "available:"),
        ("arrival_process", "x", "available:"),
        ("scenario", "x", "available:"),
        ("metrics_interval", -1.0, "positive"),
    ],
)
def test_rejection_messages_are_actionable(field, value, fragment):
    with pytest.raises(ValueError, match=fragment):
        ExperimentConfig(**{field: value})


def test_with_returns_modified_copy():
    a = ExperimentConfig()
    b = a.with_(n_nodes=50)
    assert b.n_nodes == 50
    assert a.n_nodes == 1000


def test_with_validates_too():
    with pytest.raises(ValueError):
        ExperimentConfig().with_(algorithm="bogus")


def test_describe_roundtrip():
    d = ExperimentConfig().describe()
    assert d["algorithm"] == "dsmf"
    assert d["n_nodes"] == 1000


def test_expected_ccr_base_setting():
    """Fig. 4-6 setting lands near the paper's quoted CCR of 0.16."""
    ccr = ExperimentConfig().expected_ccr()
    assert 0.05 < ccr < 0.3


def test_expected_ccr_heavy_data():
    ccr = ExperimentConfig(
        load_range=(10.0, 1000.0), data_range=(100.0, 10_000.0)
    ).expected_ccr()
    assert ccr > 5.0


def test_profiles_only_shrink_scale():
    base = ExperimentConfig()
    for profile in ScaleProfile:
        cfg = apply_profile(base, profile)
        assert cfg.load_range == base.load_range
        assert cfg.schedule_interval == base.schedule_interval
        if profile is not ScaleProfile.PAPER:
            assert cfg.n_nodes < base.n_nodes


def test_paper_profile_is_identity():
    base = ExperimentConfig()
    assert apply_profile(base, ScaleProfile.PAPER) == base


def test_profile_overrides_known_for_all_profiles():
    assert set(PROFILE_OVERRIDES) == set(ScaleProfile)


# ----------------------------- availability fields -------------------------

def test_availability_defaults_are_paper_neutral():
    cfg = ExperimentConfig()
    assert cfg.churn_model == "paper-interval"
    assert cfg.recovery_policy == "fail"
    assert not cfg.churn_enabled()


@pytest.mark.parametrize(
    "overrides",
    [
        {"churn_model": "bogus"},
        {"recovery_policy": "bogus"},
        {"session_mean": 0.0},
        {"session_mean": -1.0},
        {"session_shape": 0.0},
        {"rejoin_delay_mean": -1.0},
        {"failure_interval": 0.0},
        {"ramp_direction": "sideways"},
        {"ramp_window": 0.0},
        {"ramp_window": 1.5},
    ],
)
def test_invalid_availability_fields_rejected(overrides):
    with pytest.raises(ValueError):
        ExperimentConfig(**overrides)


def test_reschedule_failed_flag_normalizes_to_policy():
    assert ExperimentConfig(reschedule_failed=True).recovery_policy == "reschedule"
    assert ExperimentConfig(reschedule_failed=False).recovery_policy == "fail"
    # An explicit policy wins over the legacy flag.
    cfg = ExperimentConfig(reschedule_failed=True, recovery_policy="checkpoint")
    assert cfg.recovery_policy == "checkpoint"


def test_churn_enabled_per_model():
    assert not ExperimentConfig(churn_model="paper-interval").churn_enabled()
    assert ExperimentConfig(dynamic_factor=0.2).churn_enabled()
    for model in ("sessions", "trace", "correlated", "ramp"):
        assert ExperimentConfig(churn_model=model).churn_enabled()


_FLOAT_FIELDS = [
    f.name for f in dataclasses.fields(ExperimentConfig) if f.type == "float"
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", _FLOAT_FIELDS)
def test_non_finite_floats_rejected(field, value):
    """NaN passes every ordered comparison, and a NaN or infinite horizon
    never ends a run; both are refused by validation alone."""
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ExperimentConfig(**{field: value})


@pytest.mark.parametrize(
    "overrides",
    [
        {"load_range": (100.0, math.inf)},
        {"capacities": (1.0, math.nan)},
        {"n_nodes": math.nan},
    ],
)
def test_non_finite_values_rejected_in_any_field(overrides):
    with pytest.raises(ValueError, match="must be finite"):
        ExperimentConfig(**overrides)


@pytest.mark.parametrize("field", ["workload_path", "availability_path"])
@pytest.mark.parametrize("value", [5, 1.5, ["a.json"], True])
def test_path_fields_must_be_strings(field, value):
    with pytest.raises(TypeError, match=f"{field} must be a path string"):
        ExperimentConfig(**{field: value})


@pytest.mark.parametrize(
    "field,value",
    [
        ("immediate_dispatch", "no"),  # truthy: it turned the ablation on
        ("telemetry", [1]),
        ("use_landmark_bandwidth", 0.0),
        ("transfer_contention", 1),
        ("reschedule_failed", None),
    ],
)
def test_bool_fields_hold_bools(field, value):
    with pytest.raises(TypeError, match=f"{field} must be True or False"):
        ExperimentConfig(**{field: value})


@pytest.mark.parametrize(
    "field,value",
    [
        ("n_nodes", 5.5),
        ("n_nodes", 40.0),
        ("n_nodes", True),
        ("seed", 1.5),
        ("seed", None),
        ("load_factor", 2.5),
        ("gossip_ttl", 2.5),
        ("gossip_push_size", "4"),
        ("aggregation_restart_cycles", 12.0),
        ("rss_capacity", 3.5),
        ("n_landmarks", 2.5),
        ("n_landmarks", False),
    ],
)
def test_int_fields_hold_integers(field, value):
    with pytest.raises(TypeError, match=f"{field} must be an integer"):
        ExperimentConfig(**{field: value})


def test_numpy_integers_and_none_pass_as_ints():
    cfg = ExperimentConfig(n_nodes=np.int64(40), seed=np.uint32(3),
                           n_landmarks=np.int16(2), rss_capacity=None)
    assert (cfg.n_nodes, cfg.seed, cfg.n_landmarks) == (40, 3, 2)
