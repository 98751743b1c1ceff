"""A run leaves no cyclic garbage behind.

Every object a run allocates and drops must be freed by reference counting
alone: a finished transfer, its completion event and its arrival callback
included.  Each shape runs with the cycle collector disabled; a collection
afterwards, while the system is still alive, must find nothing.
"""

from __future__ import annotations

import gc

import pytest

from repro.experiments.config import ExperimentConfig
from repro.grid.system import P2PGridSystem
from repro.workload.scenarios import apply_scenario

_CHURN = dict(dynamic_factor=0.2)

SHAPES = {
    "static-dsmf": {},
    "fail-reschedule": dict(_CHURN, churn_mode="fail", recovery_policy="reschedule"),
    "suspend": dict(_CHURN, churn_mode="suspend"),
    "checkpoint": dict(_CHURN, churn_mode="fail", recovery_policy="checkpoint"),
    "contention": dict(transfer_contention=True),
    "immediate": dict(immediate_dispatch=True),
    "heft": dict(algorithm="heft"),
    "min-min": dict(algorithm="min-min"),
    "poisson-steady": dict(scenario="poisson-steady"),
    "weibull-sessions": dict(scenario="weibull-sessions"),
}


def _config(shape: str) -> ExperimentConfig:
    overrides = dict(SHAPES[shape])
    scenario = overrides.pop("scenario", None)
    base = dict(n_nodes=30, load_factor=2, total_time=6 * 3600.0, seed=3)
    cfg = ExperimentConfig(**{**base, **overrides})
    return apply_scenario(cfg, scenario) if scenario else cfg


@pytest.mark.parametrize("shape", list(SHAPES))
def test_run_leaves_no_cyclic_garbage(shape):
    system = P2PGridSystem(_config(shape))
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = system.run()
    finally:
        if was_enabled:
            gc.enable()
    assert system.transfers.completed > 0 and result.events_executed > 0
    assert gc.collect() == 0
