"""repro — reproduction of *Dual-Phase Just-in-Time Workflow Scheduling in
P2P Grid Systems* (Sheng Di & Cho-Li Wang, ICPP 2010).

The package implements the paper's primary contribution — the dual-phase
just-in-time scheduling model with the Dynamic Shortest Makespan First (DSMF)
heuristic — together with every substrate its evaluation depends on:

* :mod:`repro.sim` — a discrete-event simulation kernel (replaces PeerSim),
* :mod:`repro.net` — Waxman wide-area topologies with end-to-end bottleneck
  bandwidth and landmark-based estimation (replaces Brite),
* :mod:`repro.gossip` — the mixed gossip protocol (epidemic state
  dissemination + aggregation averaging),
* :mod:`repro.workflow` — DAG workflows, random generators, critical-path and
  rest-path-makespan (RPM) analysis,
* :mod:`repro.workload` — workload sources × arrival processes and the
  named scenario registry (what is submitted, and when),
* :mod:`repro.availability` — churn models × recovery policies (who is
  alive, when — and what happens to tasks lost in a disconnection),
* :mod:`repro.grid` — the P2P grid runtime (peer nodes, transfers, churn),
* :mod:`repro.core` — the dual-phase scheduling engine, DSMF, the seven
  comparison heuristics and the full-ahead HEFT/SMF baselines,
* :mod:`repro.metrics` and :mod:`repro.experiments` — the evaluation harness
  regenerating every figure of the paper's Section IV.

Quickstart::

    from repro import quick_run
    result = quick_run(algorithm="dsmf", n_nodes=60, seed=7)
    print(result.summary())
"""

from repro._version import __version__
from repro.api import (
    available_algorithms,
    available_churn_models,
    available_recovery_policies,
    available_scenarios,
    quick_run,
    run_campaign,
    run_experiment,
    run_manifest,
    run_sweep,
)

__all__ = [
    "__version__",
    "available_algorithms",
    "available_churn_models",
    "available_recovery_policies",
    "available_scenarios",
    "quick_run",
    "run_campaign",
    "run_experiment",
    "run_manifest",
    "run_sweep",
]
