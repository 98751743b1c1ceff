"""Evaluation harness (substrate S18): configs, scenarios, figures, CLI.

Every table and figure of the paper's Section IV is defined once, in the
``FIGURES`` table of :mod:`repro.experiments.figures` (each entry's grid of
runs and the metric it plots); ``python -m repro figure <n>`` regenerates
one, and ``python -m repro --help`` lists the CLI.
"""

from repro.experiments.campaign import CampaignResult, CampaignRunner, RunSpec, sweep_specs
from repro.experiments.config import ExperimentConfig, ScaleProfile

__all__ = [
    "CampaignResult",
    "CampaignRunner",
    "ExperimentConfig",
    "RunSpec",
    "ScaleProfile",
    "sweep_specs",
]
