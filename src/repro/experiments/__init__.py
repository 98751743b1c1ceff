"""Evaluation harness (substrate S18): configs, scenarios, figures, CLI.

Every table and figure of the paper's Section IV has a regeneration entry
point here; the ``FIGURES`` dict in :mod:`repro.experiments.figures` maps
each figure to its function, and ``python -m repro --help`` lists the CLI.
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
