"""Wide-area network substrate (S2–S4, replaces the Brite tool).

* :mod:`repro.net.waxman` — Waxman random-graph generation on a 2-D plane
  (the model Brite implements for router-level topologies).
* :mod:`repro.net.topology` — the :class:`~repro.net.topology.Topology`
  facade: per-link bandwidth/latency, end-to-end bandwidth (bottleneck of the
  widest path, from one descending-Kruskal sweep) and latency (shortest
  path).
* :mod:`repro.net.landmarks` — landmark-based bandwidth estimation
  (Maniymaran & Maheswaran's bandwidth landmarking, the paper's ref [17]).
"""

from repro.net.landmarks import LandmarkEstimator
from repro.net.topology import Topology
from repro.net.waxman import WaxmanGraph, generate_waxman

__all__ = ["LandmarkEstimator", "Topology", "WaxmanGraph", "generate_waxman"]
