"""P2P grid runtime (substrates S10–S13).

* :mod:`repro.grid.state` — workflow execution state and dispatched-task
  records.
* :mod:`repro.grid.node` — peer nodes (every node is both a scheduler node
  and a resource node with a non-sharable, non-preemptive CPU).
* :mod:`repro.grid.transfers` — concurrent data/image transfers.
* :mod:`repro.grid.system` — wires topology, gossip, workflows, schedulers
  and metrics into one runnable simulation.
"""

from repro.grid.state import TaskDispatch, WorkflowExecution, WorkflowStatus
from repro.grid.node import PeerNode

__all__ = [
    "P2PGridSystem",
    "PeerNode",
    "TaskDispatch",
    "WorkflowExecution",
    "WorkflowStatus",
]


def __getattr__(name: str):
    # P2PGridSystem is imported lazily: repro.grid.system pulls in the core
    # scheduling engine, which itself depends on repro.grid.state — eager
    # import here would close an import cycle.
    if name == "P2PGridSystem":
        from repro.grid.system import P2PGridSystem

        return P2PGridSystem
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
