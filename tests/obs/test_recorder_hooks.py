"""The execution trace's hook sites: what a traced run reports, and how.

The grid system and its transfer manager report to the recorder they were
built with (``P2PGridSystem(config, recorder=rec)``) from explicit hook
sites; nothing swaps methods out on a live system.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro.obs
from repro.experiments.config import ExperimentConfig
from repro.grid.system import P2PGridSystem
from repro.obs import TraceRecorder, waiting_time_breakdown

_RUN = dict(n_nodes=24, load_factor=2, total_time=12 * 3600.0, seed=5, task_range=(2, 10))


@pytest.mark.parametrize("algorithm", ["heft", "smf"])
def test_fullahead_dispatches_are_traced(algorithm):
    """Full-ahead baselines place tasks outside phase 1; their dispatches
    are still in the trace, so the wait breakdown sees a real wait."""
    rec = TraceRecorder()
    P2PGridSystem(ExperimentConfig(algorithm=algorithm, **_RUN), recorder=rec).run()
    starts = rec.of_kind("start")
    assert starts
    assert len(rec.of_kind("dispatch")) == len(starts)
    assert waiting_time_breakdown(rec)["mean_wait"] > 0.0


def test_tracing_replaces_no_method():
    """No instance attribute of a traced system, its transfer manager or
    its collector shadows a method of its class."""
    rec = TraceRecorder()
    system = P2PGridSystem(ExperimentConfig(algorithm="dsmf", **_RUN), recorder=rec)
    system.run()
    for obj in (system, system.transfers, system.collector):
        cls = type(obj)
        assert not [name for name in vars(obj) if callable(getattr(cls, name, None))]
    assert system.transfers.recorder is rec


def _runtime_imports(tree: ast.AST):
    """Imported module names, leaving out ``if TYPE_CHECKING:`` blocks."""
    typing_only = {
        id(n)
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING"
        for stmt in node.body
        for n in ast.walk(stmt)
    }
    for node in ast.walk(tree):
        if id(node) in typing_only:
            continue
        if isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)


def test_obs_imports_nothing_else_from_repro():
    package = Path(repro.obs.__file__).parent
    for path in sorted(package.glob("*.py")):
        for module in _runtime_imports(ast.parse(path.read_text())):
            if module == "repro" or module.startswith("repro."):
                assert module.startswith("repro.obs"), f"{path.name} imports {module}"
