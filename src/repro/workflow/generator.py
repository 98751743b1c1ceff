"""Workflow generators (substrate S8, paper §IV.A / Table I).

The paper's random workflows have 2–30 tasks with per-task fan-out between
one and five; task loads, image sizes and dependent-data sizes are drawn
uniformly from the Table I ranges (figure-specific for the CCR study).

The random generator builds a layered random DAG:

1. draw the task count and partition tasks into layers,
2. connect every task to 1–5 targets in later layers (biased to the next
   layer, which is how Brite-era workflow generators such as the one used by
   the paper produce realistic widths), and
3. guarantee every non-entry task has a precedent, then normalize to a
   unique entry/exit with virtual tasks where needed.

Every draw goes through one :class:`~repro.sim.fastrand.FastSampler`, the
stream-exact emulation of NumPy's own draws, on plain Python lists: the
workflows and the caller's generator state afterwards are bit-identical to
making the same ``Generator.integers``/``uniform``/``shuffle``/``choice``
calls directly, at a fraction of their per-call overhead.

Structured families (chain, fork-join, diamond, montage-like) are provided
for the examples and for tests whose critical paths are known analytically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.fastrand import FastSampler
from repro.workflow.dag import Workflow
from repro.workflow.task import Task

__all__ = [
    "MAX_TASKS",
    "WorkflowParams",
    "random_workflow",
    "chain_workflow",
    "fork_join_workflow",
    "diamond_workflow",
    "montage_like_workflow",
]

#: Largest task count or fan-out a random workflow may ask for: 33x Table
#: I's 30 tasks.  It keeps one workflow's generation well under a second
#: and every bounded draw inside the 32-bit ranges ``FastSampler`` emulates.
MAX_TASKS = 1000


@dataclass(frozen=True)
class WorkflowParams:
    """Sampling ranges for :func:`random_workflow` (defaults = Table I).

    Attributes mirror Table I: task count 2–30, fan-out 1–5, computing
    amount 100–10000 MI, image size 10–100 Mb, dependent data 100–10000 Mb.
    The CCR experiments (Fig. 9/10) override ``load_range``/``data_range``.
    """

    task_range: tuple[int, int] = (2, 30)
    fanout_range: tuple[int, int] = (1, 5)
    load_range: tuple[float, float] = (100.0, 10_000.0)
    image_range: tuple[float, float] = (10.0, 100.0)
    data_range: tuple[float, float] = (100.0, 10_000.0)

    def __post_init__(self) -> None:
        for name in ("task_range", "fanout_range", "load_range", "image_range", "data_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name}: lower bound {lo} exceeds upper bound {hi}")
        if self.task_range[0] < 1:
            raise ValueError("workflows need at least one task")
        if self.fanout_range[0] < 1:
            raise ValueError("fan-out must be at least one")
        for name in ("task_range", "fanout_range"):
            hi = getattr(self, name)[1]
            if hi > MAX_TASKS:
                raise ValueError(f"{name}: upper bound {hi} exceeds {MAX_TASKS}")


def random_workflow(
    wid: str, rng: np.random.Generator, params: WorkflowParams | None = None
) -> Workflow:
    """Generate one random workflow per the paper's §IV.A description.

    The draws come from ``rng`` through a :class:`FastSampler` that hands
    the stream back when this returns or raises, so callers keep drawing
    from ``rng``.
    """
    fast = FastSampler(rng)
    try:
        return _layered_workflow(wid, fast, params or WorkflowParams())
    finally:
        fast.sync_to_numpy()


def _layered_workflow(wid: str, fast: FastSampler, p: WorkflowParams) -> Workflow:
    """The layered DAG of the module docstring, every draw from ``fast``."""
    integers = fast.integers
    uniform = fast.uniform
    t_lo, t_hi = p.task_range
    n = t_lo + integers(t_hi + 1 - t_lo)

    load_lo, load_hi = p.load_range
    img_lo, img_hi = p.image_range
    tasks = [
        Task(tid=i, load=uniform(load_lo, load_hi), image_size=uniform(img_lo, img_hi))
        for i in range(n)
    ]

    edges: dict[tuple[int, int], float] = {}
    if n >= 2:
        # Layered structure: split the topological order into layers of
        # random width (bounded by the max fan-out) so the DAG has realistic
        # parallelism and connectivity stays achievable within the fan-out
        # budget.  Layer k holds tasks starts[k] .. starts[k + 1] - 1.
        f_lo, f_hi = p.fanout_range
        starts = [0, 1]
        i = 1
        while i < n:
            i += 1 + integers(min(f_hi, n - i))
            starts.append(i)
        n_layers = len(starts) - 1

        target_fanout = [f_lo + integers(f_hi + 1 - f_lo) for _ in range(n)]
        d_lo, d_hi = p.data_range

        # Step 1 — connectivity: every task in layer k gets one parent from
        # layer k-1, distributed round-robin so no parent exceeds the
        # fan-out bound (layer widths are <= the max fan-out).
        kids: list[list[int]] = [[] for _ in range(n)]  # step-1 children
        for k in range(1, n_layers):
            parents = list(range(starts[k - 1], starts[k]))
            fast.shuffle(parents)
            children = list(range(starts[k], starts[k + 1]))
            fast.shuffle(children)
            width = len(parents)
            for idx, v in enumerate(children):
                u = parents[idx % width]
                edges[(u, v)] = uniform(d_lo, d_hi)
                kids[u].append(v)

        # Step 2 — extra dependencies up to each task's sampled fan-out,
        # biased to the immediately following layer.  A task's only edges so
        # far are its step-1 children, all in the next layer.
        for k in range(n_layers - 1):
            nxt, after_next = starts[k + 1], starts[k + 2]
            for u in range(starts[k], nxt):
                mine = kids[u]
                budget = target_fanout[u] - len(mine)
                if budget <= 0:
                    continue
                pool = [v for v in range(nxt, after_next) if v not in mine]
                pool = pool or list(range(after_next, n))
                if not pool:
                    continue
                for t in fast.choice_indices(len(pool), min(budget, len(pool))):
                    edges[(u, pool[t])] = uniform(d_lo, d_hi)

    return Workflow(wid, tasks, edges).normalized()


# --------------------------------------------------------------------------
# Structured families (examples / analytic tests)
# --------------------------------------------------------------------------

def chain_workflow(
    wid: str, length: int, load: float = 1000.0, data: float = 500.0, image: float = 20.0
) -> Workflow:
    """A linear pipeline t0 -> t1 -> ... (critical path = the whole chain)."""
    if length < 1:
        raise ValueError("chain length must be >= 1")
    tasks = [Task(tid=i, load=load, image_size=image, name=f"stage{i}") for i in range(length)]
    edges = {(i, i + 1): data for i in range(length - 1)}
    return Workflow(wid, tasks, edges)


def fork_join_workflow(
    wid: str,
    width: int,
    load: float = 1000.0,
    data: float = 500.0,
    image: float = 20.0,
) -> Workflow:
    """split -> ``width`` parallel branches -> join (bag-of-tasks with a neck)."""
    if width < 1:
        raise ValueError("fork width must be >= 1")
    tasks = [Task(tid=0, load=load, image_size=image, name="split")]
    edges: dict[tuple[int, int], float] = {}
    join = width + 1
    for i in range(1, width + 1):
        tasks.append(Task(tid=i, load=load, image_size=image, name=f"branch{i}"))
        edges[(0, i)] = data
        edges[(i, join)] = data
    tasks.append(Task(tid=join, load=load, image_size=image, name="join"))
    return Workflow(wid, tasks, edges)


def diamond_workflow(
    wid: str, load: float = 1000.0, data: float = 500.0, image: float = 20.0
) -> Workflow:
    """The four-task diamond (A -> B,C -> D) used in scheduling textbooks."""
    tasks = [
        Task(tid=0, load=load, image_size=image, name="A"),
        Task(tid=1, load=2 * load, image_size=image, name="B"),
        Task(tid=2, load=load, image_size=image, name="C"),
        Task(tid=3, load=load, image_size=image, name="D"),
    ]
    edges = {(0, 1): data, (0, 2): data, (1, 3): data, (2, 3): data}
    return Workflow(wid, tasks, edges)


def montage_like_workflow(
    wid: str,
    n_inputs: int,
    rng: np.random.Generator,
    load_scale: float = 1000.0,
    data_scale: float = 500.0,
) -> Workflow:
    """An astronomy-mosaic shaped workflow (Montage's project/diff/concat
    /background/add structure), the archetypal "scientific workflow" the
    paper's introduction motivates.

    ``n_inputs`` projection tasks fan into pairwise difference tasks, a
    concatenation neck, per-image background corrections and a final mosaic.
    """
    if n_inputs < 2:
        raise ValueError("montage needs at least two inputs")
    tasks: list[Task] = []
    edges: dict[tuple[int, int], float] = {}
    tid = 0

    def add_task(name: str, load: float) -> int:
        nonlocal tid
        tasks.append(
            Task(tid=tid, load=load, image_size=float(rng.uniform(10, 100)), name=name)
        )
        tid += 1
        return tid - 1

    projects = [add_task(f"mProject{i}", load_scale * rng.uniform(0.8, 1.2)) for i in range(n_inputs)]
    diffs = []
    for i in range(n_inputs - 1):
        d = add_task(f"mDiff{i}", 0.4 * load_scale * rng.uniform(0.8, 1.2))
        edges[(projects[i], d)] = data_scale * rng.uniform(0.5, 1.5)
        edges[(projects[i + 1], d)] = data_scale * rng.uniform(0.5, 1.5)
        diffs.append(d)
    concat = add_task("mConcatFit", 0.8 * load_scale)
    for d in diffs:
        edges[(d, concat)] = 0.2 * data_scale
    bgs = []
    for i, p in enumerate(projects):
        b = add_task(f"mBackground{i}", 0.5 * load_scale * rng.uniform(0.8, 1.2))
        edges[(concat, b)] = 0.1 * data_scale
        edges[(p, b)] = data_scale * rng.uniform(0.5, 1.5)
        bgs.append(b)
    mosaic = add_task("mAdd", 2.0 * load_scale)
    for b in bgs:
        edges[(b, mosaic)] = data_scale * rng.uniform(0.5, 1.5)
    return Workflow(wid, tasks, edges).normalized()
