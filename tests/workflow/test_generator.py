"""Tests for workflow generators (random + structured families)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import spawn_generator
from repro.workflow.dag import Workflow
from repro.workflow.generator import (
    MAX_TASKS,
    WorkflowParams,
    chain_workflow,
    diamond_workflow,
    fork_join_workflow,
    montage_like_workflow,
    random_workflow,
)
from repro.workflow.task import Task


def numpy_random_workflow(
    wid: str, rng: np.random.Generator, params: WorkflowParams | None = None
) -> Workflow:
    """The generator as it was before it drew through ``FastSampler``:
    every draw a direct ``Generator`` call, kept verbatim as the oracle
    the stream-exact generator must reproduce."""
    p = params or WorkflowParams()
    n = int(rng.integers(p.task_range[0], p.task_range[1] + 1))

    tasks = [
        Task(
            tid=i,
            load=float(rng.uniform(*p.load_range)),
            image_size=float(rng.uniform(*p.image_range)),
        )
        for i in range(n)
    ]

    edges: dict[tuple[int, int], float] = {}
    if n >= 2:
        # Layered structure: split the topological order into layers of
        # random width (bounded by the max fan-out) so the DAG has realistic
        # parallelism and connectivity stays achievable within the fan-out
        # budget.
        max_fanout = p.fanout_range[1]
        layer_of = np.zeros(n, dtype=np.int64)
        layer = 0
        i = 1
        while i < n:
            width = int(rng.integers(1, min(max_fanout, n - i) + 1))
            layer += 1
            layer_of[i : i + width] = layer
            i += width
        n_layers = layer + 1
        layers = [np.flatnonzero(layer_of == k) for k in range(n_layers)]

        outdeg = np.zeros(n, dtype=np.int64)
        target_fanout = rng.integers(
            p.fanout_range[0], p.fanout_range[1] + 1, size=n
        )

        # Step 1 — connectivity: every task in layer k gets one parent from
        # layer k-1, distributed round-robin so no parent exceeds the
        # fan-out bound (layer widths are <= max_fanout).
        for k in range(1, n_layers):
            parents = layers[k - 1].copy()
            rng.shuffle(parents)
            children = layers[k].copy()
            rng.shuffle(children)
            for idx, v in enumerate(children):
                u = int(parents[idx % len(parents)])
                edges[(u, int(v))] = float(rng.uniform(*p.data_range))
                outdeg[u] += 1

        # Step 2 — extra dependencies up to each task's sampled fan-out,
        # biased to the immediately following layer.
        for u in range(n):
            lu = int(layer_of[u])
            if lu == n_layers - 1:
                continue
            budget = int(target_fanout[u] - outdeg[u])
            if budget <= 0:
                continue
            later = np.flatnonzero(layer_of > lu)
            candidates = [int(v) for v in later if (u, int(v)) not in edges]
            if not candidates:
                continue
            nxt = [v for v in candidates if layer_of[v] == lu + 1]
            pool = nxt if nxt else candidates
            take = min(budget, len(pool))
            chosen = rng.choice(np.asarray(pool), size=take, replace=False)
            for v in chosen:
                edges[(u, int(v))] = float(rng.uniform(*p.data_range))
                outdeg[u] += 1

    return Workflow(wid, tasks, edges).normalized()


def _fingerprint(wf: Workflow):
    """Everything a workflow is: tasks (loads and images as exact float
    bits), edges in insertion order, and the topological order."""
    return (
        [
            (t.tid, t.load.hex(), t.image_size.hex(), t.virtual, t.name)
            for t in wf.tasks.values()
        ],
        [(u, v, d.hex()) for (u, v), d in wf.edges.items()],
        list(wf.topo_order),
    )


def _stream_state(rng: np.random.Generator) -> dict:
    """The bit generator's state; a buffered half-word only while it is
    live (a stale ``uinteger`` behind ``has_uint32 == 0`` is not state)."""
    state = rng.bit_generator.state
    if "has_uint32" in state and not state["has_uint32"]:
        state["uinteger"] = None
    if "key" in state.get("state", {}):  # MT19937
        state["state"] = {k: np.asarray(v).tolist() for k, v in state["state"].items()}
    return state


ORACLE_SHAPES = {
    "table1": WorkflowParams(),
    "tiny": WorkflowParams(task_range=(1, 3)),
    "wide": WorkflowParams(task_range=(2, 60), fanout_range=(2, 7)),
    "fixed": WorkflowParams(task_range=(30, 30), fanout_range=(5, 5)),
}


class TestRandomWorkflow:
    def test_respects_table1_ranges(self):
        rng = spawn_generator(0, "g")
        p = WorkflowParams()
        for k in range(30):
            wf = random_workflow(f"w{k}", rng, p)
            real = [t for t in wf.tasks.values() if not t.virtual]
            assert p.task_range[0] <= len(real) <= p.task_range[1]
            for t in real:
                assert p.load_range[0] <= t.load <= p.load_range[1]
                assert p.image_range[0] <= t.image_size <= p.image_range[1]
            for (u, v), d in wf.edges.items():
                if not (wf.tasks[u].virtual or wf.tasks[v].virtual):
                    assert p.data_range[0] <= d <= p.data_range[1]

    def test_fanout_bounded(self):
        rng = spawn_generator(1, "g")
        p = WorkflowParams(task_range=(10, 30))
        for k in range(20):
            wf = random_workflow(f"w{k}", rng, p)
            for tid, succ in wf.successors.items():
                if not wf.tasks[tid].virtual:
                    assert len(succ) <= p.fanout_range[1]

    def test_single_entry_single_exit(self):
        rng = spawn_generator(2, "g")
        for k in range(30):
            wf = random_workflow(f"w{k}", rng)
            assert len(wf.entry_ids) == 1
            assert len(wf.exit_ids) == 1

    def test_every_task_reachable_from_entry(self):
        rng = spawn_generator(3, "g")
        for k in range(20):
            wf = random_workflow(f"w{k}", rng)
            reached = {wf.entry_id}
            for tid in wf.topo_order:
                if tid in reached:
                    reached.update(wf.successors[tid])
            assert reached == set(wf.tasks)

    def test_deterministic_with_same_stream(self):
        a = random_workflow("w", spawn_generator(5, "g"))
        b = random_workflow("w", spawn_generator(5, "g"))
        assert a.edges == b.edges
        assert {t.tid: t.load for t in a.tasks.values()} == {
            t.tid: t.load for t in b.tasks.values()
        }

    def test_custom_ranges(self):
        p = WorkflowParams(load_range=(10.0, 1000.0), data_range=(100.0, 10_000.0))
        wf = random_workflow("w", spawn_generator(6, "g"), p)
        for t in wf.tasks.values():
            if not t.virtual:
                assert 10.0 <= t.load <= 1000.0

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            WorkflowParams(task_range=(5, 2))
        with pytest.raises(ValueError):
            WorkflowParams(task_range=(0, 5))
        with pytest.raises(ValueError):
            WorkflowParams(fanout_range=(0, 3))

    @pytest.mark.parametrize(
        "bad",
        [
            {"task_range": (2, 1_000_000_000)},
            {"fanout_range": (1, 10**12)},
            {"task_range": (2, MAX_TASKS + 1)},
        ],
    )
    def test_oversized_ranges_rejected(self, bad):
        with pytest.raises(ValueError, match="exceeds"):
            WorkflowParams(**bad)

    def test_largest_allowed_workflow_generates(self):
        p = WorkflowParams(task_range=(MAX_TASKS, MAX_TASKS), fanout_range=(1, MAX_TASKS))
        wf = random_workflow("w", spawn_generator(4, "g"), p)
        assert sum(not t.virtual for t in wf.tasks.values()) == MAX_TASKS

    @given(seed=st.integers(0, 2**20))
    @settings(max_examples=40, deadline=None)
    def test_property_generated_dags_valid(self, seed):
        wf = random_workflow("w", spawn_generator(seed, "g"))
        # toposort succeeded in the constructor => acyclic; check precedence.
        pos = {t: i for i, t in enumerate(wf.topo_order)}
        for u, v in wf.edges:
            assert pos[u] < pos[v]
        assert len(wf.entry_ids) == 1 and len(wf.exit_ids) == 1


class TestNumpyOracle:
    """The stream-exact generator against the direct-NumPy original."""

    @pytest.mark.parametrize("shape", sorted(ORACLE_SHAPES))
    def test_identical_to_numpy_generator(self, shape):
        params = ORACLE_SHAPES[shape]
        for seed in range(200):
            ref = np.random.default_rng([seed, 14])
            new = np.random.default_rng([seed, 14])
            for k in range(2):
                expected = numpy_random_workflow(f"w{k}", ref, params)
                got = random_workflow(f"w{k}", new, params)
                assert _fingerprint(got) == _fingerprint(expected), (seed, k)
                assert _stream_state(new) == _stream_state(ref), (seed, k)
                # The caller keeps drawing from its generator afterwards:
                # one half-word (flips the uint32 buffer) and one double.
                assert int(new.integers(0, 7)) == int(ref.integers(0, 7))
                assert float(new.random()) == float(ref.random())

    def test_mt19937_fallback_is_identical(self):
        """A bit generator without the buffered-uint32 layout takes the
        sampler's plain-``Generator`` fallback; the output must not move."""
        for shape, params in sorted(ORACLE_SHAPES.items()):
            for seed in range(10):
                ref = np.random.Generator(np.random.MT19937(seed))
                new = np.random.Generator(np.random.MT19937(seed))
                for k in range(2):
                    expected = numpy_random_workflow(f"w{k}", ref, params)
                    got = random_workflow(f"w{k}", new, params)
                    assert _fingerprint(got) == _fingerprint(expected), (shape, seed)
                    assert _stream_state(new) == _stream_state(ref), (shape, seed)

    def test_draws_only_through_the_bit_generator(self):
        """No ``Generator`` method is called: a stand-in exposing nothing
        but ``bit_generator`` produces the same workflow."""

        class BitGeneratorOnly:
            def __init__(self, rng):
                self.bit_generator = rng.bit_generator

        for seed in range(20):
            ref = np.random.default_rng(seed)
            new = np.random.default_rng(seed)
            got = random_workflow("w", BitGeneratorOnly(new))
            assert _fingerprint(got) == _fingerprint(numpy_random_workflow("w", ref))
            assert _stream_state(new) == _stream_state(ref)

    def test_failure_after_the_draws_still_hands_the_stream_back(self, monkeypatch):
        """An error after the draws leaves ``rng`` where they stopped, not
        ahead of it by the sampler's prefetched words."""
        import repro.workflow.generator as generator

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        ref = np.random.default_rng(3)
        new = np.random.default_rng(3)
        numpy_random_workflow("w", ref)
        monkeypatch.setattr(generator, "Workflow", boom)
        with pytest.raises(RuntimeError, match="boom"):
            random_workflow("w", new)
        assert _stream_state(new) == _stream_state(ref)
        assert int(new.integers(0, 1000)) == int(ref.integers(0, 1000))


class TestFamilies:
    def test_chain_structure(self):
        wf = chain_workflow("c", 5)
        assert wf.n_tasks == 5
        assert wf.n_edges == 4
        assert wf.entry_id == 0
        assert wf.exit_id == 4

    def test_chain_length_one(self):
        wf = chain_workflow("c", 1)
        assert wf.entry_id == wf.exit_id == 0

    def test_chain_invalid_length(self):
        with pytest.raises(ValueError):
            chain_workflow("c", 0)

    def test_fork_join_structure(self):
        wf = fork_join_workflow("f", 4)
        assert wf.n_tasks == 6
        assert len(wf.successors[0]) == 4
        assert len(wf.precedents[5]) == 4

    def test_diamond_structure(self):
        wf = diamond_workflow("d")
        assert wf.n_tasks == 4
        assert wf.ready_successors({0}) == [1, 2]

    def test_montage_shape(self):
        wf = montage_like_workflow("m", 4, spawn_generator(7, "g"))
        assert len(wf.entry_ids) == 1
        assert len(wf.exit_ids) == 1
        names = {t.name for t in wf.tasks.values()}
        assert any(n.startswith("mProject") for n in names)
        assert "mAdd" in names

    def test_montage_minimum_inputs(self):
        with pytest.raises(ValueError):
            montage_like_workflow("m", 1, spawn_generator(8, "g"))
