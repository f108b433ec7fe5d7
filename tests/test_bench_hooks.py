"""Every target that the benchmark's per-layer trace hooks into still exists.

A hook whose target is missing makes its metric read absent, and the traced
run drops it from its result line; these tests make that a test failure.
"""
from __future__ import annotations

import importlib
import sys

import pytest

import dagwidth.io  # noqa: F401  hooked by install(), not imported by the package
from benchmarks import layers
from benchmarks.tracing import Tracer
from dagwidth import incremental, thinning
from dagwidth.incremental import SolverState
from dagwidth.thinning import SupportGraph
from tests.conftest import corpus_instance, dense_cover


# max_antichain no longer builds a flow network, so dagwidth.antichain has no
# `reduce` binding left; flow.reduce_s reads from dagwidth.flow.reduce.
RETIRED_MODULE_HOOKS = {("dagwidth.antichain", "reduce")}


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in layers.MODULE_HOOKS])
def test_module_hook_targets_exist(module, attr):
    found = hasattr(importlib.import_module(module), attr)
    assert found != ((module, attr) in RETIRED_MODULE_HOOKS)


def test_every_module_hook_span_has_a_target():
    spans = {span for _, _, span in layers.MODULE_HOOKS}
    live = {span for m, a, span in layers.MODULE_HOOKS
            if hasattr(importlib.import_module(m), a)}
    assert live == spans


@pytest.mark.parametrize("method", [m for m, _ in layers.SOLVER_HOOKS])
def test_solver_hook_targets_exist(method):
    assert callable(getattr(SolverState, method, None))


@pytest.mark.parametrize("method", [m for m, _ in layers.SUPPORT_HOOKS])
def test_support_hook_targets_exist(method):
    assert callable(getattr(SupportGraph, method, None))


def test_solver_exposes_what_the_callbacks_read(d4):
    state = SolverState(d4, "k2")
    searches = [state.insert_vertex(v, d4.in_adj[v]) for v in d4.topo]
    assert isinstance(state.last_merge, bool)
    assert [s._popped for s in searches] == [[], [1], [1, 0, 2], [3]]
    assert [s.found for s in searches] == [False, True, False, True]
    assert "traversal_units" in state.result().charges


def test_traced_pipeline_leaves_no_metric_absent():
    dag = corpus_instance(7)
    t = Tracer()
    layers.install(t, sys.modules)
    try:
        root = t.begin_op(0)
        cover = incremental.solve(dag, "k2").cover
        thinning.thin(dag, dense_cover(dag, 7))
        t.end_op(root)
    finally:
        t.unpatch()
    assert incremental.SolverState is SolverState
    values = layers.per_layer(t)
    assert [k for k, v in values.items() if v == layers.ABSENT] == []
    assert values["incremental.inserts"] == dag.n
    assert values["incremental.k2_links_s"] == 0.0  # kept as a target, never called
    for walk_metric in ("incremental.walk_s", "incremental.walks", "incremental.walk_steps"):
        assert values[walk_metric] == 0  # _walk_back is kept as a target, never called
    assert cover.size > 0
