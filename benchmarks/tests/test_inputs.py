"""Workload inputs are a function of the seed, and each op passes its checks."""
import sys

import pytest

import dagwidth
import dagwidth.io  # noqa: F401  (the ops reach the text formats as dagwidth.io)
from benchmarks import checker as ck
from benchmarks import workloads as wl
from benchmarks.tracing import Tracer
from benchmarks import layers


def test_random_dag_is_deterministic_and_acyclic():
    a = wl.random_dag(300, 5, 2.0, 7)
    assert a == wl.random_dag(300, 5, 2.0, 7)
    assert a != wl.random_dag(300, 5, 2.0, 8)
    g = ck.parse_graph(wl.edge_list_text(a))
    assert len(g.topo_order()) == 300


def test_dense_cover_is_deterministic_and_redundant():
    adj = wl.random_dag(200, 20, 2.0, 3)
    paths = wl.dense_cover(adj, 4)
    assert paths == wl.dense_cover(adj, 4)
    assert ck.cover_problems(ck.parse_graph(wl.edge_list_text(adj)), paths) == []
    assert len(paths) > 200 // 3


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    w = wl.WORKLOADS[name]
    assert w.warmup(5) == w.warmup(5)
    assert w.warmup(5) != w.warmup(6)


def test_narrow_draws_every_grid_point_once(monkeypatch):
    monkeypatch.setattr(wl, "NARROW_N", 300)
    inputs = wl.WORKLOADS["narrow"].inputs(1)
    assert len(inputs) == len(wl.NARROW_K) * len(wl.NARROW_EXTRA)
    assert len({i.graph for i in inputs}) == len(inputs)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_warmup_op_passes_its_checks(name):
    w = wl.WORKLOADS[name]
    inp = w.warmup(2)
    out = w.op(dagwidth, wl.Direct, inp)
    assert w.check(dagwidth, inp, out, {}) == []


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    w = wl.WORKLOADS[name]
    inp = w.warmup(3)
    counts = []
    for _ in range(2):
        t = Tracer()
        layers.install(t, sys.modules)
        root = t.begin_op(0)
        w.op(dagwidth, t, inp)
        t.end_op(root)
        t.unpatch()
        values = layers.per_layer(t)
        counts.append({m.name: values[m.name] for m in layers.PER_LAYER if m.unit != "s"})
    assert counts[0] == counts[1]
    assert layers.ABSENT not in counts[0].values()
