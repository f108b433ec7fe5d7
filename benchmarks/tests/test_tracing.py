"""Span arithmetic, absent hooks, and agreement with BENCHMARK.json."""
import json
import types
from pathlib import Path

from benchmarks import layers, run
from benchmarks.layers import ABSENT
from benchmarks.tracing import Tracer


def test_self_time_subtracts_direct_children():
    # op [0, 9] holds a [1, 6] and d [7, 8]; a holds two spans named b,
    # [2, 3] and [4, 5]
    t = Tracer(clock=iter(range(10)).__next__)
    root = t.begin_op(0)
    a = t.enter(t.name_id("a"))
    b = t.enter(t.name_id("b"))
    t.leave(b)
    c = t.enter(t.name_id("b"))
    t.leave(c)
    t.leave(a)
    d = t.enter(t.name_id("d"))
    t.leave(d)
    t.end_op(root)
    assert t.self_times() == {"op": 3.0, "a": 3.0, "b": 2.0, "d": 1.0}
    assert t.calls() == {"op": 1, "a": 1, "b": 2, "d": 1}
    assert list(t.parent) == [-1, 0, 1, 1, 0]


class _NoK2State:
    """A solver whose K2 link machinery is gone."""

    def __init__(self, *args, **kwargs):
        pass

    def _search(self, v):
        return types.SimpleNamespace(found=True)  # no _popped to count


def test_missing_hook_target_reads_absent_not_zero():
    inc = types.SimpleNamespace(SolverState=_NoK2State, decompose=lambda *a: None)
    t = Tracer()
    layers.install(t, {"dagwidth.incremental": inc})
    root = t.begin_op(0)
    inc.SolverState()._search(0)
    t.end_op(root)
    t.unpatch()
    assert inc.SolverState is _NoK2State
    values = layers.per_layer(t)
    assert values["incremental.k2_links_s"] == ABSENT
    assert values["incremental.popped"] == ABSENT       # its return value lacks the field
    assert values["thinning.cycle_search_s"] == ABSENT  # no thinning module at all
    assert values["incremental.search_s"] > 0.0
    assert values["incremental.searches_failed"] == 0
    assert values["flow.decompose_s"] == 0.0            # present, never called


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(x) for x in range(1, 21)]) == (10.0, 50.0)
    assert run.tail([float(x) for x in range(1, 101)]) == (90.0, 90.0)


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in run.WORKLOADS.values()]
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == [(m.name, m.unit, m.better)
                      for m in layers.PER_LAYER + (layers.OVERHEAD,)]
