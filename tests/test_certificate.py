"""The certificate a solver cover carries, and the checked route every other
cover takes through max_antichain, chain_cover_from_mpc, sparsify_all and
thin."""
from __future__ import annotations

import gc
import pickle
from collections import Counter

import pytest

from dagwidth import (LevelAssignment, PathCover, build_dag,
                      chain_cover_from_mpc, max_antichain, shrink, solve,
                      sparsify_all, thin)
from dagwidth.errors import NotACover
from dagwidth.incremental import SolverState
from dagwidth.oracle import solver_certificate
from tests.conftest import corpus_instance, dense_cover

STAGES = [max_antichain, chain_cover_from_mpc, sparsify_all, thin]


def _dag():
    """A corpus DAG on which the level-0 cut differs from the sweep's
    antichain and the kept edges from sparsify_all's own choice, so the
    route taken shows in the output."""
    return corpus_instance(100)


def _plain(cover):
    return PathCover([list(p) for p in cover.paths])


def _output(stage, dag, cover):
    out = stage(dag, cover)
    if isinstance(out, PathCover):
        return out.paths
    if isinstance(out, set):
        return out
    return out.out_adj, out.in_adj, out.topo, out.topo_pos


def test_the_certificate_changes_outputs_on_this_dag():
    dag = _dag()
    cover = solve(dag).cover
    assert solver_certificate(dag, cover) is not None
    plain = _plain(cover)
    assert solver_certificate(dag, plain) is None
    for stage in (max_antichain, sparsify_all):
        assert _output(stage, dag, cover) != _output(stage, dag, plain), stage
    for stage in (chain_cover_from_mpc, thin):
        assert _output(stage, dag, cover) == _output(stage, dag, plain), stage


@pytest.mark.parametrize("stage", STAGES)
def test_dropping_a_vertex_is_not_a_cover(stage):
    dag = _dag()
    cover = solve(dag).cover
    counts = Counter(v for p in cover.paths for v in p)
    path = next(p for p in cover.paths if len(p) > 1 and counts[p[-1]] == 1)
    path.pop()
    assert solver_certificate(dag, cover) is None
    with pytest.raises(NotACover):
        stage(dag, cover)


@pytest.mark.parametrize("stage", STAGES)
def test_another_mpc_takes_the_checked_route(stage):
    dag = _dag()
    mpc = solve(dag).cover.paths
    others = [list(reversed(mpc)), shrink(dag, dense_cover(dag, 4)).paths]
    for other in others:
        assert other != mpc and len(other) == len(mpc)
        cover = solve(dag).cover
        cover.paths[:] = [list(p) for p in other]
        assert solver_certificate(dag, cover) is None
        assert _output(stage, dag, cover) == _output(stage, dag, _plain(cover))


@pytest.mark.parametrize("stage", STAGES)
def test_an_equal_but_distinct_dag_takes_the_checked_route(stage):
    dag = _dag()
    cover = solve(dag).cover
    twin = build_dag(dag.n, dag.edges())
    assert solver_certificate(twin, cover) is None
    assert _output(stage, twin, cover) == _output(stage, twin, _plain(cover))


def test_a_cut_of_another_size_falls_back_to_the_sweep():
    dag = _dag()
    cover = solve(dag).cover
    cert = cover._certificate
    empty = LevelAssignment([1] * dag.n, [1] * dag.n, [], 1)
    cover._certificate = cert._replace(levels=empty)
    assert solver_certificate(dag, cover) is not None
    assert max_antichain(dag, cover) == max_antichain(dag, _plain(cover))


def _cut_with_rising_levels(dag, cover):
    """Levels whose level-0 cut has the cover's size and holds both ends
    of a kept edge, so level_out[u] > level_in[w] on that edge."""
    kept = cover._certificate.kept
    u, w = kept.cross_tail[0], kept.cross_head[0]
    cut = set(([u, w] + [v for v in range(dag.n) if v not in (u, w)])[:cover.size])
    level_out = [int(v in cut) for v in range(dag.n)]
    return LevelAssignment([0] * dag.n, level_out, [], 1)


def _cut_with_a_crossed_split_edge(dag, cover):
    """Levels whose level-0 cut is the sweep's antichain, while every
    other vertex has level_in[v] > level_out[v]."""
    cut = max_antichain(dag, _plain(cover))
    level_in = [int(v not in cut) for v in range(dag.n)]
    level_out = [int(v in cut) for v in range(dag.n)]
    return LevelAssignment(level_in, level_out, [], 1)


@pytest.mark.parametrize("forge", [_cut_with_rising_levels,
                                   _cut_with_a_crossed_split_edge])
def test_levels_that_break_the_premise_fall_back_to_the_sweep(forge, monkeypatch):
    from dagwidth import antichain
    dag = _dag()
    cover = solve(dag).cover
    assert cover.size >= 2
    levels = forge(dag, cover)
    cover._certificate = cover._certificate._replace(levels=levels)
    cut = {v for v in range(dag.n) if not levels.level_in[v] and levels.level_out[v]}
    assert len(cut) == cover.size
    assert solver_certificate(dag, cover) is not None
    calls = []
    sweep = antichain.residual_antichain
    monkeypatch.setattr(antichain, "residual_antichain",
                        lambda dag, cover: calls.append(1) or sweep(dag, cover))
    assert max_antichain(dag, cover) == sweep(dag, _plain(cover))
    assert len(calls) == 1


def test_a_pickled_cover_is_certificate_free():
    dag = _dag()
    result = solve(dag)
    for copy in (pickle.loads(pickle.dumps(result.cover)),
                 pickle.loads(pickle.dumps(result)).cover):
        assert copy.paths == result.cover.paths
        assert solver_certificate(dag, copy) is None
    assert solver_certificate(dag, result.cover) is not None


def test_only_a_solve_offered_the_dags_own_edges_is_certified():
    dag = _dag()
    state = SolverState(dag)
    for v in dag.topo:
        state.insert_vertex(v, dag.in_adj[v])
    assert solver_certificate(dag, state.result().cover) is not None
    state = SolverState(dag)
    for v in dag.topo:
        state.insert_vertex(v, list(dag.in_adj[v]))
    assert state.result().cover._certificate is None
    state = SolverState(dag)
    state._insert_all(dag.topo, [list(a) for a in dag.in_adj])
    assert state.result().cover._certificate is None


def test_the_certificate_does_not_keep_the_dag_alive():
    cover = solve(corpus_instance(100)).cover
    gc.collect()
    assert cover._certificate.dag() is None
