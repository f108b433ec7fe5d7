from __future__ import annotations

import pytest

from dagwidth import (PathCover, build_dag, solve, sparsify_all,
                      sparsify_vertex, validate_cover)
from dagwidth.errors import BadPathId, NotACover
from dagwidth.oracle import closure_masks
from tests.conftest import corpus_instance, dense_cover


def test_sparsify_vertex_drops_transitive(t3):
    # both in-neighbors of vertex 2 sit on the single cover path
    survivors = sparsify_vertex([0, 1], [1, 1, 1], t3.topo_pos, 1)
    assert survivors == [1]


def test_sparsify_vertex_single_neighbor(t3):
    assert sparsify_vertex([0], [1, 1, 1], t3.topo_pos, 1) == [0]


def test_sparsify_vertex_distinct_paths_survive(d4):
    # in-neighbors of 3 lie on different cover paths, both survive
    path_id = [1, 1, 2, 1]
    assert sparsify_vertex([1, 2], path_id, d4.topo_pos, 2) == [1, 2]


def test_sparsify_vertex_rejects_bad_id(d4):
    with pytest.raises(BadPathId):
        sparsify_vertex([1], [1, 7, 1, 1], d4.topo_pos, 2)


def test_sparsify_all_t3(t3):
    sparse = sparsify_all(t3, PathCover([[0, 1, 2]]))
    assert sparse.edges() == [(0, 1), (1, 2)]


def test_sparsify_all_chain_unchanged(chain10):
    sparse = sparsify_all(chain10, PathCover([list(range(10))]))
    assert sparse.edges() == chain10.edges()


def test_sparsify_all_rejects_non_cover(t3):
    with pytest.raises(NotACover):
        sparsify_all(t3, PathCover([[0, 1]]))


@pytest.mark.parametrize("paths", [[[0, 2], [1]], [[0, 1, 2], [5]], [[0, 1, 2], []]])
def test_sparsify_all_rejects_invalid_covers(paths):
    # a skipped edge, an unknown vertex and an empty path
    dag = build_dag(3, [(0, 1), (1, 2)])
    with pytest.raises(NotACover):
        sparsify_all(dag, PathCover(paths))


@pytest.mark.parametrize("seed", [2, 17, 33, 58, 71])
def test_sparsify_all_preserves_reachability(seed):
    dag = corpus_instance(seed)
    mpc = solve(dag).cover
    # the solver's cover (kept edges), a certificate-free copy of it (the
    # per-path rule on a minimum cover) and a redundant cover
    plain = PathCover([list(p) for p in mpc.paths])
    for cover in (mpc, plain, dense_cover(dag, seed)):
        sparse = sparsify_all(dag, cover)
        assert closure_masks(sparse) == closure_masks(dag)
        assert max((len(a) for a in sparse.in_adj), default=0) <= cover.size
        assert validate_cover(sparse, cover).ok
        # the direct build equals a rebuild from the kept edges
        ref = build_dag(dag.n, sparse.edges())
        assert sparse.out_adj == ref.out_adj
        assert sparse.in_adj == ref.in_adj
        assert sparse.topo == ref.topo
        assert sparse.topo_pos == ref.topo_pos


def test_sparsify_all_keeps_cover_with_shared_vertices():
    # vertex 1 lies on both paths; the edge (1, 2) of the second path must
    # survive even though the first path claims vertex 1's slot
    dag = build_dag(4, [(0, 1), (1, 3), (1, 2), (2, 3)])
    cover = PathCover([[0, 1, 3], [1, 2, 3]])
    sparse = sparsify_all(dag, cover)
    assert validate_cover(sparse, cover).ok
    assert closure_masks(sparse) == closure_masks(dag)


def test_solver_internal_sparsification_preserves_reachability():
    # the incremental solver sparsifies per vertex inside prefix subgraphs;
    # its final network must reproduce the original reachability
    for seed in (5, 23, 41):
        dag = corpus_instance(seed)
        result = solve(dag)
        assert closure_masks(result.network.base) == closure_masks(dag)
