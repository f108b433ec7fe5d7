from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagwidth import (build_dag, gen_random_dag, oracle_width, prefix, reaches,
                      remark_family)
from dagwidth.errors import (CycleDetected, InvalidParameter, OutOfRange,
                             SelfLoop)


def test_build_d4_canonical_topo(d4):
    assert d4.topo == [0, 1, 2, 3]
    assert d4.topo_pos == [0, 1, 2, 3]
    assert d4.m == 4


def test_build_single_vertex():
    dag = build_dag(1, [])
    assert dag.n == 1 and dag.m == 0 and dag.topo == [0]


def test_build_rejects_two_cycle():
    with pytest.raises(CycleDetected):
        build_dag(2, [(0, 1), (1, 0)])


def test_build_rejects_self_loop():
    with pytest.raises(SelfLoop):
        build_dag(3, [(0, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(OutOfRange):
        build_dag(2, [(0, 5)])


def test_duplicate_edges_dropped():
    dag = build_dag(2, [(0, 1), (0, 1), (0, 1)])
    assert dag.m == 1


def test_kahn_min_id_tie_break():
    dag = build_dag(4, [(0, 3), (1, 2)])
    assert dag.topo == [0, 1, 2, 3]


def test_prefix_full_and_single(d4):
    sub, mapping = prefix(d4, 4)
    assert sub.edges() == d4.edges() and mapping == [0, 1, 2, 3]
    sub1, mapping1 = prefix(d4, 1)
    assert sub1.n == 1 and sub1.m == 0 and mapping1 == [0]


def test_prefix_three(d4):
    sub, mapping = prefix(d4, 3)
    assert mapping == [0, 1, 2]
    assert sub.edges() == [(0, 1), (0, 2)]


def test_prefix_out_of_range(d4):
    with pytest.raises(OutOfRange):
        prefix(d4, 0)
    with pytest.raises(OutOfRange):
        prefix(d4, 5)


def test_reaches(d4):
    assert reaches(d4, 0, 3)
    assert not reaches(d4, 1, 2)
    assert reaches(d4, 2, 2)


def test_gen_single_chain():
    dag = gen_random_dag(10, 1, 0.0, seed=5)
    assert dag.m == 9 and oracle_width(dag) == 1


def test_gen_isolated_vertices():
    dag = gen_random_dag(7, 7, 0.0, seed=5)
    assert dag.m == 0 and oracle_width(dag) == 7


def test_gen_width_bounded():
    dag = gen_random_dag(60, 5, 2.0, seed=42)
    assert oracle_width(dag) <= 5


def test_gen_deterministic():
    a = gen_random_dag(30, 4, 1.5, seed=9)
    b = gen_random_dag(30, 4, 1.5, seed=9)
    assert a.edges() == b.edges()


def test_gen_rejects_bad_parameters():
    with pytest.raises(InvalidParameter):
        gen_random_dag(5, 6, 0.0, seed=1)
    with pytest.raises(InvalidParameter):
        gen_random_dag(0, 1, 0.0, seed=1)


@pytest.mark.parametrize("n,nv,ne", [(1, 3, 2), (2, 8, 8), (3, 15, 18)])
def test_remark_family_counts(n, nv, ne):
    fam = remark_family(n)
    assert fam.n == nv == n * (n + 2)
    assert fam.m == ne == 2 * n * n


def test_remark_family_width():
    assert oracle_width(remark_family(1)) == 1
    assert oracle_width(remark_family(3)) == 3


def test_prefix_width_monotone():
    for seed in (3, 11, 27):
        dag = gen_random_dag(40, 6, 1.0, seed=seed)
        w = oracle_width(dag)
        for i in range(1, dag.n + 1):
            sub, _ = prefix(dag, i)
            assert oracle_width(sub) <= w


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 30), st.data())
def test_topological_consistency(n, data):
    pairs = st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] < e[1]),
        max_size=3 * n)
    edges = data.draw(pairs)
    dag = build_dag(n, edges)
    for u, v in dag.edges():
        assert dag.topo_pos[u] < dag.topo_pos[v]
    for adj in dag.out_adj + dag.in_adj:
        assert adj == sorted(adj)
    assert sorted((u, v) for v in range(n) for u in dag.in_adj[v]) == dag.edges()
