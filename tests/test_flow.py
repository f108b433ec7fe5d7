from __future__ import annotations

import pytest

from dagwidth import (PathCover, build_dag, check_flow, decompose,
                      flow_from_cover, reduce, remark_family, solve)
from dagwidth.errors import InvalidFlow, InvalidPath, NotACover
from dagwidth.flow import Flow, source_side_vertices


def test_reduce_counts(d4):
    net = reduce(d4)
    assert net.num_vertices == 10
    assert net.num_edges == 16


def test_reduce_single_vertex():
    net = reduce(build_dag(1, []))
    assert net.num_vertices == 4 and net.num_edges == 3


def test_reduce_remark_two():
    net = reduce(remark_family(2))
    assert net.num_vertices == 18 and net.num_edges == 32


def test_flow_from_cover_d4(d4):
    net = reduce(d4)
    flow = flow_from_cover(net, PathCover([[0, 1, 3], [0, 2, 3]]))
    assert flow.size == 2
    assert flow.values[0] == 2  # split of vertex 0
    assert flow.values[1] == 1  # split of vertex 1
    assert check_flow(net, flow) == []


def test_flow_from_chain_cover():
    n = 6
    chain = build_dag(n, [(i, i + 1) for i in range(n - 1)])
    net = reduce(chain)
    flow = flow_from_cover(net, PathCover([list(range(n))]))
    assert flow.size == 1
    assert all(flow.values[v] == 1 for v in range(n))


def test_flow_from_cover_rejects_uncovered(d4):
    net = reduce(d4)
    with pytest.raises(NotACover):
        flow_from_cover(net, PathCover([[0, 1, 3]]))


def test_flow_from_cover_rejects_non_path(d4):
    net = reduce(d4)
    with pytest.raises(InvalidPath):
        flow_from_cover(net, PathCover([[0, 3], [1], [2]]))


def test_decompose_round_trip(d4):
    net = reduce(d4)
    cover = PathCover([[0, 1, 3], [0, 2, 3]])
    flow = flow_from_cover(net, cover)
    back = decompose(net, flow)
    assert back.size == 2
    # multiplicity preservation: re-translating gives the identical flow
    assert flow_from_cover(net, back).values == flow.values


def test_decompose_chain_identity():
    chain = build_dag(5, [(i, i + 1) for i in range(4)])
    net = reduce(chain)
    flow = flow_from_cover(net, PathCover([[0, 1, 2, 3, 4]]))
    assert decompose(net, flow).paths == [[0, 1, 2, 3, 4]]


def test_decompose_rejects_demand_violation(d4):
    net = reduce(d4)
    with pytest.raises(InvalidFlow):
        decompose(net, Flow([0] * net.num_edges, 0))


def test_check_flow_reports_zero_flow(d4):
    net = reduce(d4)
    bad = check_flow(net, Flow([0] * net.num_edges, 0))
    assert sum("demand violated" in b for b in bad) == 4


def test_check_flow_random_cut_property(d4):
    net = reduce(d4)
    flow = flow_from_cover(net, PathCover([[0, 1, 3], [0, 2, 3]]))
    assert check_flow(net, flow, cuts=25, seed=3) == []


def test_residual_out_slack_split(d4):
    # 0 has no in-edges, so 0_out (code 1) is reached only over the split
    # of 0, which carries slack: two units above a demand of one
    net = reduce(d4)
    flow = flow_from_cover(net, PathCover([[0, 1, 3], [0, 2, 3]]))
    reached, sink_reached = source_side_vertices(net, flow)
    assert reached == {0, 1, 2, 4} and not sink_reached


def test_residual_out_reverse_edges_without_flow(d4):
    # (0, 2) carries no flow, and its reverse still leads from 2_in (code 4,
    # a path head) to 0_out (code 1), which nothing else reaches
    net = reduce(d4)
    flow = flow_from_cover(net, PathCover([[0, 1, 3], [2]]))
    assert flow.values[net.cross_id[(0, 2)]] == 0
    reached, sink_reached = source_side_vertices(net, flow)
    assert reached == {0, 1, 2, 4} and not sink_reached


def test_minimum_flow_has_no_decrementing_path(d4):
    result = solve(d4)
    _, sink_reached = source_side_vertices(result.network, result.flow)
    assert not sink_reached


def test_prefix_ow_cut_lower_bounds(d4):
    # every topological prefix of the network is a one-way cut whose demand
    # lower-bounds the flow size
    net = reduce(d4)
    flow = flow_from_cover(net, PathCover([[0, 1, 3], [0, 2, 3]]))
    n = net.base.n
    order = []  # network vertices in a topological order: v_in before v_out
    for v in net.base.topo:
        order.append(2 * v)
        order.append(2 * v + 1)
    in_s = set()
    for x in order[:-1]:
        in_s.add(x)
        demand = sum(1 for v in range(n)
                     if 2 * v in in_s and 2 * v + 1 not in in_s)
        assert flow.size >= demand
