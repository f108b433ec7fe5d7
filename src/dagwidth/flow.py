"""Minimum-flow reduction of a DAG and conversions between flows and covers.

Every vertex v is split into v_in -> v_out with a demand of one flow unit;
a source feeds every v_in and every v_out feeds the sink. Minimum flows of
this network correspond exactly to minimum path covers of the base DAG.

Edges carry a canonical numbering used for all deterministic tie-breaks:
split edges occupy [0, n), source edges [n, 2n), sink edges [2n, 3n) and
cross edges 3n + j for the j-th base edge in canonical order.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .dag import Dag, PathCover
from .errors import InvalidFlow, InvalidPath, NotACover

class FlowNetwork:
    """The reduction of a base DAG, with the canonical edge numbering."""

    __slots__ = ("base", "cross_edges", "cross_id", "in_cross", "out_cross")

    def __init__(self, base: Dag):
        self.base = base
        self.cross_edges: list[tuple[int, int]] = base.edges()
        self.cross_id: dict[tuple[int, int], int] = {
            e: 3 * base.n + j for j, e in enumerate(self.cross_edges)}
        # cross edge ids grouped by head (into v_in) and by tail (out of u_out)
        self.in_cross: list[list[int]] = [[] for _ in range(base.n)]
        self.out_cross: list[list[int]] = [[] for _ in range(base.n)]
        for j, (u, v) in enumerate(self.cross_edges):
            eid = 3 * base.n + j
            self.out_cross[u].append(eid)
            self.in_cross[v].append(eid)

    @property
    def num_vertices(self) -> int:
        return 2 * self.base.n + 2

    @property
    def num_edges(self) -> int:
        return 3 * self.base.n + len(self.cross_edges)

    def demand(self, edge_id: int) -> int:
        return 1 if edge_id < self.base.n else 0


@dataclass
class Flow:
    """Integral flow values indexed by canonical edge id, plus the flow size."""

    values: list[int]
    size: int


def reduce(dag: Dag) -> FlowNetwork:
    """Build the flow reduction of a DAG."""
    return FlowNetwork(dag)


def flow_from_cover(net: FlowNetwork, cover: PathCover) -> Flow:
    """Translate a path cover into a flow of the same size."""
    n = net.base.n
    out_adj = net.base.out_adj
    values = [0] * net.num_edges
    covered = bytearray(n)
    for path in cover.paths:
        if not path:
            raise InvalidPath("empty path")
        for v in path:
            if not (0 <= v < n):
                raise InvalidPath(f"unknown vertex {v}")
        for u, v in zip(path, path[1:]):
            if v not in out_adj[u]:
                raise InvalidPath(f"({u}, {v}) is not an edge")
        values[n + path[0]] += 1          # source -> first_in
        values[path[0]] += 1              # first split
        covered[path[0]] = 1
        for u, v in zip(path, path[1:]):
            values[net.cross_id[(u, v)]] += 1
            values[v] += 1
            covered[v] = 1
        values[2 * n + path[-1]] += 1     # last_out -> sink
    missing = [v for v in range(n) if not covered[v]]
    if missing:
        raise NotACover(f"uncovered vertices: {missing}")
    return Flow(values, len(cover.paths))


def check_flow(net: FlowNetwork, flow: Flow, cuts: int = 10, seed: int = 0):
    """Verify demands, conservation, and size = net crossing flow on random cuts.

    Returns a list of violation strings; empty means the flow is valid.
    """
    n = net.base.n
    values = flow.values
    violations: list[str] = []
    for e in range(net.num_edges):
        if values[e] < net.demand(e):
            violations.append(f"demand violated on edge {e}: "
                              f"{values[e]} < {net.demand(e)}")
    # Conservation at v_in and v_out for every vertex.
    for v in range(n):
        into_vin = values[n + v] + sum(values[e] for e in net.in_cross[v])
        if into_vin != values[v]:
            violations.append(f"conservation violated at in-vertex {v}")
        out_of_vout = values[2 * n + v] + sum(values[e] for e in net.out_cross[v])
        if values[v] != out_of_vout:
            violations.append(f"conservation violated at out-vertex {v}")
    size = sum(values[n + v] for v in range(n))
    if size != flow.size:
        violations.append(f"stored size {flow.size} != source outflow {size}")
    # Size equals the net flow across any cut with s in S and t in T.
    rng = random.Random(seed)
    for c in range(cuts):
        in_s = [rng.random() < 0.5 for _ in range(2 * n)]  # v_in: 2v, v_out: 2v+1
        net_cross = 0
        for e in range(net.num_edges):
            if e < n:  # split v_in -> v_out
                tail_in_s, head_in_s = in_s[2 * e], in_s[2 * e + 1]
            elif e < 2 * n:  # source -> v_in
                tail_in_s, head_in_s = True, in_s[2 * (e - n)]
            elif e < 3 * n:  # v_out -> sink
                tail_in_s, head_in_s = in_s[2 * (e - 2 * n) + 1], False
            else:  # u_out -> v_in
                u, v = net.cross_edges[e - 3 * n]
                tail_in_s, head_in_s = in_s[2 * u + 1], in_s[2 * v]
            net_cross += values[e] * (tail_in_s - head_in_s)
        if net_cross != flow.size:
            violations.append(f"cut {c}: crossing flow {net_cross} != size {flow.size}")
    return violations


def _check_valid(net: FlowNetwork, flow: Flow) -> None:
    bad = check_flow(net, flow, cuts=0)
    if bad:
        raise InvalidFlow("; ".join(bad[:3]))


def decompose(net: FlowNetwork, flow: Flow) -> PathCover:
    """Decompose a valid flow into size-many cover paths.

    The path search always follows the lowest-id positive-flow out-edge, so
    the decomposition is deterministic.
    """
    _check_valid(net, flow)
    n = net.base.n
    remaining = list(flow.values)
    paths: list[list[int]] = []
    for _ in range(flow.size):
        v = next(u for u in range(n) if remaining[n + u] > 0)
        remaining[n + v] -= 1
        path = []
        while True:
            remaining[v] -= 1  # traverse the split edge
            path.append(v)
            if remaining[2 * n + v] > 0:  # sink edge precedes all cross edges
                remaining[2 * n + v] -= 1
                break
            eid = next(e for e in net.out_cross[v] if remaining[e] > 0)
            remaining[eid] -= 1
            v = net.cross_edges[eid - 3 * n][1]
        paths.append(path)
    return PathCover(paths)


def source_side_vertices(net: FlowNetwork, flow: Flow) -> tuple[set[int], bool]:
    """Network vertices reachable from the source in the residual.

    Returns (reached, sink_reached) with reached encoding v_in as 2v and
    v_out as 2v+1. sink_reached=True means the flow is not minimum.
    """
    n = net.base.n
    values = flow.values
    seen = bytearray(2 * n)
    stack = [2 * v for v in range(n) if values[n + v] > 0]
    for x in stack:
        seen[x] = 1
    sink_reached = False
    while stack:
        x = stack.pop()
        v, is_out = x >> 1, x & 1
        if is_out:
            if values[2 * n + v] > 0:
                sink_reached = True
            nxt = [2 * net.cross_edges[e - 3 * n][1]
                   for e in net.out_cross[v] if values[e] > 0]
            nxt.append(2 * v)  # reverse split edge
        else:
            nxt = [2 * net.cross_edges[e - 3 * n][0] + 1 for e in net.in_cross[v]]
            if values[v] > 1:
                nxt.append(2 * v + 1)
        for y in nxt:
            if not seen[y]:
                seen[y] = 1
                stack.append(y)
    return {x for x in range(2 * n) if seen[x]}, sink_reached
