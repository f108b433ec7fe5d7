"""Maximum antichains from minimum flows, and minimum chain covers from MPCs.

The split edges crossing the maximum one-way cut of the reduction, read off
as the vertices whose in-half is residually reachable from the source while
the out-half is not, form a maximum antichain.
"""
from __future__ import annotations

from .dag import Dag, PathCover
from .errors import InvariantViolation, NotACover, NotMinimum
from .flow import Flow, FlowNetwork, source_side_vertices
from .flow import flow_from_cover  # noqa: F401  the benchmark's flow.from_cover hook targets this binding
from .oracle import validate_cover


def max_antichain_from_flow(net: FlowNetwork, f_min: Flow) -> set[int]:
    """Extract a maximum antichain of the base DAG from a minimum flow.

    Raises NotMinimum if the residual still contains a source-to-sink path
    (detected during the same reachability sweep).
    """
    reached, sink_reached = source_side_vertices(net, f_min)
    if sink_reached:
        raise NotMinimum("flow admits a decrementing path")
    return {v for v in range(net.base.n)
            if 2 * v in reached and 2 * v + 1 not in reached}


def max_antichain(dag: Dag, cover: PathCover) -> set[int]:
    """Maximum antichain from an MPC; raises NotMinimum if the cover is not
    minimum.

    Runs the residual sweep of `source_side_vertices` on the cover's own
    flow without building a network: a path head's in-half is reached from
    the source, an in-half v_in reaches u_out for every in-neighbour u of v
    (reverse cross edge) and its own out-half when v lies on two or more
    paths (split flow above the demand), and an out-half u_out reaches u_in
    (reverse split edge) and w_in for every successor w of u on a path.
    Reaching the out-half of a path's last vertex means a decrementing path
    reaches the sink.
    """
    report = validate_cover(dag, cover)
    if not report.ok:
        raise NotACover("; ".join(report.violations[:3]))
    n = dag.n
    in_adj = dag.in_adj
    succ: list[list[int]] = [[] for _ in range(n)]
    visits = [0] * n
    is_tail = bytearray(n)
    seen = bytearray(2 * n)
    stack = []
    for path in cover.paths:
        head = path[0]
        if not seen[2 * head]:
            seen[2 * head] = 1
            stack.append(2 * head)
        is_tail[path[-1]] = 1
        for u, w in zip(path, path[1:]):
            succ[u].append(w)
        for v in path:
            visits[v] += 1
    while stack:
        x = stack.pop()
        v = x >> 1
        if x & 1:
            if is_tail[v]:
                raise NotMinimum("cover admits a decrementing path")
            nxt = [2 * w for w in succ[v]]
            nxt.append(x - 1)
        else:
            nxt = [2 * u + 1 for u in in_adj[v]]
            if visits[v] > 1:
                nxt.append(x + 1)
        for y in nxt:
            if not seen[y]:
                seen[y] = 1
                stack.append(y)
    return {v for v in range(n) if seen[2 * v] and not seen[2 * v + 1]}


def chain_cover_from_mpc(dag: Dag, cover: PathCover) -> PathCover:
    """Minimum chain cover: keep each vertex only in the first path listing it.

    The chains are vertex-disjoint, cover every vertex, and consecutive
    elements remain reachable (they were adjacent on a cover path). A chain
    that empties would contradict the cover being minimum, so that case is
    flagged rather than silently rebalanced.
    """
    report = validate_cover(dag, cover)
    if not report.ok:
        raise NotACover("; ".join(report.violations[:3]))
    seen = bytearray(dag.n)
    chains: list[list[int]] = []
    for path in cover.paths:
        chain = [v for v in path if not seen[v]]
        for v in chain:
            seen[v] = 1
        if not chain:
            raise InvariantViolation(
                "a cover path emptied while dropping repeats; cover was not minimum")
        chains.append(chain)
    return PathCover(chains)
