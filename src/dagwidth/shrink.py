"""Shrink an arbitrary path cover to a minimum one.

Installs the cover's induced flow on the reduction and repeatedly removes
decrementing paths found by plain depth-first search over the residual,
then decomposes the minimum flow. Intentionally simple: this is the
correctness baseline for the incremental solver.
"""
from __future__ import annotations

from .dag import Dag, PathCover
from .errors import NotACover
from .flow import Flow, decompose, flow_from_cover, reduce
from .oracle import validate_cover


def _find_decrementing_path(net, values):
    """Iterative DFS from the source; returns residual edges or None.

    Network vertices are coded source=-2, sink=-3, v_in=2v, v_out=2v+1.
    Edges come back as (canonical edge id, is_reverse) pairs in path order;
    neighbor exploration follows the canonical edge order.
    """
    n = net.base.n

    def residual_edges(code):
        out = []
        if code == -2:
            for v in range(n):
                if values[n + v] > 0:
                    out.append((2 * v, n + v, False))
        else:
            v, is_out = code >> 1, code & 1
            if is_out:
                out.append((2 * v, v, True))  # reverse split
                for e in net.out_cross[v]:
                    if values[e] > 0:
                        out.append((2 * net.cross_edges[e - 3 * n][1], e, False))
                if values[2 * n + v] > 0:
                    out.append((-3, 2 * n + v, False))
            else:
                for e in net.in_cross[v]:
                    out.append((2 * net.cross_edges[e - 3 * n][0] + 1, e, True))
                if values[v] > 1:
                    out.append((2 * v + 1, v, False))
        return out

    seen = {-2}
    stack = [(-2, iter(residual_edges(-2)))]
    trail = []  # residual edge taken to reach stack[i+1]
    while stack:
        code, it = stack[-1]
        advanced = False
        for nxt, eid, is_rev in it:
            if nxt == -3:
                trail.append((eid, is_rev))
                return trail
            if nxt not in seen:
                seen.add(nxt)
                trail.append((eid, is_rev))
                stack.append((nxt, iter(residual_edges(nxt))))
                advanced = True
                break
        if not advanced:
            stack.pop()
            if trail:
                trail.pop()
    return None


def shrink(dag: Dag, cover: PathCover) -> PathCover:
    """Turn a valid path cover into an MPC of the same DAG."""
    report = validate_cover(dag, cover)
    if not report.ok:
        raise NotACover("; ".join(report.violations[:3]))
    net = reduce(dag)
    flow = flow_from_cover(net, cover)
    values = list(flow.values)
    size = flow.size
    removed = 0
    while True:
        trail = _find_decrementing_path(net, values)
        if trail is None:
            break
        for eid, is_rev in trail:
            values[eid] += 1 if is_rev else -1
        size -= 1
        removed += 1
    assert removed == cover.size - size
    return decompose(net, Flow(values, size))
