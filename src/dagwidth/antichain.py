"""Maximum antichains and minimum chain covers from minimum path covers.

The split edges crossing the maximum one-way cut of the reduction, read off
as the vertices whose in-half is residually reachable from the source while
the out-half is not, form a maximum antichain; `residual_antichain` finds
them in one sweep over the graph and the cover. A cover that `solve`
returned needs no sweep while it carries its certificate
(`oracle.solver_certificate`): `max_antichain` then reads the solver's
level-0 layered cut, once one pass over the kept edges has checked that
the levels separate it, and `chain_cover_from_mpc` skips `validate_cover`.
The CLI's `--verify` calls the sweep itself, so its check never rests on
the certificate.
"""
from __future__ import annotations

from operator import le

from .dag import Dag, PathCover
from .errors import InvariantViolation, NotACover, NotMinimum
from .flow import Flow, FlowNetwork, source_side_vertices
from .flow import flow_from_cover  # noqa: F401  the benchmark's flow.from_cover hook targets this binding
from .oracle import solver_certificate
from .oracle import validate_cover  # the benchmark's oracle.validate hook targets this binding


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
    """Maximum antichain from an MPC; raises NotACover if cover is no path
    cover of dag and NotMinimum if it is not minimum.

    A solver cover with its certificate gives the level-0 layered cut,
    {v : level_in[v] == 0 < level_out[v]}, in O(n + kept edges). The
    reverse of every kept edge and split edge is residual and never raises
    the level, so level_out[u] <= level_in[w] on every kept edge (u, w)
    and level_in[v] <= level_out[v] on every vertex; one pass checks both.
    The kept edges carry dag's reachability, so for u reaching w,
    level_out[u] <= level_in[w]: no member reaches another, and a cut of
    cover.size members is a maximum antichain, which proves the cover
    minimum. A cut of any other size, levels that break the premise, and
    every other cover are validated and swept by `residual_antichain`.
    """
    cert = solver_certificate(dag, cover)
    if cert is not None:
        level_in = cert.levels.level_in
        level_out = cert.levels.level_out
        kept = cert.kept
        members = {v for v, level in enumerate(level_in)
                   if not level and level_out[v]}
        if (len(members) == len(cover.paths)
                and all(map(le, level_in, level_out))
                and all(map(le, map(level_out.__getitem__, kept.cross_tail),
                            map(level_in.__getitem__, kept.cross_head)))):
            return members
    report = validate_cover(dag, cover)
    if not report.ok:
        raise NotACover("; ".join(report.violations[:3]))
    return residual_antichain(dag, cover)


def residual_antichain(dag: Dag, cover: PathCover) -> set[int]:
    """Maximum antichain by the residual sweep of a valid path cover of dag;
    raises NotMinimum if the cover is not minimum.

    Runs the sweep of `source_side_vertices` on the cover's own flow
    without building a network: a path head's in-half is reached from the
    source, an in-half v_in reaches u_out for every in-neighbour u of v
    (reverse cross edge) and its own out-half when v lies on two or more
    paths (split flow above the demand), and an out-half u_out reaches u_in
    (reverse split edge) and w_in for every successor w of u on a path.
    Reaching the out-half of a path's last vertex means a decrementing path
    reaches the sink. The cover is not validated here; `max_antichain`
    does that first.
    """
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
    if solver_certificate(dag, cover) is None:
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
