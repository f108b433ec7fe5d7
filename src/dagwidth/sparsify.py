"""Cover-guided transitive sparsification.

With a path cover of size t, any vertex keeps at most t incoming edges: per
cover path at most one in-neighbor survives, the topologically last one, and
every dropped edge is transitive through it. `last_per_path` is that rule,
one dict filled in one pass over the in-neighbors; `sparsify_vertex` (which
the solver's step route calls) and `sparsify_all` pick their survivors with
it. The solver's kernel, `SolverState._insert_all`, runs the same rule
inline, in the pass that also checks the insertion order.
"""
from __future__ import annotations

from .dag import Dag, PathCover
from .dag import build_dag  # noqa: F401  the benchmark's dag.build hook targets this binding
from .errors import BadPathId, NotACover
from .oracle import validate_cover


def last_per_path(in_neighbors, path_id, topo_pos) -> dict[int, int]:
    """Map each path id path_id[u] to its in-neighbor u with maximal topo_pos."""
    best: dict[int, int] = {}
    for u in in_neighbors:
        p = path_id[u]
        w = best.get(p)
        if w is None or topo_pos[u] > topo_pos[w]:
            best[p] = u
    return best


def sparsify_vertex(in_neighbors: list[int], path_id, topo_pos, t: int) -> list[int]:
    """Sparsify one vertex's incoming edges to at most t survivors.

    Per path id, the in-neighbor with maximal topological position is kept;
    the dropped edges are transitive through the kept one. path_id is an
    indexable sequence giving each in-neighbor the id (in [1, t]) of some
    cover path containing it; an id outside that range raises BadPathId.
    Survivors come in increasing path-id order.
    """
    best = last_per_path(in_neighbors, path_id, topo_pos)
    ids = sorted(best)
    if ids and (ids[0] < 1 or ids[-1] > t):
        bad = ids[0] if ids[0] < 1 else ids[-1]
        raise BadPathId(f"path id {bad} outside [1, {t}]")
    return [best[p] for p in ids]


def path_id_table(n: int, cover: PathCover) -> list[int]:
    """path id per vertex, 1-based; the lowest path index containing it wins.

    A vertex on no path keeps 0; callers validate the cover first.
    """
    table = [0] * n
    for pid, path in enumerate(cover.paths, 1):
        for v in path:
            if table[v] == 0:
                table[v] = pid
    return table


def sparsify_all(dag: Dag, cover: PathCover) -> Dag:
    """Spanning subgraph with in-degrees <= |cover| and identical reachability.

    The cover is validated first (NotACover otherwise). For every path that
    enters a vertex, that path's predecessor edge is pinned; remaining slots
    take the topologically last in-neighbor carrying the slot's id. Either
    way every dropped edge is transitive through the same path's survivor,
    so reachability is preserved and the given cover stays valid in the
    output. The subgraph is assembled directly, without a rebuild: its
    adjacency lists come out sorted, and dag.topo is also its min-id Kahn
    order, because that order depends only on reachability.
    """
    report = validate_cover(dag, cover)
    if not report.ok:
        raise NotACover("; ".join(report.violations[:3]))
    n = dag.n
    table = path_id_table(n, cover)
    # cover predecessor edges per head vertex: path id -> predecessor
    pins: list[dict[int, int]] = [{} for _ in range(n)]
    for pid, path in enumerate(cover.paths, 1):
        for u, v in zip(path, path[1:]):
            pins[v][pid] = u

    topo_pos = dag.topo_pos
    out_adj: list[list[int]] = [[] for _ in range(n)]
    in_adj: list[list[int]] = []
    for v in range(n):
        best = last_per_path(dag.in_adj[v], table, topo_pos)
        best.update(pins[v])
        kept = sorted(set(best.values()))
        in_adj.append(kept)
        for u in kept:
            out_adj[u].append(v)
    return Dag(n, out_adj, in_adj, dag.topo, dag.topo_pos)
