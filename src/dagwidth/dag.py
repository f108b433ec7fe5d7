"""DAG representation, topological ordering, prefix subgraphs and instance generators.

Vertices are dense integers in [0, n). Adjacency lists are kept sorted so that
edge enumeration order (and everything derived from it) is deterministic.
"""
from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field

from .errors import CycleDetected, InvalidParameter, OutOfRange, SelfLoop


class Dag:
    """Immutable directed acyclic graph with a canonical topological order.

    Attributes:
        n: vertex count.
        out_adj / in_adj: per-vertex sorted neighbor lists describing the
            same simple edge set.
        topo: topological permutation of [0, n), computed by Kahn's method
            with smallest-id-first tie-breaking.
        topo_pos: inverse permutation; topo_pos[u] < topo_pos[v] for every
            edge (u, v).
    """

    __slots__ = ("n", "out_adj", "in_adj", "topo", "topo_pos")

    def __init__(self, n: int, out_adj: list[list[int]], in_adj: list[list[int]],
                 topo: list[int], topo_pos: list[int]):
        self.n = n
        self.out_adj = out_adj
        self.in_adj = in_adj
        self.topo = topo
        self.topo_pos = topo_pos

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.out_adj)

    def edges(self) -> list[tuple[int, int]]:
        """All edges, sorted by (tail, head). This is the canonical edge order."""
        return [(u, v) for u in range(self.n) for v in self.out_adj[u]]

    def __repr__(self) -> str:
        return f"Dag(n={self.n}, m={self.m})"


@dataclass
class PathCover:
    """An ordered list of vertex paths, usually covering all vertices.

    size is the number of paths, length the total number of path vertices.
    """

    paths: list[list[int]] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.paths)

    @property
    def length(self) -> int:
        return sum(len(p) for p in self.paths)

    def __iter__(self):
        return iter(self.paths)

    def __len__(self) -> int:
        return len(self.paths)


def build_dag(n: int, edges: list[tuple[int, int]]) -> Dag:
    """Build a normalized Dag from an edge list.

    Duplicate edges are dropped. Raises SelfLoop on (v, v) edges, OutOfRange
    on ids outside [0, n) and CycleDetected if the edges admit no topological
    order.
    """
    heads: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise OutOfRange(f"edge ({u}, {v}) outside [0, {n})")
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}")
        heads[u].append(v)
    return dag_from_heads(n, heads)


def dag_from_heads(n: int, heads: list[list[int]]) -> Dag:
    """Finish a Dag from heads[u], the heads of u's edges in any order.

    The lists are taken over as out_adj: each is sorted and de-duplicated in
    place. Every head must lie in [0, n) and differ from its tail; the callers
    check that first, so they can name the offending edge. Raises
    CycleDetected if the edges admit no topological order.
    """
    in_adj: list[list[int]] = [[] for _ in range(n)]
    for u, out in enumerate(heads):
        if len(out) > 1:
            distinct = set(out)
            if len(distinct) < len(out):
                out[:] = sorted(distinct)
            else:
                out.sort()
        # scanning tails in increasing order leaves every in_adj list sorted
        for v in out:
            in_adj[v].append(u)
    indeg = list(map(len, in_adj))
    # Kahn's algorithm with a min-id heap for a canonical order; the initial
    # list is ascending, so it is already a heap.
    heap = [v for v in range(n) if not indeg[v]]
    topo: list[int] = []
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        u = pop(heap)
        topo.append(u)
        for v in heads[u]:
            indeg[v] -= 1
            if not indeg[v]:
                push(heap, v)
    if len(topo) != n:
        raise CycleDetected("cycle detected: no topological order exists")
    topo_pos = [0] * n
    for pos, v in enumerate(topo):
        topo_pos[v] = pos
    return Dag(n, heads, in_adj, topo, topo_pos)


def prefix(dag: Dag, i: int) -> tuple[Dag, list[int]]:
    """Induced subgraph on the first i vertices in topological order.

    Returns (subgraph, mapping) where mapping[new_id] = old_id. Vertices are
    relabeled by topological position so the subgraph's id order is already
    topological.
    """
    if not (1 <= i <= dag.n):
        raise OutOfRange(f"prefix size {i} outside [1, {dag.n}]")
    mapping = dag.topo[:i]
    new_id = {old: new for new, old in enumerate(mapping)}
    edges = [(new_id[u], new_id[v])
             for u in mapping for v in dag.out_adj[u] if v in new_id]
    return build_dag(i, edges), mapping


def reaches(dag: Dag, u: int, v: int) -> bool:
    """True iff a directed path u -> ... -> v exists (u reaches itself)."""
    if not (0 <= u < dag.n and 0 <= v < dag.n):
        raise OutOfRange(f"vertex out of range: ({u}, {v})")
    if u == v:
        return True
    if dag.topo_pos[u] > dag.topo_pos[v]:
        return False
    seen = bytearray(dag.n)
    seen[u] = 1
    stack = [u]
    while stack:
        x = stack.pop()
        for y in dag.out_adj[x]:
            if y == v:
                return True
            if not seen[y]:
                seen[y] = 1
                stack.append(y)
    return False


def gen_random_dag(n: int, k_target: int, extra_edge_factor: float, seed: int) -> Dag:
    """Random DAG of width at most k_target.

    A random permutation of the vertices is cut into k_target contiguous
    chains (so the chains partition V and bound the width), then
    floor(extra_edge_factor * n) random forward edges w.r.t. that permutation
    are added. Deterministic for a fixed seed.
    """
    if n < 1 or not (1 <= k_target <= n):
        raise InvalidParameter(f"need 1 <= k_target <= n, got n={n}, k_target={k_target}")
    if extra_edge_factor < 0:
        raise InvalidParameter("extra_edge_factor must be nonnegative")
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    cuts = sorted(rng.sample(range(1, n), k_target - 1)) if k_target > 1 else []
    bounds = [0] + cuts + [n]
    edges: list[tuple[int, int]] = []
    for a, b in zip(bounds, bounds[1:]):
        for i in range(a, b - 1):
            edges.append((perm[i], perm[i + 1]))
    extra = int(extra_edge_factor * n)
    for _ in range(extra):
        if n < 2:
            break
        i, j = sorted(rng.sample(range(n), 2))
        edges.append((perm[i], perm[j]))
    return build_dag(n, edges)


def remark_family(n: int) -> Dag:
    """Tightness family for the 2|V| support bound.

    n + 1 layers of n vertices interleaved with n hub vertices; every vertex
    of layer i-1 feeds hub i and hub i feeds every vertex of layer i. The
    graph has n(n+2) vertices, 2n^2 edges and width n, and every size-n path
    cover uses every edge.
    """
    if n < 1:
        raise InvalidParameter("n must be >= 1")
    # Block layout: layer 0 | hub 1 | layer 1 | hub 2 | ... | hub n | layer n.
    def layer_vertex(i: int, j: int) -> int:
        return i * (n + 1) + j

    def hub_vertex(i: int) -> int:  # i in [1, n]
        return (i - 1) * (n + 1) + n

    total = n * (n + 2)
    edges: list[tuple[int, int]] = []
    for i in range(1, n + 1):
        h = hub_vertex(i)
        for j in range(n):
            edges.append((layer_vertex(i - 1, j), h))
            edges.append((h, layer_vertex(i, j)))
    return build_dag(total, edges)
