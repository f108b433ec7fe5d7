"""Rewire a path cover until its distinct edges number less than 2|V|.

Cover paths live as doubly linked chains of occurrence nodes; every distinct
directed edge keeps an insertion-ordered registry of the nodes realizing it,
so a path containing a given edge is found in O(1) and splicing reconnects
chains with O(1) pointer work per mismatch.

Vertices of degree at most two in the support are blue, the rest red; an
undirected cycle of red edges lets paths be spliced along one side of the
cycle, draining multiplicity from that side until an edge disappears. The
sum of squared multiplicities grows by at least the cycle length per pass,
which bounds the total splicing work. When no red cycle remains, the red
edges form a forest and the support is provably below 2|V| edges.

The cycle search is amortised over the whole thinning. Splicing moves
occurrences between nodes in place and never creates a support edge, so
between two searches the red graph only loses edges and vertices only turn
from red to blue, and the set of processed edges only grows. The red
adjacency is therefore built and sorted once, and the depth-first search
keeps its stack, cursors and visited set from one call to the next: a call
cuts the stack back to the first tree edge that vanished or the first
vertex that turned blue, then resumes. A restart from scratch would replay
exactly the surviving stack prefix, so both find the same cycles, while
each adjacency entry is scanned a bounded number of times per cut.
"""
from __future__ import annotations

from dataclasses import dataclass

from .dag import Dag, PathCover, build_dag
from .errors import EdgeUncovered, NotACover, NotARedCycle
from .oracle import validate_cover


class _Node:
    __slots__ = ("vertex", "prev", "next")

    def __init__(self, vertex: int):
        self.vertex = vertex
        self.prev: _Node | None = None
        self.next: _Node | None = None

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"_Node({self.vertex})"


@dataclass
class RedCycle:
    """A cycle of red support edges, as the closed vertex sequence."""

    vertices: list[int]


class SupportGraph:
    """Multiplicity-weighted support of a path cover, as linked path chains.

    occ maps each distinct directed edge to the tail nodes realizing it, in
    insertion order. degree counts distinct incident edges per vertex; a
    vertex is red iff its degree exceeds two. processed edges are those the
    cycle search has exhausted or deleted. _phi is the running sum of
    squared multiplicities.
    """

    def __init__(self, cover: PathCover, n: int):
        self.n = n
        self.occ: dict[tuple[int, int], dict[_Node, None]] = {}
        self.degree: dict[int, int] = {}
        self.heads: list[_Node] = []
        self.processed: set[tuple[int, int]] = set()
        # resumable cycle search state, see find_red_cycle
        self._adj: dict[int, list[tuple[int, tuple[int, int]]]] | None = None
        self._roots: list[int] = []
        self._root_idx = 0
        self._stack: list[int] = []
        self._pos: dict[int, int] = {}
        self._cursor: dict[int, int] = {}
        self._parent_edge: dict[int, tuple[int, int] | None] = {}
        self._visited: set[int] = set()
        self._vanished: list[tuple[int, int]] = []  # emptied since last search
        # the only place support edges are created
        occ = self.occ
        for path in cover.paths:
            prev: _Node | None = None
            for v in path:
                node = _Node(v)
                if prev is None:
                    self.heads.append(node)
                else:
                    prev.next = node
                    node.prev = prev
                    edge = (prev.vertex, v)
                    entry = occ.get(edge)
                    if entry is None:
                        occ[edge] = {prev: None}
                    else:
                        entry[prev] = None
                prev = node
        degree = self.degree
        phi = 0
        for (u, v), entry in occ.items():
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
            phi += len(entry) ** 2
        self._phi = phi

    # ------------------------------------------------------------- plumbing

    def _register(self, edge: tuple[int, int], tail: _Node) -> None:
        """Add an occurrence of a support edge. Thinning never creates or
        revives an edge, so a missing one raises KeyError."""
        entry = self.occ[edge]
        self._phi += 2 * len(entry) + 1
        entry[tail] = None

    def _unregister(self, edge: tuple[int, int], tail: _Node) -> None:
        entry = self.occ[edge]
        self._phi -= 2 * len(entry) - 1
        del entry[tail]
        if not entry:
            del self.occ[edge]
            self.processed.add(edge)
            self._vanished.append(edge)
            for x in edge:
                self.degree[x] -= 1

    def _move(self, edge: tuple[int, int], src: _Node, dst: _Node) -> None:
        """Hand one occurrence of edge from src to dst. The multiplicity,
        and with it degree, processed and phi, stays as it was."""
        entry = self.occ[edge]
        del entry[src]
        entry[dst] = None

    def mu(self, edge: tuple[int, int]) -> int:
        entry = self.occ.get(edge)
        return len(entry) if entry else 0

    def is_red(self, v: int) -> bool:
        return self.degree.get(v, 0) > 2

    def phi(self) -> int:
        return self._phi

    def to_cover(self) -> PathCover:
        paths = []
        for head in self.heads:
            path = []
            node: _Node | None = head
            while node is not None:
                path.append(node.vertex)
                node = node.next
            paths.append(path)
        return PathCover(paths)

    # -------------------------------------------------------------- splicing

    def splice_chain(self, d: list[int]) -> list[_Node]:
        """Reconnect paths so d is contiguous on one; returns its node chain.

        Per-edge multiplicities are preserved: mismatches only exchange the
        suffixes of two chains through O(1) pointer swaps.
        """
        if len(d) < 2:
            raise EdgeUncovered("splice target must be a proper path")
        first = (d[0], d[1])
        entry = self.occ.get(first)
        if not entry:
            raise EdgeUncovered(f"edge {first} lies on no cover path")
        cur = next(iter(entry))
        chain = [cur, cur.next]
        for u, v in zip(d[1:], d[2:]):
            x = chain[-1]
            nxt = x.next
            if nxt is not None and nxt.vertex == v:
                chain.append(nxt)
                continue
            entry = self.occ.get((u, v))
            if not entry:
                raise EdgeUncovered(f"edge {(u, v)} lies on no cover path")
            b_u = next(iter(entry))
            b_v = b_u.next
            # swap the suffix after x with the suffix starting at b_v
            x.next = b_v
            b_v.prev = x
            b_u.next = nxt
            if nxt is not None:
                nxt.prev = b_u
            self._move((u, v), b_u, x)
            if nxt is not None:
                self._move((u, nxt.vertex), x, b_u)
            chain.append(b_v)
        return chain

    # ------------------------------------------------------- cycle machinery

    def find_red_cycle(self) -> RedCycle | None:
        """Depth-first search over red edges for a cycle of red vertices.

        Roots are taken in increasing id order among the vertices that had a
        red edge at the first call; adjacency follows canonical edge order
        with processed and no longer red edges skipped. Edges are marked
        processed when backtracked over. The search resumes where the last
        call stopped: a detected cycle is returned with the cursor left on
        its closing edge and without processing its edges, so a repeat call
        with no elimination in between returns the same cycle.
        """
        if self._adj is None:
            self._build_search()
        else:
            self._cut_stack()
        adj = self._adj
        processed = self.processed
        degree = self.degree
        roots = self._roots
        stack = self._stack
        pos = self._pos
        cursor = self._cursor
        parent_edge = self._parent_edge
        visited = self._visited
        while True:
            if not stack:
                while self._root_idx < len(roots):
                    root = roots[self._root_idx]
                    self._root_idx += 1
                    if root not in visited and degree[root] > 2:
                        break
                else:
                    return None
                visited.add(root)
                stack.append(root)
                pos[root] = 0
                parent_edge[root] = None
                cursor[root] = 0
            v = stack[-1]
            entries = adj[v]
            pe = parent_edge[v]
            i = cursor[v]
            advanced = False
            while i < len(entries):
                w, edge = entries[i]
                if edge in processed or edge == pe or degree[w] <= 2:
                    i += 1
                    continue
                if w in pos:
                    cursor[v] = i
                    return RedCycle(stack[pos[w]:])
                i += 1
                if w in visited:
                    continue
                visited.add(w)
                pos[w] = len(stack)
                stack.append(w)
                parent_edge[w] = edge
                cursor[w] = 0
                advanced = True
                break
            cursor[v] = i
            if not advanced:
                stack.pop()
                del pos[v]
                if pe is not None:
                    processed.add(pe)

    def _build_search(self) -> None:
        """Sorted adjacency of the red graph as it stands; later calls only
        ever see a subgraph of it."""
        adj: dict[int, list[tuple[int, tuple[int, int]]]] = {}
        for edge in self.occ:
            u, v = edge
            if edge not in self.processed and self.is_red(u) and self.is_red(v):
                adj.setdefault(u, []).append((v, edge))
                adj.setdefault(v, []).append((u, edge))
        for entries in adj.values():
            entries.sort()
        self._adj = adj
        self._roots = sorted(adj)
        self._vanished.clear()

    def _cut_stack(self) -> None:
        """Pop the stack down to below its first vertex whose tree edge
        vanished or which turned blue since the last call. Only endpoints of
        vanished edges lose degree, so the vanished edges name every
        candidate. Cut vertices become unvisited, as in a fresh search."""
        pos = self._pos
        parent_edge = self._parent_edge
        degree = self.degree
        stack = self._stack
        cut = len(stack)
        for edge in self._vanished:
            for x in edge:
                p = pos.get(x)
                if p is not None and p < cut and (
                        parent_edge[x] == edge or degree[x] <= 2):
                    cut = p
        self._vanished.clear()
        for x in stack[cut:]:
            del pos[x]
            self._visited.discard(x)
        del stack[cut:]

    def eliminate_red_cycle(self, cycle: RedCycle, record: list | None = None):
        """Splice along one side of the cycle until a support edge vanishes.

        The side with the smaller multiplicity sum is drained (ties drain the
        backward side); each pass raises the kept side's multiplicities by
        one and lowers the drained side's by one, growing the squared-
        multiplicity potential by at least the cycle length. record, when
        given, receives one (delta_phi, cycle_length, spliced_edges) triple
        per pass.
        """
        cyc = cycle.vertices
        length = len(cyc)
        if length < 3:
            raise NotARedCycle("a red cycle has at least three vertices")
        orient: list[bool] = []  # True = forward along cycle order
        for i in range(length):
            a, b = cyc[i], cyc[(i + 1) % length]
            if (a, b) in self.occ:
                orient.append(True)
            elif (b, a) in self.occ:
                orient.append(False)
            else:
                raise NotARedCycle(f"({a}, {b}) is not a support edge")
        for v in cyc:
            if not self.is_red(v):
                raise NotARedCycle(f"vertex {v} is not red")
        if len(set(cyc)) != length:
            raise NotARedCycle("a red cycle visits no vertex twice")
        if all(orient) or not any(orient):
            raise NotARedCycle("cycle orientation has no mixed edges")

        sum_f = sum(self.mu((cyc[i], cyc[(i + 1) % length]))
                    for i in range(length) if orient[i])
        sum_b = sum(self.mu((cyc[(i + 1) % length], cyc[i]))
                    for i in range(length) if not orient[i])
        drain_forward = sum_f < sum_b  # ties drain the backward side

        # rotate so position 0 starts a drained-side run
        drained = [o == drain_forward for o in orient]
        start = next(i for i in range(length)
                     if drained[i] and not drained[i - 1])
        cyc = cyc[start:] + cyc[:start]
        drained = drained[start:] + drained[:start]
        orient = orient[start:] + orient[:start]

        def run_vertices(p: int, q: int) -> list[int]:
            """Directed vertex list of the run of edge positions [p, q]."""
            verts = [cyc[i % length] for i in range(p, q + 2)]
            return verts if orient[p] else verts[::-1]

        runs: list[tuple[bool, int, int]] = []
        i = 0
        while i < length:
            j = i
            while j + 1 < length and drained[j + 1] == drained[i]:
                j += 1
            runs.append((drained[i], i, j))
            i = j + 1
        # the cycle is fixed for the whole elimination
        drained_runs = [run_vertices(p, q) for flag, p, q in runs if flag]
        kept_runs = [run_vertices(p, q) for flag, p, q in runs if not flag]
        drained_support = [e for verts in drained_runs
                           for e in zip(verts, verts[1:])]

        occ = self.occ
        while True:
            phi_before = self._phi
            self._one_pass(drained_runs, kept_runs)
            if record is not None:
                record.append((self._phi - phi_before, length,
                               len(drained_support)))
            if any(e not in occ for e in drained_support):
                break

    def _one_pass(self, drained_runs, kept_runs) -> None:
        """One splice pass: make every drained run contiguous on some path,
        detach it, and reroute the loose ends through the kept runs. Runs
        are directed vertex lists."""
        chains = [self.splice_chain(verts) for verts in drained_runs]
        start_node: dict[int, _Node] = {}
        end_node: dict[int, _Node] = {}
        for verts, chain in zip(drained_runs, chains):
            start_node[verts[0]] = chain[0]
            end_node[verts[-1]] = chain[-1]
        # detach the drained chains; their interior nodes fall out of every
        # path, which is safe because red vertices keep other covered edges
        for verts, chain in zip(drained_runs, chains):
            for i, e in enumerate(zip(verts, verts[1:])):
                self._unregister(e, chain[i])
        # reconnect through the kept runs: the prefix arriving at a drained
        # run's start continues along the kept run to the suffix leaving the
        # matching drained run's end
        for verts in kept_runs:
            left = start_node[verts[0]]
            right = end_node[verts[-1]]
            prev = left
            for v in verts[1:-1]:
                node = _Node(v)
                prev.next = node
                node.prev = prev
                self._register((prev.vertex, v), prev)
                prev = node
            prev.next = right
            right.prev = prev
            self._register((prev.vertex, right.vertex), prev)


def eliminate_red_cycle(support: SupportGraph, cycle: RedCycle,
                        record: list | None = None) -> None:
    """Splice the support's cover along one side of a red cycle until an
    edge of that side disappears. Mutates the support in place."""
    support.eliminate_red_cycle(cycle, record=record)


def splice(cover: PathCover, d: list[int]) -> PathCover:
    """Reconnect cover paths so d appears contiguously in one of them.

    Preserves the number of paths and every edge multiplicity. The linked
    rebuild costs the cover's total length; inside thin the same machinery
    runs on the persistent structure at O(|d|) per call.
    """
    n = max((max(p) for p in cover.paths if p), default=-1) + 1
    support = SupportGraph(cover, n)
    support.splice_chain(d)
    return support.to_cover()


def thin(dag: Dag, cover: PathCover, instrument: list | None = None) -> PathCover:
    """Same-size cover whose distinct edges number less than 2|V|.

    instrument, when given, collects one (delta_phi, cycle_length,
    spliced_edges) record per elimination pass.
    """
    report = validate_cover(dag, cover)
    if not report.ok:
        raise NotACover("; ".join(report.violations[:3]))
    support = SupportGraph(cover, dag.n)
    while True:
        cycle = support.find_red_cycle()
        if cycle is None:
            break
        support.eliminate_red_cycle(cycle, record=instrument)
    result = support.to_cover()
    assert result.size == cover.size
    return result


def cover_support(cover: PathCover) -> dict[tuple[int, int], int]:
    """Distinct edges of a cover with their multiplicities."""
    mu: dict[tuple[int, int], int] = {}
    for path in cover.paths:
        for e in zip(path, path[1:]):
            mu[e] = mu.get(e, 0) + 1
    return mu


def width_preserving_sparsify(dag: Dag) -> Dag:
    """Spanning subgraph with fewer than 2|V| edges and unchanged width."""
    from .incremental import solve

    if dag.n == 0:
        return dag
    thinned = thin(dag, solve(dag).cover)
    return build_dag(dag.n, sorted(cover_support(thinned)))
